/**
 * @file
 * Unit tests for the flat physical memory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../support/resident.hh"
#include "mem/physical_memory.hh"

using namespace shrimp;
using namespace shrimp::mem;
using shrimp::test::hostPageBytes;
using shrimp::test::residentBytes;
using shrimp::test::residentGrowth;

TEST(PhysicalMemory, SizeAndFrames)
{
    PhysicalMemory m(64 << 10, 4096);
    EXPECT_EQ(m.size(), 64u << 10);
    EXPECT_EQ(m.frames(), 16u);
    EXPECT_EQ(m.pageBytes(), 4096u);
}

TEST(PhysicalMemory, RejectsUnalignedSize)
{
    EXPECT_THROW(PhysicalMemory(4097, 4096), FatalError);
    EXPECT_THROW(PhysicalMemory(4096, 0), FatalError);
    // Aligned but larger than any host can map: fatal, naming the size.
    try {
        PhysicalMemory(1ull << 62, 4096);
        ADD_FAILURE() << "a 4 EiB memory was built";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("4611686018427387904"),
                  std::string::npos)
            << e.what();
    }
    // Zero bytes is a legal empty memory.
    PhysicalMemory empty(0, 4096);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.frames(), 0u);
}

TEST(PhysicalMemory, ByteRoundTrip)
{
    PhysicalMemory m(8192, 4096);
    std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
    m.writeBytes(100, in.data(), in.size());
    std::vector<std::uint8_t> out(5);
    m.readBytes(100, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(PhysicalMemory, TypedRoundTrip)
{
    PhysicalMemory m(8192, 4096);
    m.write<std::uint64_t>(8, 0xDEADBEEF12345678ull);
    EXPECT_EQ(m.read<std::uint64_t>(8), 0xDEADBEEF12345678ull);
    m.write<std::uint16_t>(3, 0xABCD);
    EXPECT_EQ(m.read<std::uint16_t>(3), 0xABCD);
}

TEST(PhysicalMemory, ZeroInitialized)
{
    PhysicalMemory m(4096, 4096);
    EXPECT_EQ(m.read<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.read<std::uint64_t>(4088), 0u);
}

TEST(PhysicalMemory, ZeroFrame)
{
    PhysicalMemory m(8192, 4096);
    m.write<std::uint64_t>(4096, ~0ull);
    m.write<std::uint64_t>(8184, ~0ull);
    m.zeroFrame(1);
    EXPECT_EQ(m.read<std::uint64_t>(4096), 0u);
    EXPECT_EQ(m.read<std::uint64_t>(8184), 0u);
}

TEST(PhysicalMemory, FrameAddressing)
{
    PhysicalMemory m(64 << 10, 4096);
    EXPECT_EQ(m.frameAddr(3), 3u * 4096);
    EXPECT_EQ(m.frameOf(3 * 4096 + 17), 3u);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    PhysicalMemory m(4096, 4096);
    std::uint8_t b[8] = {};
    EXPECT_THROW(m.readBytes(4096, b, 1), PanicError);
    EXPECT_THROW(m.writeBytes(4090, b, 8), PanicError);
    EXPECT_THROW(m.readBytes(~0ull, b, 1), PanicError);
}

TEST(PhysicalMemory, EdgeOfMemoryIsAccessible)
{
    PhysicalMemory m(4096, 4096);
    m.write<std::uint8_t>(4095, 0x7f);
    EXPECT_EQ(m.read<std::uint8_t>(4095), 0x7f);
}

TEST(PhysicalMemory, UntouchedFramesAreNotResident)
{
    const std::uint64_t before = residentBytes();
    PhysicalMemory m(std::uint64_t(256) << 20, 4096);
    EXPECT_LT(residentGrowth(before), std::uint64_t(16) << 20)
        << "a fresh 256 MiB memory is committed";

    const std::uint64_t last = m.frames() - 1;
    EXPECT_EQ(m.read<std::uint64_t>(m.frameAddr(m.frames() / 2)), 0u);

    const std::uint64_t built = residentBytes();
    m.write<std::uint64_t>(0, ~0ull);
    m.write<std::uint64_t>(m.frameAddr(last), ~0ull);
    m.zeroFrame(0);
    m.zeroFrame(last);
    EXPECT_EQ(m.read<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.read<std::uint64_t>(m.frameAddr(last)), 0u);
    EXPECT_EQ(residentGrowth(built), 2 * hostPageBytes())
        << "writing two frames commits their two pages";
}
