/**
 * @file
 * Unit tests for the swap area: round trips, exact traffic counts,
 * in-place overwrites, slot recycling after dropProcess, and the hash
 * index across growth and deletions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/backing_store.hh"

using namespace shrimp;
using namespace shrimp::mem;

namespace
{

std::vector<std::uint8_t>
pattern(std::uint8_t seed)
{
    std::vector<std::uint8_t> v(4096);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = std::uint8_t(seed + i);
    return v;
}

} // namespace

TEST(BackingStore, StoreLoadRoundTrip)
{
    BackingStore bs(4096);
    auto in = pattern(7);
    bs.store(1, 42, in.data());
    EXPECT_TRUE(bs.contains(1, 42));
    std::vector<std::uint8_t> out(4096);
    bs.load(1, 42, out.data());
    EXPECT_EQ(in, out);
}

TEST(BackingStore, MissingPageIsAbsent)
{
    BackingStore bs(4096);
    EXPECT_FALSE(bs.contains(1, 42));
    std::vector<std::uint8_t> out(4096);
    EXPECT_THROW(bs.load(1, 42, out.data()), PanicError);
}

TEST(BackingStore, KeysAreParPidAndVpn)
{
    BackingStore bs(4096);
    bs.store(1, 5, pattern(1).data());
    EXPECT_FALSE(bs.contains(2, 5));
    EXPECT_FALSE(bs.contains(1, 6));
    EXPECT_TRUE(bs.contains(1, 5));
}

TEST(BackingStore, OverwriteReplacesContent)
{
    BackingStore bs(4096);
    bs.store(1, 5, pattern(1).data());
    bs.store(1, 6, pattern(2).data());
    auto newer = pattern(99);
    bs.store(1, 5, newer.data());
    EXPECT_EQ(bs.slots(), 2u) << "an overwrite must stay in its slot";
    EXPECT_EQ(bs.pages(), 2u);
    std::vector<std::uint8_t> out(4096);
    bs.load(1, 5, out.data());
    EXPECT_EQ(out, newer);
    bs.load(1, 6, out.data());
    EXPECT_EQ(out, pattern(2));
}

TEST(BackingStore, DropProcessRemovesOnlyThatPid)
{
    BackingStore bs(4096);
    bs.store(1, 5, pattern(1).data());
    bs.store(1, 6, pattern(2).data());
    bs.store(2, 5, pattern(3).data());
    bs.dropProcess(1);
    EXPECT_FALSE(bs.contains(1, 5));
    EXPECT_FALSE(bs.contains(1, 6));
    EXPECT_TRUE(bs.contains(2, 5));
}

TEST(BackingStore, CountsTraffic)
{
    BackingStore bs(4096);
    auto p = pattern(1);
    std::vector<std::uint8_t> out(4096);
    bs.store(1, 1, p.data());
    bs.store(1, 2, p.data());
    bs.load(1, 1, out.data());
    EXPECT_EQ(bs.pageWrites(), 2u);
    EXPECT_EQ(bs.pageReads(), 1u);
    bs.store(1, 2, p.data()); // an overwrite is a write too
    bs.load(1, 2, out.data());
    bs.load(1, 2, out.data());
    EXPECT_THROW(bs.load(1, 9, out.data()), PanicError);
    EXPECT_EQ(bs.pageWrites(), 3u);
    EXPECT_EQ(bs.pageReads(), 3u) << "a miss is not a read";
}

TEST(BackingStore, DropProcessRecyclesSlots)
{
    BackingStore bs(4096);
    for (std::uint64_t v = 0; v < 8; ++v)
        bs.store(1, v, pattern(std::uint8_t(v)).data());
    bs.store(2, 0, pattern(200).data());
    EXPECT_EQ(bs.slots(), 9u);
    bs.dropProcess(1);
    EXPECT_EQ(bs.pages(), 1u);
    EXPECT_EQ(bs.slots(), 9u);

    // A new process's pages land in the recycled slots.
    for (std::uint64_t v = 100; v < 108; ++v)
        bs.store(3, v, pattern(std::uint8_t(v)).data());
    EXPECT_EQ(bs.slots(), 9u);
    EXPECT_EQ(bs.pages(), 9u);
    std::vector<std::uint8_t> out(4096);
    for (std::uint64_t v = 100; v < 108; ++v) {
        bs.load(3, v, out.data());
        EXPECT_EQ(out, pattern(std::uint8_t(v)));
    }
    bs.load(2, 0, out.data());
    EXPECT_EQ(out, pattern(200));
}

TEST(BackingStore, IndexSurvivesGrowthAndInterleavedDrops)
{
    // Enough keys to grow the index several times, interleaved across
    // pids so that dropping one pid punches holes in every probe run.
    BackingStore bs(64);
    std::vector<std::uint8_t> img(64), out(64);
    auto fill = [&](Pid pid, std::uint64_t vpn) {
        for (std::size_t i = 0; i < img.size(); ++i)
            img[i] = std::uint8_t(pid * 31 + vpn * 7 + i);
    };
    for (std::uint64_t v = 0; v < 400; ++v) {
        for (Pid pid = 1; pid <= 3; ++pid) {
            fill(pid, v);
            bs.store(pid, v * 3, img.data());
        }
    }
    EXPECT_EQ(bs.pages(), 1200u);
    bs.dropProcess(2);
    EXPECT_EQ(bs.pages(), 800u);
    for (std::uint64_t v = 0; v < 400; ++v) {
        EXPECT_FALSE(bs.contains(2, v * 3));
        for (Pid pid : {Pid(1), Pid(3)}) {
            ASSERT_TRUE(bs.contains(pid, v * 3)) << pid << "/" << v;
            fill(pid, v);
            bs.load(pid, v * 3, out.data());
            EXPECT_EQ(out, img) << pid << "/" << v;
        }
    }
    bs.dropProcess(1);
    bs.dropProcess(3);
    EXPECT_EQ(bs.pages(), 0u);
    EXPECT_EQ(bs.slots(), 1200u);
}
