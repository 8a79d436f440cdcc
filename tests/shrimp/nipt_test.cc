/**
 * @file
 * Unit tests for the Network Interface Page Table.
 */

#include <gtest/gtest.h>

#include "../support/resident.hh"
#include "shrimp/nipt.hh"

using namespace shrimp;
using namespace shrimp::net;
using shrimp::test::hostPageBytes;
using shrimp::test::residentBytes;
using shrimp::test::residentGrowth;

TEST(Nipt, Has32kEntries)
{
    EXPECT_EQ(Nipt::numEntries, 32768u)
        << "indexed with 15 bits (paper Section 8)";
}

TEST(Nipt, StartsInvalid)
{
    Nipt t;
    EXPECT_FALSE(t.get(0).valid);
    EXPECT_FALSE(t.get(Nipt::numEntries - 1).valid);
    EXPECT_EQ(t.validEntries(), 0u);
}

TEST(Nipt, SetGetClear)
{
    Nipt t;
    t.set(100, 3, 0x55);
    const NiptEntry &e = t.get(100);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.dstNode, 3u);
    EXPECT_EQ(e.dstPage, 0x55u);
    t.clear(100);
    EXPECT_FALSE(t.get(100).valid);
    // The control plane's index is checked, not masked.
    EXPECT_THROW(t.set(Nipt::numEntries, 0, 0), PanicError);
    EXPECT_THROW(t.clear(Nipt::numEntries), PanicError);
}

TEST(Nipt, IndexWraps15Bits)
{
    Nipt t;
    t.set(5, 1, 2);
    // The hardware masks the page number to 15 bits.
    EXPECT_TRUE(t.get(5 + Nipt::numEntries).valid);
}

TEST(Nipt, AllocateRunIsContiguous)
{
    Nipt t;
    std::size_t r = t.allocateRun(8);
    ASSERT_LT(r, Nipt::numEntries);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_FALSE(t.get(r + i).valid);
}

TEST(Nipt, AllocateRunSkipsFragments)
{
    Nipt t;
    // Occupy entries 0..9 except a hole of 3 at 4..6.
    for (std::size_t i = 0; i < 10; ++i) {
        if (i < 4 || i > 6)
            t.set(i, 0, 0);
    }
    EXPECT_EQ(t.allocateRun(3), 4u) << "exact-fit hole";
    EXPECT_EQ(t.allocateRun(4), 10u) << "too big for the hole";
}

TEST(Nipt, AllocateRunFullTableFails)
{
    Nipt t;
    EXPECT_EQ(t.allocateRun(0), Nipt::numEntries);
    EXPECT_EQ(t.allocateRun(Nipt::numEntries + 1), Nipt::numEntries);
    // Fill everything.
    for (std::size_t i = 0; i < Nipt::numEntries; ++i)
        t.set(i, 0, 0);
    EXPECT_EQ(t.allocateRun(1), Nipt::numEntries);
}

TEST(Nipt, FreshTableIsNotResident)
{
    const std::uint64_t before = residentBytes();
    Nipt t;
    EXPECT_LT(residentGrowth(before), std::uint64_t(64) << 10)
        << "a fresh 512 KiB table is committed";

    const std::uint64_t fresh = residentBytes();
    t.set(Nipt::numEntries - 1, 3, 0x55);
    EXPECT_EQ(residentGrowth(fresh), hostPageBytes())
        << "programming one entry commits its page";
    EXPECT_TRUE(t.get(Nipt::numEntries - 1).valid);
}
