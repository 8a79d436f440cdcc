/**
 * @file
 * Unit tests for the per-process page table: the two-level radix
 * layout (leaf boundaries, proxy-region vpns), stable PTE slots,
 * ascending-vpn iteration and the size count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "vm/page_table.hh"

using namespace shrimp;
using namespace shrimp::vm;

namespace
{

Pte
makePte(Addr frame, bool writable = true)
{
    Pte p;
    p.frameAddr = frame;
    p.valid = true;
    p.writable = writable;
    return p;
}

} // namespace

TEST(PageTable, InstallAndLookup)
{
    PageTable pt;
    pt.install(5, makePte(0x3000));
    Pte *p = pt.lookup(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->frameAddr, 0x3000u);
    EXPECT_TRUE(p->valid);
}

TEST(PageTable, LookupMissingReturnsNull)
{
    PageTable pt;
    EXPECT_EQ(pt.lookup(5), nullptr);
    pt.install(5, makePte(0x3000));
    EXPECT_EQ(pt.lookup(6), nullptr);
}

TEST(PageTable, InstallOverwrites)
{
    PageTable pt;
    pt.install(5, makePte(0x3000));
    pt.install(5, makePte(0x4000, false));
    Pte *p = pt.lookup(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->frameAddr, 0x4000u);
    EXPECT_FALSE(p->writable);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, RemoveDeletesEntry)
{
    PageTable pt;
    pt.install(5, makePte(0x3000));
    pt.remove(5);
    EXPECT_EQ(pt.lookup(5), nullptr);
    EXPECT_EQ(pt.size(), 0u);
    pt.remove(5); // idempotent
}

TEST(PageTable, PointerStabilityAcrossInserts)
{
    // The TLB caches Pte pointers; slots in never-moving leaves must
    // keep them valid as unrelated entries come and go.
    PageTable pt;
    Pte *p5 = &pt.install(5, makePte(0x5000));
    for (std::uint64_t v = 100; v < 200; ++v)
        pt.install(v, makePte(v << 12));
    for (std::uint64_t v = 100; v < 150; ++v)
        pt.remove(v);
    EXPECT_EQ(pt.lookup(5), p5);
    EXPECT_EQ(p5->frameAddr, 0x5000u);
}

TEST(PageTable, ForEachVisitsAllAndMutates)
{
    PageTable pt;
    pt.install(1, makePte(0x1000));
    pt.install(2, makePte(0x2000));
    pt.install(3, makePte(0x3000));
    std::size_t count = 0;
    pt.forEach([&](std::uint64_t vpn, Pte &pte) {
        ++count;
        pte.referenced = vpn == 2;
    });
    EXPECT_EQ(count, 3u);
    EXPECT_FALSE(pt.lookup(1)->referenced);
    EXPECT_TRUE(pt.lookup(2)->referenced);
}

TEST(PageTable, ConstLookup)
{
    PageTable pt;
    pt.install(9, makePte(0x9000));
    const PageTable &cpt = pt;
    const Pte *p = cpt.lookup(9);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->frameAddr, 0x9000u);
}

namespace
{

constexpr std::uint64_t leaf = PageTable::leafEntries;
/** First vpn of the memory-proxy and device-proxy regions of device 0
 *  with 4 KiB pages (vm/layout.hh: 1 GB region slots). */
constexpr std::uint64_t memProxyVpn = std::uint64_t(1) << 18;
constexpr std::uint64_t devProxyVpn = std::uint64_t(2) << 18;

} // namespace

TEST(PageTable, LeafBoundariesAndProxyRegions)
{
    PageTable pt;
    const std::vector<std::uint64_t> vpns = {
        0, leaf - 1, leaf, 2 * leaf - 1, 2 * leaf,
        memProxyVpn - 1, memProxyVpn, memProxyVpn + 17,
        devProxyVpn + leaf - 1, devProxyVpn + leaf};
    for (std::uint64_t v : vpns)
        pt.install(v, makePte(v << 12));
    EXPECT_EQ(pt.size(), vpns.size());
    for (std::uint64_t v : vpns) {
        const Pte *p = pt.lookup(v);
        ASSERT_NE(p, nullptr) << "vpn " << v;
        EXPECT_EQ(p->frameAddr, v << 12) << "vpn " << v;
    }
    // Neighbours in present leaves, and vpns in absent leaves.
    EXPECT_EQ(pt.lookup(1), nullptr);
    EXPECT_EQ(pt.lookup(leaf + 1), nullptr);
    EXPECT_EQ(pt.lookup(memProxyVpn + 16), nullptr);
    EXPECT_EQ(pt.lookup(3 * leaf), nullptr);
    EXPECT_EQ(pt.lookup(devProxyVpn), nullptr);
    EXPECT_EQ(pt.lookup(~std::uint64_t(0)), nullptr);
}

TEST(PageTable, ForEachAscendsAcrossLeavesWhateverTheInstallOrder)
{
    PageTable pt;
    const std::vector<std::uint64_t> order = {
        devProxyVpn + 3, 7, memProxyVpn + 1, leaf, 3, devProxyVpn,
        2 * leaf + 5, memProxyVpn, leaf - 1, 5 * leaf + 2, 4 * leaf - 1};
    for (std::uint64_t v : order)
        pt.install(v, makePte(v << 12));
    std::vector<std::uint64_t> seen;
    pt.forEach([&](std::uint64_t vpn, Pte &pte) {
        EXPECT_EQ(pte.frameAddr, vpn << 12);
        seen.push_back(vpn);
    });
    std::vector<std::uint64_t> want = order;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen, want);

    // Removed entries drop out of the walk; their leaves stay.
    pt.remove(leaf);
    pt.remove(memProxyVpn + 1);
    seen.clear();
    pt.forEach([&](std::uint64_t vpn, Pte &) { seen.push_back(vpn); });
    std::erase(want, leaf);
    std::erase(want, memProxyVpn + 1);
    EXPECT_EQ(seen, want);
}

TEST(PageTable, RemoveClearsTheSlotAndReinstallReusesIt)
{
    PageTable pt;
    Pte *slot = &pt.install(memProxyVpn + 4, makePte(0x7000));
    slot->dirty = true;
    pt.remove(memProxyVpn + 4);
    EXPECT_EQ(pt.lookup(memProxyVpn + 4), nullptr);
    // A pointer cached past the removal reads an invalid PTE, never
    // the old mapping.
    EXPECT_FALSE(slot->valid);
    EXPECT_FALSE(slot->dirty);
    EXPECT_EQ(slot->frameAddr, 0u);

    Pte *again = &pt.install(memProxyVpn + 4, makePte(0x8000));
    EXPECT_EQ(again, slot);
    EXPECT_EQ(pt.lookup(memProxyVpn + 4), slot);
    EXPECT_EQ(slot->frameAddr, 0x8000u);
}

TEST(PageTable, SizeTracksInstallOverwriteAndRemove)
{
    PageTable pt;
    EXPECT_EQ(pt.size(), 0u);
    pt.install(1, makePte(0x1000));
    pt.install(leaf + 1, makePte(0x2000));
    pt.install(memProxyVpn, makePte(0x3000));
    EXPECT_EQ(pt.size(), 3u);
    pt.install(leaf + 1, makePte(0x4000)); // overwrite
    EXPECT_EQ(pt.size(), 3u);
    pt.remove(1);
    EXPECT_EQ(pt.size(), 2u);
    pt.remove(1); // already gone
    EXPECT_EQ(pt.size(), 2u);
    pt.install(1, makePte(0x5000));
    EXPECT_EQ(pt.size(), 3u);
    pt.remove(leaf + 1);
    pt.remove(memProxyVpn);
    pt.remove(1);
    EXPECT_EQ(pt.size(), 0u);
    std::size_t visited = 0;
    pt.forEach([&](std::uint64_t, Pte &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(PageTable, RemovingAnAbsentVpnFromAPresentLeafIsANoOp)
{
    PageTable pt;
    Pte *p = &pt.install(leaf + 2, makePte(0x2000));
    pt.remove(leaf + 3);     // same leaf, never installed
    pt.remove(3 * leaf + 3); // leaf never allocated
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_EQ(pt.lookup(leaf + 2), p);
    EXPECT_TRUE(p->valid);
    EXPECT_EQ(p->frameAddr, 0x2000u);
    EXPECT_EQ(pt.lookup(leaf + 3), nullptr);
}
