/**
 * @file
 * Per-process page table.
 *
 * A two-level radix table: a small directory, sorted by leaf index,
 * of fixed-size leaves of leafEntries PTE slots each, plus a one-word
 * presence bitmap per leaf. A leaf is allocated the first time one of
 * its vpns is installed and is never moved or freed while the table
 * lives, so a Pte pointer handed out by lookup() or install() stays
 * valid for the table's lifetime — the TLB and the kernel's
 * proxy-translation cache hold such pointers.
 *
 * remove() clears the presence bit and resets the slot to a default
 * (invalid) Pte, so a pointer cached past a missed shootdown reads
 * valid == false — a safe miss — while lookup() returns nullptr for
 * the vpn. The invariant auditor compares cached pointers with
 * lookup()'s answer, so it still flags such a pointer as stale. The
 * kernel must still invalidate the TLB before removing or re-pointing
 * an entry.
 */

#ifndef SHRIMP_VM_PAGE_TABLE_HH
#define SHRIMP_VM_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::vm
{

/**
 * A page table entry. frameAddr is the physical base address of the
 * target page and may point into real memory, a memory proxy region,
 * or a device proxy region; the physical address map gives it meaning.
 */
struct Pte
{
    Addr frameAddr = 0;
    bool valid = false;
    bool writable = false;
    bool user = true;
    /** Hardware-managed: set by the MMU on any write through the PTE. */
    bool dirty = false;
    /** Hardware-managed: set by the MMU on any access; clock hand clears. */
    bool referenced = false;
};

/** One process's virtual-to-physical mapping. */
class PageTable
{
  public:
    /** log2 of the PTE slots per leaf: one 64-bit presence word. */
    static constexpr unsigned leafBits = 6;
    static constexpr std::size_t leafEntries = std::size_t(1) << leafBits;

    /** Find the PTE for a virtual page; nullptr if none is installed. */
    Pte *lookup(std::uint64_t vpn) { return installed(vpn); }
    const Pte *lookup(std::uint64_t vpn) const { return installed(vpn); }

    /**
     * Install (or overwrite) a mapping. Returns the stored PTE, which
     * lives at the same address for every install of this vpn.
     * Caller is responsible for TLB shootdown when overwriting.
     */
    Pte &
    install(std::uint64_t vpn, const Pte &pte)
    {
        Leaf &leaf = touchLeaf(vpn >> leafBits);
        const std::size_t i = slotOf(vpn);
        if (!leaf.present(i)) {
            leaf.bits |= std::uint64_t(1) << i;
            ++size_;
        }
        leaf.ptes[i] = pte;
        return leaf.ptes[i];
    }

    /** Drop a mapping, clearing its slot. Caller handles TLB shootdown. */
    void
    remove(std::uint64_t vpn)
    {
        Leaf *leaf = findLeaf(vpn >> leafBits);
        const std::size_t i = slotOf(vpn);
        if (!leaf || !leaf->present(i))
            return;
        leaf->bits &= ~(std::uint64_t(1) << i);
        leaf->ptes[i] = Pte{};
        --size_;
    }

    /** Number of installed entries. */
    std::size_t size() const { return size_; }

    /**
     * Visit every installed (vpn, pte) in ascending vpn order (the
     * model checker hashes this order). The callback may mutate the
     * PTE but must not install or remove entries.
     */
    void
    forEach(const std::function<void(std::uint64_t, Pte &)> &fn)
    {
        for (const DirEntry &d : dir_) {
            const std::uint64_t base = d.index << leafBits;
            for (std::uint64_t m = d.leaf->bits; m != 0; m &= m - 1) {
                const int i = std::countr_zero(m);
                fn(base + std::uint64_t(i), d.leaf->ptes[std::size_t(i)]);
            }
        }
    }

  private:
    struct Leaf
    {
        std::array<Pte, leafEntries> ptes;
        /** Bit i set: slot i holds an installed entry. */
        std::uint64_t bits = 0;

        bool present(std::size_t i) const { return (bits >> i) & 1; }
    };

    struct DirEntry
    {
        std::uint64_t index;
        std::unique_ptr<Leaf> leaf;
    };

    static std::size_t
    slotOf(std::uint64_t vpn)
    {
        return std::size_t(vpn & (leafEntries - 1));
    }

    std::vector<DirEntry>::const_iterator
    lowerBound(std::uint64_t index) const
    {
        return std::lower_bound(
            dir_.begin(), dir_.end(), index,
            [](const DirEntry &d, std::uint64_t i) { return d.index < i; });
    }

    Leaf *
    findLeaf(std::uint64_t index) const
    {
        auto it = lowerBound(index);
        return it != dir_.end() && it->index == index ? it->leaf.get()
                                                      : nullptr;
    }

    Pte *
    installed(std::uint64_t vpn) const
    {
        Leaf *leaf = findLeaf(vpn >> leafBits);
        const std::size_t i = slotOf(vpn);
        return leaf && leaf->present(i) ? &leaf->ptes[i] : nullptr;
    }

    Leaf &
    touchLeaf(std::uint64_t index)
    {
        auto it = lowerBound(index);
        if (it == dir_.end() || it->index != index)
            it = dir_.insert(it, DirEntry{index, std::make_unique<Leaf>()});
        return *it->leaf;
    }

    /** Leaves, sorted by leaf index (vpn >> leafBits). */
    std::vector<DirEntry> dir_;
    std::size_t size_ = 0;
};

} // namespace shrimp::vm

#endif // SHRIMP_VM_PAGE_TABLE_HH
