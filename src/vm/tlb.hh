/**
 * @file
 * A small fully-associative TLB with LRU replacement.
 *
 * Caches Pte pointers into the active page table. The TLB is flushed
 * on context switch (no ASIDs, like the era's x86) and individual
 * pages are shot down by the kernel before it changes a mapping.
 */

#ifndef SHRIMP_VM_TLB_HH
#define SHRIMP_VM_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace shrimp::vm
{

/** Translation lookaside buffer. */
class Tlb
{
  public:
    explicit Tlb(std::size_t entries = 64) : capacity_(entries) {}

    /** Look up a vpn; returns the cached PTE pointer or nullptr. */
    Pte *
    lookup(std::uint64_t vpn)
    {
        for (auto &e : slots_) {
            if (e.vpn == vpn) {
                e.lastUse = ++useClock_;
                ++hits_;
                return e.pte;
            }
        }
        ++misses_;
        return nullptr;
    }

    /** The cached PTE pointer of @p vpn, or nullptr; counts
     *  nothing and leaves the LRU order alone. */
    Pte *
    peek(std::uint64_t vpn) const
    {
        for (const auto &e : slots_) {
            if (e.vpn == vpn)
                return e.pte;
        }
        return nullptr;
    }

    /**
     * @p n more lookups of @p vpn that hit: what n lookup() calls do
     * when the TLB holds it, in one step (n hits and n LRU ticks).
     * @return the cached PTE pointer; nullptr, counting nothing, when
     *         the TLB does not hold @p vpn.
     */
    Pte *
    repeatHit(std::uint64_t vpn, std::uint64_t n)
    {
        for (auto &e : slots_) {
            if (e.vpn == vpn) {
                useClock_ += n;
                e.lastUse = useClock_;
                hits_ += n;
                return e.pte;
            }
        }
        return nullptr;
    }

    /** Insert a translation, evicting LRU if full. */
    void
    insert(std::uint64_t vpn, Pte *pte)
    {
        for (auto &e : slots_) {
            if (e.vpn == vpn) {
                e.pte = pte;
                e.lastUse = ++useClock_;
                return;
            }
        }
        if (slots_.size() < capacity_) {
            slots_.push_back({vpn, pte, ++useClock_});
            return;
        }
        auto victim = slots_.begin();
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->lastUse < victim->lastUse)
                victim = it;
        }
        *victim = {vpn, pte, ++useClock_};
    }

    /** Shoot down one page. */
    void
    invalidatePage(std::uint64_t vpn)
    {
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->vpn == vpn) {
                slots_.erase(it);
                return;
            }
        }
    }

    /** Full flush (context switch). */
    void flushAll() { slots_.clear(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t entries() const { return slots_.size(); }

  private:
    struct Slot
    {
        std::uint64_t vpn;
        Pte *pte;
        std::uint64_t lastUse;
    };

    std::size_t capacity_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<Slot> slots_;
};

} // namespace shrimp::vm

#endif // SHRIMP_VM_TLB_HH
