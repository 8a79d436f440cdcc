/**
 * @file
 * Proxy-translation cache for the UDMA initiation path.
 *
 * The paper's whole point is that initiating a transfer is two user
 * memory references — PROXY(v) stores — so the simulator's hot path is
 * translating those proxy virtual addresses over and over. This cache
 * memoizes PROXY(v) -> PTE on the kernel's issue path, skipping the
 * MMU's TLB probe and page-table walk for repeat references.
 *
 * It is a model-level (host-side) cache: a hit is architecturally
 * equivalent to a warm TLB hit and charges no extra simulated time.
 *
 * Coherence contract (invariant I2): entries point at PTE slots inside
 * the owning process's page table. Slots live in leaves that never
 * move, so the pointers stay valid for the table's lifetime.
 * Permission bits are re-read on every hit, so in-place PTE mutations
 * (I3 write-protect, write upgrades) need no invalidation. The hazard
 * is PTE *removal*: the kernel invalidates the cache on exactly the
 * paths that remove proxy PTEs — the I2 shootdown
 * (Kernel::invalidateProxyMappings) and process-memory release. A
 * removed slot reads valid == false, so an entry that outlives a
 * missed shootdown misses and the access re-faults; it never reads
 * freed memory or the old mapping. The invariant auditor still
 * cross-checks every entry against the page table by pointer
 * identity (lookup() returns nullptr for a removed vpn), and the
 * no-tcache-shootdown seeded mutation demonstrates the counterexample.
 */

#ifndef SHRIMP_OS_PROXY_TCACHE_HH
#define SHRIMP_OS_PROXY_TCACHE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/types.hh"
#include "vm/page_table.hh"

namespace shrimp::os
{

/** Direct-mapped (pid, vpn) -> PTE cache; see the file comment. */
class ProxyTranslationCache
{
  public:
    /** One cached translation; pte == nullptr means empty. */
    struct Entry
    {
        Pid pid = invalidPid;
        std::uint64_t vpn = 0;
        vm::Pte *pte = nullptr;
    };

    /** Direct-mapped size; power of two. */
    static constexpr std::size_t numEntries = 256;

    /**
     * Probe for (pid, vpn). Returns the cached PTE only if it is
     * present, valid, user-accessible, and writable when @p is_write —
     * permission bits are re-read from the PTE on every hit, so
     * in-place downgrades (I3 write-protect) take effect immediately.
     * Counts a hit only when it returns non-null; misses are counted
     * by insert(), so memory (non-proxy) traffic never dilutes the
     * hit rate.
     */
    vm::Pte *
    lookup(Pid pid, std::uint64_t vpn, bool is_write)
    {
        Entry &e = slots_[index(pid, vpn)];
        if (e.pte && e.pid == pid && e.vpn == vpn && e.pte->valid
                && e.pte->user && (!is_write || e.pte->writable)) {
            ++hits_;
            return e.pte;
        }
        return nullptr;
    }

    /** Record a translation the slow path just resolved. */
    void
    insert(Pid pid, std::uint64_t vpn, vm::Pte *pte)
    {
        ++misses_;
        slots_[index(pid, vpn)] = Entry{pid, vpn, pte};
    }

    /** Drop (pid, vpn) — the PTE is about to be removed (I2). */
    void
    invalidate(Pid pid, std::uint64_t vpn)
    {
        Entry &e = slots_[index(pid, vpn)];
        if (e.pte && e.pid == pid && e.vpn == vpn)
            e.pte = nullptr;
    }

    /** Drop every entry of one process (exit/kill). */
    void
    invalidatePid(Pid pid)
    {
        for (Entry &e : slots_) {
            if (e.pid == pid)
                e.pte = nullptr;
        }
    }

    /** Drop everything. */
    void
    clear()
    {
        for (Entry &e : slots_)
            e.pte = nullptr;
    }

    /** Visit every occupied entry (invariant auditing). */
    void
    forEach(const std::function<void(const Entry &)> &fn) const
    {
        for (const Entry &e : slots_) {
            if (e.pte)
                fn(e);
        }
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static std::size_t
    index(Pid pid, std::uint64_t vpn)
    {
        // Cheap mix; pid in the high bits so processes sharing vpn
        // ranges don't collide systematically.
        std::uint64_t h = vpn ^ (std::uint64_t(pid) << 7);
        h ^= h >> 11;
        return std::size_t(h) & (numEntries - 1);
    }

    std::array<Entry, numEntries> slots_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_PROXY_TCACHE_HH
