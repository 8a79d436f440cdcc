/**
 * @file
 * Swap space for paged-out virtual pages.
 *
 * The kernel's page daemon writes (cleans) dirty pages here and reads
 * them back on a page-in fault. Keyed by (pid, virtual page number)
 * through an open-addressing hash index (linear probing, at most half
 * full) that maps each key to a page-sized image slot. Slots are
 * allocated once and never move; dropProcess returns a process's
 * slots to a free list that later stores reuse, so a steady paging
 * workload stops allocating once every page has been swapped once.
 * store() and load() copy the image exactly once, between the
 * caller's buffer (a physical frame) and the slot. Purely functional;
 * the kernel charges swap latency.
 */

#ifndef SHRIMP_MEM_BACKING_STORE_HH
#define SHRIMP_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::mem
{

/** Per-node swap area. */
class BackingStore
{
  public:
    explicit BackingStore(std::uint32_t page_bytes)
        : pageBytes_(page_bytes), index_(64)
    {}

    /** True if a page image exists for (pid, vpn). */
    bool
    contains(Pid pid, std::uint64_t vpn) const
    {
        return index_[probe(pid, vpn)].pid != invalidPid;
    }

    /** Store a page image, replacing any previous version in place. */
    void
    store(Pid pid, std::uint64_t vpn, const std::uint8_t *data)
    {
        SHRIMP_ASSERT(pid != invalidPid, "swap key needs a pid");
        std::size_t i = probe(pid, vpn);
        if (index_[i].pid == invalidPid) {
            if (2 * (used_ + 1) > index_.size()) {
                grow();
                i = probe(pid, vpn);
            }
            index_[i] = Entry{pid, vpn, takeSlot()};
            ++used_;
        }
        std::memcpy(images_[index_[i].slot].get(), data, pageBytes_);
        ++writes_;
    }

    /** Load a page image. Checked error if absent. */
    void
    load(Pid pid, std::uint64_t vpn, std::uint8_t *out) const
    {
        const Entry &e = index_[probe(pid, vpn)];
        if (e.pid == invalidPid)
            panic("backing store miss pid=", pid, " vpn=", vpn);
        std::memcpy(out, images_[e.slot].get(), pageBytes_);
        ++reads_;
    }

    /** Discard all images belonging to a process (exit); their slots
     *  are kept for reuse. */
    void
    dropProcess(Pid pid)
    {
        std::size_t i = 0;
        while (i < index_.size()) {
            if (index_[i].pid == pid) {
                freeSlots_.push_back(index_[i].slot);
                erase(i); // refills cell i: look at it again
            } else {
                ++i;
            }
        }
    }

    /** Page images currently held. */
    std::size_t pages() const { return used_; }
    /** Image slots ever allocated (held + free). */
    std::size_t slots() const { return images_.size(); }

    std::uint64_t pageWrites() const { return writes_; }
    std::uint64_t pageReads() const { return reads_; }

  private:
    /** One index cell; pid == invalidPid marks it empty. */
    struct Entry
    {
        Pid pid = invalidPid;
        std::uint64_t vpn = 0;
        std::uint32_t slot = 0;
    };

    std::size_t
    home(Pid pid, std::uint64_t vpn) const
    {
        std::uint64_t h = (vpn ^ (std::uint64_t(pid) << 40))
                          * 0x9E3779B97F4A7C15ull;
        return std::size_t(h >> 32) & (index_.size() - 1);
    }

    /** The cell holding (pid, vpn), or the empty cell ending its probe
     *  run. The index is never full, so the scan terminates. */
    std::size_t
    probe(Pid pid, std::uint64_t vpn) const
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = home(pid, vpn);
        while (index_[i].pid != invalidPid
               && (index_[i].pid != pid || index_[i].vpn != vpn))
            i = (i + 1) & mask;
        return i;
    }

    /** Backward-shift deletion: empty cell @p i and pull later members
     *  of its probe run into the gap, so probes need no tombstones. */
    void
    erase(std::size_t i)
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask;
            if (index_[j].pid == invalidPid)
                break;
            // Move j back unless its home lies cyclically in (i, j].
            const std::size_t h = home(index_[j].pid, index_[j].vpn);
            if (((j - h) & mask) >= ((j - i) & mask)) {
                index_[i] = index_[j];
                i = j;
            }
        }
        index_[i] = Entry{};
        --used_;
    }

    void
    grow()
    {
        std::vector<Entry> old(2 * index_.size());
        old.swap(index_);
        for (const Entry &e : old) {
            if (e.pid != invalidPid)
                index_[probe(e.pid, e.vpn)] = e;
        }
    }

    std::uint32_t
    takeSlot()
    {
        if (!freeSlots_.empty()) {
            std::uint32_t s = freeSlots_.back();
            freeSlots_.pop_back();
            return s;
        }
        images_.push_back(std::make_unique<std::uint8_t[]>(pageBytes_));
        return std::uint32_t(images_.size() - 1);
    }

    std::uint32_t pageBytes_;
    /** Power-of-two size, at most half full. */
    std::vector<Entry> index_;
    std::size_t used_ = 0;
    std::vector<std::unique_ptr<std::uint8_t[]>> images_;
    std::vector<std::uint32_t> freeSlots_;
    mutable std::uint64_t writes_ = 0;
    mutable std::uint64_t reads_ = 0;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_BACKING_STORE_HH
