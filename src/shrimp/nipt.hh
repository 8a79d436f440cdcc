/**
 * @file
 * The Network Interface Page Table (paper Section 8).
 *
 * "All potential message destinations are stored in the Network
 * Interface Page Table (NIPT), each entry of which specifies a remote
 * node and a physical memory page on that node. ... Since the NIPT is
 * indexed with 15 bits, it can hold 32K different destination pages."
 *
 * A device proxy address on the SHRIMP NI is (proxy page number,
 * offset); the low 15 bits of the page number index this table.
 *
 * The 512 KiB table lives in sim::ZeroPages, whose untouched pages
 * read as zeros, and an all-zero entry is an invalid one: a fresh
 * table is all invalid and takes host memory only for the pages of
 * entries the kernel has programmed.
 */

#ifndef SHRIMP_SHRIMP_NIPT_HH
#define SHRIMP_SHRIMP_NIPT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "sim/zero_pages.hh"

namespace shrimp::net
{

/** One NIPT entry: a remote destination page. */
struct NiptEntry
{
    bool valid = false;
    NodeId dstNode = 0;
    /** Physical page number on the destination node. */
    std::uint64_t dstPage = 0;
};

// The table's entries are zero pages that nothing constructs.
static_assert(std::is_trivially_copyable_v<NiptEntry>,
              "entries are never constructed");
static_assert(!std::bit_cast<NiptEntry>(
                   std::array<std::uint8_t, sizeof(NiptEntry)>{})
                   .valid,
              "an all-zero entry is an invalid one");

/** The 32K-entry table on the NI board. */
class Nipt
{
  public:
    static constexpr std::size_t indexBits = 15;
    static constexpr std::size_t numEntries = std::size_t(1) << indexBits;

    Nipt() : table_(numEntries * sizeof(NiptEntry)) {}

    const NiptEntry &
    get(std::size_t idx) const
    {
        return entries()[idx & (numEntries - 1)];
    }

    /** Kernel control plane: program an entry. */
    void
    set(std::size_t idx, NodeId node, std::uint64_t dst_page)
    {
        auto &e = at(idx);
        e.valid = true;
        e.dstNode = node;
        e.dstPage = dst_page;
    }

    /** Kernel control plane: revoke an entry. */
    void
    clear(std::size_t idx)
    {
        at(idx) = NiptEntry();
    }

    /**
     * Allocate @p n consecutive free entries (sender proxy pages for a
     * contiguous remote buffer must be contiguous in the window).
     * Returns the first index, or numEntries if no run exists.
     */
    std::size_t
    allocateRun(std::size_t n)
    {
        if (n == 0 || n > numEntries)
            return numEntries;
        std::size_t run = 0;
        for (std::size_t i = 0; i < numEntries; ++i) {
            run = entries()[i].valid ? 0 : run + 1;
            if (run == n)
                return i + 1 - n;
        }
        return numEntries;
    }

    std::size_t
    validEntries() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < numEntries; ++i)
            n += entries()[i].valid ? 1 : 0;
        return n;
    }

  private:
    NiptEntry *
    entries() const
    {
        return reinterpret_cast<NiptEntry *>(table_.data());
    }

    NiptEntry &
    at(std::size_t idx)
    {
        SHRIMP_ASSERT(idx < numEntries, "NIPT index ", idx,
                      " out of range");
        return entries()[idx];
    }

    sim::ZeroPages table_;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_NIPT_HH
