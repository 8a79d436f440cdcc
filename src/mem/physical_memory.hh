/**
 * @file
 * Simulated physical memory: a flat, frame-granular byte store.
 *
 * Every node owns one PhysicalMemory. The kernel's frame allocator and
 * the DMA engines address it with physical byte addresses in
 * [0, size()). Timing is charged by the callers (CPU, bus, DMA
 * engines); this class is purely functional state.
 */

#ifndef SHRIMP_MEM_PHYSICAL_MEMORY_HH
#define SHRIMP_MEM_PHYSICAL_MEMORY_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::mem
{

/** Flat simulated DRAM. */
class PhysicalMemory
{
  public:
    /**
     * @param bytes Total memory size; must be a multiple of @p
     *        page_bytes.
     * @param page_bytes Frame size (the VM page size); a power of two.
     */
    PhysicalMemory(std::uint64_t bytes, std::uint32_t page_bytes)
        : pageBytes_(page_bytes), data_(bytes, 0)
    {
        if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
            fatal("page size must be a power of two");
        if (bytes % page_bytes != 0)
            fatal("physical memory size ", bytes,
                  " is not a multiple of the page size ", page_bytes);
        pageShift_ = unsigned(std::countr_zero(page_bytes));
    }

    std::uint64_t size() const { return data_.size(); }
    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint64_t frames() const { return size() >> pageShift_; }

    /** Raw byte access for DMA engines and the CPU's data path. */
    void
    readBytes(Addr addr, void *dst, std::uint64_t len) const
    {
        checkRange(addr, len);
        std::memcpy(dst, data_.data() + addr, len);
    }

    void
    writeBytes(Addr addr, const void *src, std::uint64_t len)
    {
        checkRange(addr, len);
        std::memcpy(data_.data() + addr, src, len);
    }

    /** Typed scalar access (little-endian host layout). */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        readBytes(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, T v)
    {
        writeBytes(addr, &v, sizeof(T));
    }

    /** Zero one whole frame (used for demand-zero pages). */
    void
    zeroFrame(std::uint64_t frame)
    {
        std::memset(frameBytes(frame), 0, pageBytes_);
    }

    /** The bytes of one whole frame, for page-sized copies to and from
     *  swap without a staging buffer. */
    std::uint8_t *
    frameBytes(std::uint64_t frame)
    {
        SHRIMP_ASSERT(frame < frames(), "bad frame");
        return data_.data() + frameAddr(frame);
    }

    /** Base physical address of a frame. */
    Addr frameAddr(std::uint64_t frame) const { return frame << pageShift_; }

    /** Frame containing a physical address. */
    std::uint64_t frameOf(Addr addr) const { return addr >> pageShift_; }

  private:
    void
    checkRange(Addr addr, std::uint64_t len) const
    {
        if (addr > data_.size() || len > data_.size() - addr)
            panic("physical access out of range: addr=", addr,
                  " len=", len, " size=", data_.size());
    }

    std::uint32_t pageBytes_;
    unsigned pageShift_ = 0;
    std::vector<std::uint8_t> data_;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_PHYSICAL_MEMORY_HH
