/**
 * @file
 * Zero-filled host memory that the host commits on first touch.
 *
 * Every simulated node owns megabytes of DRAM and its NI board a
 * 512 KiB NIPT, and a run touches a few hundred of their pages. A
 * private anonymous mapping hands the zero-filling to the host
 * kernel: each page reads as zeros and takes host memory only once
 * written, so the simulator's resident set follows the pages a run
 * touches, not the memory sizes it configures.
 */

#ifndef SHRIMP_SIM_ZERO_PAGES_HH
#define SHRIMP_SIM_ZERO_PAGES_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/logging.hh"

namespace shrimp::sim
{

/**
 * @p bytes of zeros, owned like a unique_ptr: move-only, and the
 * mapping is released on destruction. Zero bytes map nothing.
 */
class ZeroPages
{
  public:
    explicit ZeroPages(std::size_t bytes) : size_(bytes)
    {
        if (bytes == 0)
            return;
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            fatal("cannot map ", bytes, " bytes of host memory");
#ifdef MADV_NOHUGEPAGE
        // A transparent huge page would commit 2 MiB on its first
        // touch; the hint is advisory, so a refusal changes nothing.
        (void)madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
        data_ = static_cast<std::uint8_t *>(p);
    }

    ZeroPages(ZeroPages &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {}

    ZeroPages &
    operator=(ZeroPages &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        return *this;
    }

    ~ZeroPages()
    {
        if (data_)
            munmap(data_, size_);
    }

    std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_ZERO_PAGES_HH
