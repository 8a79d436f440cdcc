/**
 * @file
 * The proxy-space address map (paper Figures 2 and 3).
 *
 * Both the virtual and the physical address space are carved into:
 *
 *   [0, memBytes)                      real memory
 *   memProxyBase(d) + [0, memBytes)    memory proxy space of device d
 *   devProxyBase(d) + [0, stride)      device proxy space of device d
 *
 * PROXY(a) = a + memProxyBase(d) is the paper's one-to-one association
 * between real addresses and memory-proxy addresses ("a fixed offset
 * from the real memory space" -- Section 5); PROXY^-1 subtracts it.
 *
 * Design note: the paper describes a single UDMA device and hence a
 * single memory proxy region. To support several UDMA devices on one
 * node without bus-snooping ambiguity, we give each device its own
 * (memory proxy, device proxy) region pair; the mechanism within a
 * pair is exactly the paper's.
 */

#ifndef SHRIMP_VM_LAYOUT_HH
#define SHRIMP_VM_LAYOUT_HH

#include <bit>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::vm
{

/** Which architectural region an address falls in. */
enum class Space
{
    Memory,   ///< real memory
    MemProxy, ///< memory proxy space of some device
    DevProxy, ///< device proxy space of some device
    Invalid,  ///< unmapped hole
};

/** A decoded address. */
struct Decoded
{
    Space space = Space::Invalid;
    /** Device index for MemProxy/DevProxy spaces. */
    unsigned device = 0;
    /**
     * For MemProxy: the associated real address (PROXY^-1 applied).
     * For DevProxy: the offset within the device proxy window.
     * For Memory: the address itself.
     */
    Addr offset = 0;
};

/** The region map shared by virtual and physical address spaces. */
class AddressLayout
{
  public:
    /** Size of each region slot; also the max memory size. 1 GB. */
    static constexpr Addr regionStride = Addr(1) << 30;

    AddressLayout(std::uint64_t mem_bytes, std::uint32_t page_bytes,
                  unsigned max_devices)
        : memBytes_(mem_bytes), pageBytes_(page_bytes),
          maxDevices_(max_devices)
    {
        if (mem_bytes > regionStride)
            fatal("memory larger than the region stride");
        if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
            fatal("page size must be a power of two");
        pageShift_ = unsigned(std::countr_zero(page_bytes));
    }

    std::uint64_t memBytes() const { return memBytes_; }
    std::uint32_t pageBytes() const { return pageBytes_; }
    unsigned maxDevices() const { return maxDevices_; }

    /** Base of device @p d's memory proxy region. */
    Addr
    memProxyBase(unsigned d) const
    {
        SHRIMP_ASSERT(d < maxDevices_, "bad device index");
        return regionStride * (1 + 2 * Addr(d));
    }

    /** Base of device @p d's device proxy region. */
    Addr
    devProxyBase(unsigned d) const
    {
        SHRIMP_ASSERT(d < maxDevices_, "bad device index");
        return regionStride * (2 + 2 * Addr(d));
    }

    /** PROXY(): real address -> memory proxy address for device d. */
    Addr
    proxy(Addr real, unsigned d) const
    {
        SHRIMP_ASSERT(real < regionStride, "not a real address");
        return real + memProxyBase(d);
    }

    /** PROXY^-1(): memory proxy address -> real address. */
    Addr
    unproxy(Addr proxy_addr, unsigned d) const
    {
        Addr base = memProxyBase(d);
        SHRIMP_ASSERT(proxy_addr >= base &&
                          proxy_addr < base + regionStride,
                      "not in device's memory proxy region");
        return proxy_addr - base;
    }

    /** Classify an address (virtual or physical; the map is shared). */
    Decoded
    decode(Addr a) const
    {
        Decoded d;
        if (a < regionStride) {
            d.space = Space::Memory;
            d.offset = a;
            return d;
        }
        Addr slot = a / regionStride - 1;
        unsigned device = unsigned(slot / 2);
        if (device >= maxDevices_)
            return d; // Invalid
        d.device = device;
        d.offset = a % regionStride;
        d.space = (slot % 2 == 0) ? Space::MemProxy : Space::DevProxy;
        return d;
    }

    /** Page number of an address. */
    std::uint64_t pageOf(Addr a) const { return a >> pageShift_; }

    /** Offset within a page. */
    std::uint64_t pageOffset(Addr a) const { return a & (pageBytes_ - 1); }

    /** Base address of the page containing @p a. */
    Addr pageBase(Addr a) const { return a & ~Addr(pageBytes_ - 1); }

    /** Bytes from @p a to the end of its page. */
    std::uint64_t
    bytesToPageEnd(Addr a) const
    {
        return pageBytes_ - pageOffset(a);
    }

  private:
    std::uint64_t memBytes_;
    std::uint32_t pageBytes_;
    /** log2(pageBytes_): page math is a shift and a mask. */
    unsigned pageShift_ = 0;
    unsigned maxDevices_;
};

} // namespace shrimp::vm

#endif // SHRIMP_VM_LAYOUT_HH
