#include "os/user_context.hh"

#include "os/kernel.hh"
#include "os/process.hh"

namespace shrimp::os
{

bool
OpAwaitable::await_suspend(std::coroutine_handle<> h)
{
    return proc_.kernel_.issueOp(proc_, &op_, h);
}

bool
PollAwaitable::await_suspend(std::coroutine_handle<> h)
{
    return proc_.kernel_.issuePoll(proc_, &op_, h);
}

OpAwaitable
UserContext::sysAllocMemory(std::uint64_t bytes, bool writable)
{
    return syscall(
        [bytes, writable](Kernel &k, Process &p, SyscallControl &sc) {
            sc.extraLatency = k.params().instrTicks(120);
            sc.result = k.allocRegion(p, bytes, writable);
        });
}

OpAwaitable
UserContext::sysMapDeviceProxy(unsigned device, std::uint64_t first_page,
                               std::uint64_t n_pages, bool writable)
{
    return syscall([device, first_page, n_pages, writable](
                       Kernel &k, Process &p, SyscallControl &sc) {
        Tick lat = 0;
        sc.result = k.mapDeviceProxy(p, device, first_page, n_pages,
                                     writable, lat);
        sc.extraLatency = lat;
    });
}

Addr
UserContext::proxyAddr(Addr va, unsigned device) const
{
    return kernel_.layout().proxy(va, device);
}

std::uint32_t
UserContext::pageBytes() const
{
    return kernel_.layout().pageBytes();
}

} // namespace shrimp::os
