/**
 * @file
 * The API simulated user programs use: awaitable loads, stores,
 * computation, and syscalls, plus address helpers.
 *
 * A user program is written as:
 *
 *   sim::ProcTask program(os::UserContext &ctx) {
 *       co_await ctx.store(dest_proxy_va, nbytes);      // STORE
 *       auto st = co_await ctx.load(src_proxy_va);      // LOAD
 *       ...
 *   }
 *
 * — the two-reference UDMA initiation is literally two awaited memory
 * references, protection-checked by the simulated MMU. Each await is
 * a possible context switch; a reference that nothing pending on the
 * node can precede completes without suspending the coroutine. A
 * poll (poll()) awaits a run of loads of one word, so a spin the
 * kernel can park resumes the coroutine once, not once per load.
 */

#ifndef SHRIMP_OS_USER_CONTEXT_HH
#define SHRIMP_OS_USER_CONTEXT_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>

#include "os/user_op.hh"
#include "sim/types.hh"

namespace shrimp::os
{

class Kernel;
class Process;

/** Awaitable wrapper around one UserOp. */
class OpAwaitable
{
  public:
    OpAwaitable(Process &proc, UserOp op)
        : proc_(proc), op_(std::move(op))
    {}

    bool await_ready() const noexcept { return false; }

    /** Issue the op; false when it completed in place and the caller
     *  runs on without suspending (Kernel::issueOp). */
    bool await_suspend(std::coroutine_handle<> h);

    std::uint64_t await_resume() const { return op_.result.value; }

  protected:
    Process &proc_;
    UserOp op_;
};

/** What a poll hands back: its last word loaded and its loads. */
struct PollResult
{
    std::uint64_t word = 0;
    std::uint64_t loads = 0;
};

/** Awaitable wrapper around one UserOp::Kind::Poll. */
class PollAwaitable : public OpAwaitable
{
  public:
    using OpAwaitable::OpAwaitable;

    /** Issue the poll (Kernel::issuePoll). */
    bool await_suspend(std::coroutine_handle<> h);

    PollResult
    await_resume() const
    {
        return {op_.result.value, op_.result.loads};
    }
};

/** Per-process handle for issuing simulated operations. */
class UserContext
{
  public:
    UserContext(Kernel &kernel, Process &proc)
        : kernel_(kernel), proc_(proc)
    {}

    // ------------------------------------------------ basic operations
    /** 64-bit load; returns the loaded value (a status word for proxy
     *  addresses). */
    OpAwaitable
    load(Addr va)
    {
        UserOp op;
        op.kind = UserOp::Kind::Load;
        op.vaddr = va;
        return OpAwaitable(proc_, std::move(op));
    }

    /**
     * Spin on the word at @p va: 64-bit loads, each timed, translated
     * and counted exactly like a load(). Returns the last word loaded
     * and how many loads it took. While the spin is the only thing
     * left to happen on the node, its loads run as one parked stream
     * and the coroutine resumes only once the word matches or the
     * process must switch; otherwise a poll is a single load. Either
     * way the word may still differ from @p expected, and the caller
     * polls again.
     */
    PollAwaitable
    poll(Addr va, std::uint64_t expected)
    {
        UserOp op;
        op.kind = UserOp::Kind::Poll;
        op.vaddr = va;
        op.value = expected;
        return PollAwaitable(proc_, std::move(op));
    }

    /** 64-bit store. */
    OpAwaitable
    store(Addr va, std::uint64_t value)
    {
        UserOp op;
        op.kind = UserOp::Kind::Store;
        op.vaddr = va;
        op.value = value;
        return OpAwaitable(proc_, std::move(op));
    }

    /** Retire @p instructions of (cached) computation. */
    OpAwaitable
    compute(std::uint64_t instructions)
    {
        UserOp op;
        op.kind = UserOp::Kind::Compute;
        op.value = instructions;
        return OpAwaitable(proc_, std::move(op));
    }

    /** Voluntarily yield the CPU. */
    OpAwaitable
    yield()
    {
        UserOp op;
        op.kind = UserOp::Kind::Yield;
        return OpAwaitable(proc_, std::move(op));
    }

    /** Trap into the kernel with an arbitrary service body. */
    OpAwaitable
    syscall(std::function<void(Kernel &, Process &, SyscallControl &)> fn)
    {
        UserOp op;
        op.kind = UserOp::Kind::Syscall;
        op.syscall = std::move(fn);
        return OpAwaitable(proc_, std::move(op));
    }

    // -------------------------------------------------- named syscalls
    /**
     * Allocate a demand-paged virtual memory region.
     * @return the region's base virtual address.
     */
    OpAwaitable sysAllocMemory(std::uint64_t bytes, bool writable = true);

    /**
     * Map @p n_pages of device @p device's proxy window, starting at
     * device proxy page @p first_page, into this process.
     * @return the virtual address of the first mapped proxy page
     *         (0 on refusal).
     */
    OpAwaitable sysMapDeviceProxy(unsigned device,
                                  std::uint64_t first_page,
                                  std::uint64_t n_pages, bool writable);

    // ------------------------------------------------- address helpers
    /** PROXY(): virtual address -> virtual memory-proxy address. */
    Addr proxyAddr(Addr va, unsigned device) const;

    /** Page size of the machine. */
    std::uint32_t pageBytes() const;

    Kernel &kernel() { return kernel_; }
    Process &process() { return proc_; }

  private:
    Kernel &kernel_;
    Process &proc_;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_USER_CONTEXT_HH
