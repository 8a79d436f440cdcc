/**
 * @file
 * A simulated user process: an address space plus a coroutine body.
 */

#ifndef SHRIMP_OS_PROCESS_HH
#define SHRIMP_OS_PROCESS_HH

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include <functional>
#include <memory>

#include "os/user_op.hh"
#include "sim/coro.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace shrimp::os
{

class Kernel;
class OpAwaitable;
class UserContext;

/**
 * A user program: a coroutine body taking the process's context. The
 * Process owns this callable for its whole life, because a coroutine
 * created from a lambda stores only a *reference* to the closure —
 * the closure object (and hence the captures) must outlive the frame.
 */
using UserProgram = std::function<sim::ProcTask(UserContext &)>;

/** Scheduler states. */
enum class ProcState
{
    Embryo,  ///< created, never run
    Ready,   ///< runnable, waiting for the CPU
    Running, ///< owns the CPU
    Blocked, ///< waiting for an event (e.g. a kernel DMA interrupt)
    Zombie,  ///< exited (or killed); kept for inspection
};

/** A virtual memory region granted to the process. */
struct VmRegion
{
    Addr base = 0;
    std::uint64_t len = 0;
    bool writable = true;
};

/** One simulated process. */
class Process
{
  public:
    Process(Kernel &kernel, Pid pid, std::string name);
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }
    ProcState state() const { return state_; }
    bool killed() const { return killed_; }
    const std::string &killReason() const { return killReason_; }

    vm::PageTable &pageTable() { return pageTable_; }
    const vm::PageTable &pageTable() const { return pageTable_; }

    /** The region containing @p va, or nullptr. */
    const VmRegion *
    regionFor(Addr va) const
    {
        for (const auto &r : regions_) {
            if (va >= r.base && va < r.base + r.len)
                return &r;
        }
        return nullptr;
    }

    /** Ticks this process has spent as the running process. */
    Tick cpuTicks() const { return cpuTicks_; }

    /** Times this process was preempted by quantum expiry. */
    std::uint64_t preemptions() const { return preemptions_; }

    /** Propagate any exception out of the process body (tests). */
    void rethrowIfFailed() const { task_.rethrowIfFailed(); }

    /** True once the coroutine body has run to completion. */
    bool exited() const { return task_.valid() && task_.done(); }

    /**
     * Run @p revoke when the process exits or is killed, before its
     * frames are freed: how a grant that names one of its physical
     * pages (an automatic-update binding) dies with the process
     * instead of passing to the frame's next owner.
     */
    void
    onRelease(std::function<void()> revoke)
    {
        releaseActions_.push_back(std::move(revoke));
    }

  private:
    friend class Kernel;
    friend class OpAwaitable;
    friend class PollAwaitable;
    friend class UserContext;

    Kernel &kernel_;
    Pid pid_;
    std::string name_;
    ProcState state_ = ProcState::Embryo;
    vm::PageTable pageTable_;
    std::vector<VmRegion> regions_;
    Addr nextRegionBase_ = 0x10000;

    std::unique_ptr<UserContext> ctx_;
    UserProgram program_;
    sim::ProcTask task_;
    bool started_ = false;
    std::coroutine_handle<> resumePoint_;
    UserOp *pendingOp_ = nullptr;

    bool killed_ = false;
    std::string killReason_;
    /** A wake() arrived before the block took effect (the classic
     *  sleep/wakeup race); consume it instead of blocking. */
    bool wakePending_ = false;

    Tick cpuTicks_ = 0;
    Tick lastDispatch_ = 0;
    std::uint64_t preemptions_ = 0;

    /** Revocations run by Kernel::releaseProcessMemory. */
    std::vector<std::function<void()>> releaseActions_;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_PROCESS_HH
