/**
 * @file
 * The per-node operating system kernel.
 *
 * Implements exactly the support the paper's Section 6 asks of the OS,
 * on top of a conventional process/VM substrate:
 *
 *  - I1 (atomicity): the context-switch path issues a hardware Inval
 *    (one STORE of a negative byte count) to every UDMA controller, so
 *    a partially-initiated (STORE without LOAD) sequence can never be
 *    completed by another process.
 *  - I2 (mapping consistency): memory-proxy mappings are created on
 *    demand by the page-fault handler, only when the corresponding
 *    real mapping is valid, and are invalidated whenever the real
 *    mapping changes (page-out, exit).
 *  - I3 (content consistency): a proxy page is writable only if its
 *    real page is dirty; a write fault on a read-only proxy page marks
 *    the real page dirty and upgrades the proxy mapping; cleaning a
 *    page write-protects the proxy mapping again.
 *  - I4 (register consistency): the pageout path queries every UDMA
 *    controller (registers + Section 7 queue/reference counts) and
 *    never evicts a page involved in a transfer; a latched-but-unfired
 *    DESTINATION is cleared with an Inval, as the paper allows. A
 *    process that exits or is killed keeps such frames until no
 *    controller names them, so a transfer never writes a frame that
 *    has been handed to another process.
 *
 * The kernel also provides the services the *traditional* DMA baseline
 * needs — per-page translation, pinning, scatter list construction,
 * blocking, and interrupt wakeups — so the baseline's cost structure
 * (syscall + translate + pin + descriptor + interrupt + unpin) is
 * built from the same primitives.
 */

#ifndef SHRIMP_OS_KERNEL_HH
#define SHRIMP_OS_KERNEL_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bus/io_bus.hh"
#include "dma/udma_controller.hh"
#include "mem/backing_store.hh"
#include "mem/physical_memory.hh"
#include "os/process.hh"
#include "os/proxy_tcache.hh"
#include "os/user_context.hh"
#include "os/user_op.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"
#include "vm/mmu.hh"

namespace shrimp::os
{

/**
 * Kernel events the invariant auditor can hook (check/monitor.hh).
 * Fired synchronously at the points where the Section 6 invariants
 * must hold: after a context switch, after a page fault is repaired,
 * after a page-out, and (via the controller's completion observer)
 * after a DMA completion.
 */
enum class KernelEvent
{
    ContextSwitch,
    PageFault,
    PageOut,
    DmaComplete,
};

const char *kernelEventName(KernelEvent ev);

/**
 * Seeded-mutation knobs for the invariant checker: each switch
 * disables exactly one of the kernel actions that maintain a Section 6
 * invariant, so the auditor and the model checker can demonstrate the
 * corresponding counterexample. All default off; production code never
 * sets them.
 */
struct MutationKnobs
{
    /** I1: do not Inval controllers on a context switch. */
    bool skipInvalOnSwitch = false;
    /** I2: leave proxy mappings standing when the real page goes. */
    bool skipProxyShootdown = false;
    /** I3: do not write-protect proxy mappings when cleaning. */
    bool skipProxyWriteProtect = false;
    /** I4: evict pages even while a transfer references them. */
    bool ignoreI4PageBusy = false;
    /** I2: leave proxy-translation-cache entries standing when the
     *  proxy PTE they point at is shot down. */
    bool skipTcacheShootdown = false;

    bool
    any() const
    {
        return skipInvalOnSwitch || skipProxyShootdown
               || skipProxyWriteProtect || ignoreI4PageBusy
               || skipTcacheShootdown;
    }
};

/**
 * Which of the paper's two content-consistency schemes the kernel
 * runs (Section 6, "Maintaining I3").
 */
enum class I3Policy
{
    /** The main scheme: a proxy page is writable only while the real
     *  page is dirty; cleaning write-protects the proxy. */
    WriteProtectProxy,
    /** The paper's alternative: proxy pages carry their own dirty
     *  bits and a page counts as dirty "if either vmem_page or
     *  PROXY(vmem_page) is dirty" — simpler invariant, more paging
     *  code. */
    ProxyDirtyBits,
};

/** The kernel of one node. */
class Kernel
{
  public:
    Kernel(sim::EventQueue &eq, const sim::MachineParams &params,
           const vm::AddressLayout &layout, mem::PhysicalMemory &memory,
           bus::IoBus &io_bus, vm::Mmu &mmu);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // ------------------------------------------------- configuration
    /** Register a UDMA controller for Inval/I4 interactions. */
    void attachController(dma::UdmaController *ctrl);

    /**
     * Register a bus snooper invoked (functionally) on every memory
     * store the CPU performs — how the SHRIMP board's automatic
     * update captures writes to bound pages. Returns true if the
     * store was captured (for statistics only; the store always also
     * hits memory).
     */
    using StoreSnooper = std::function<bool(Addr, std::uint64_t)>;
    void
    addStoreSnooper(StoreSnooper fn)
    {
        snoopers_.push_back(std::move(fn));
    }

    /**
     * Register a mappable device-proxy window for a non-UDMA device
     * (e.g. the memory-mapped FIFO NIC baseline). UDMA controllers
     * get their window registered by attachController.
     */
    void registerDeviceWindow(
        unsigned device, std::uint64_t extent_bytes,
        std::function<bool(std::uint64_t, std::uint64_t, bool)> allow =
            {});

    const std::vector<dma::UdmaController *> &
    controllers() const
    {
        return controllers_;
    }

    /** Select the Section 6 content-consistency scheme (set before
     *  any proxy mappings exist). */
    void setI3Policy(I3Policy p) { i3Policy_ = p; }
    I3Policy i3Policy() const { return i3Policy_; }

    /** Seeded-mutation knobs (invariant checker only; see
     *  MutationKnobs). */
    void setMutations(const MutationKnobs &m) { mutations_ = m; }
    const MutationKnobs &mutations() const { return mutations_; }

    /**
     * Install the invariant-audit hook, fired synchronously at every
     * KernelEvent point. One slot; pass an empty function to detach.
     */
    using AuditHook = std::function<void(KernelEvent)>;
    void setAuditHook(AuditHook hook) { auditHook_ = std::move(hook); }

    // ---------------------------------------------- process lifecycle
    /** Create a process; it becomes runnable immediately. */
    Process &spawn(std::string name, UserProgram program);

    /** Look up a process. */
    Process *findProcess(Pid pid);

    /** True when every spawned process has exited or been killed. */
    bool allProcessesDone() const;

    /** Rethrow the first failure captured in any process body. */
    void rethrowProcessFailures() const;

    // --------------------------------------------------- CPU interface
    /** Called by OpAwaitable::await_suspend; drives everything. */
    void issueOp(Process &proc, UserOp *op, std::coroutine_handle<> h);

    /** The currently running process (nullptr if the CPU is idle). */
    Process *running() const { return running_; }

    /**
     * The process on whose behalf the CPU is acting right now: the
     * running process, or the actor of a synchronous
     * performUserAccess. Controllers use this (via their owner probe)
     * to tag latched destinations for the invariant auditor.
     */
    Process *
    actor() const
    {
        return actorOverride_ ? actorOverride_ : running_;
    }

    /** Wake a Blocked process (keeps the syscall's result value). */
    void wake(Process &proc);

    /** Wake a Blocked process, overwriting its syscall result. */
    void wakeWithResult(Process &proc, std::uint64_t result);

    // ------------------------------------------------ syscall services
    /** Region allocation (named syscall body). */
    Addr allocRegion(Process &proc, std::uint64_t bytes, bool writable);

    /** Device-proxy mapping (named syscall body). Returns base va. */
    Addr mapDeviceProxy(Process &proc, unsigned device,
                        std::uint64_t first_page, std::uint64_t n_pages,
                        bool writable, Tick &lat);

    /**
     * Traditional-DMA support: translate a user range into physical
     * segments, faulting pages in as needed. Returns false (and kills
     * nothing) if the range is not fully accessible.
     */
    bool buildDmaSegments(Process &proc, Addr va, std::uint32_t nbytes,
                          bool for_write,
                          std::vector<dma::Segment> &out, Tick &lat);

    /** Pin/unpin every frame backing [va, va+nbytes). */
    bool pinRange(Process &proc, Addr va, std::uint32_t nbytes,
                  Tick &lat);
    void unpinRange(Process &proc, Addr va, std::uint32_t nbytes);

    /**
     * Export a page for incoming network DMA: fault it in, pin it,
     * mark it dirty, and return its physical address. Used by the
     * SHRIMP mapping control plane.
     */
    bool exportPage(Process &proc, Addr va, Addr &paddr_out, Tick &lat);

    // --------------------------------------------------- page daemon
    /**
     * Clean one page (write to backing store, clear dirty,
     * write-protect its proxy mappings). Refuses — returning false —
     * if a DMA involving the page is in progress (the paper's race
     * rule in Section 6, "Maintaining I3").
     */
    bool cleanPage(Process &proc, Addr va, Tick &lat);

    /**
     * Force one frame eviction (as if under memory pressure). Returns
     * true if a victim was found. Respects I2/I3/I4.
     */
    bool evictOneFrame(Tick &lat);

    /** Number of free physical frames. */
    std::size_t freeFrames() const { return freeFrames_.size(); }

    // ----------------------------------------- backdoor (tests/bench)
    /** Untimed functional write into a process's address space. */
    void pokeBytes(Process &proc, Addr va, const void *src,
                   std::uint64_t len);

    /** Untimed functional read from a process's address space. */
    void peekBytes(Process &proc, Addr va, void *dst, std::uint64_t len);

    // -------------------------------- model-checker CPU (tools/tests)
    /** Outcome of one synchronous user access. */
    struct UserAccess
    {
        bool ok = false;     ///< the access completed
        bool killed = false; ///< the fault path killed the process
        std::uint64_t value = 0; ///< loaded value (loads only)
    };

    /**
     * Perform one user LOAD/STORE synchronously and untimed, running
     * the full MMU-translate / fault-repair / proxy-dispatch path of
     * issueOp. The process must be the current address space (use
     * modelSwitchTo). This is how tools/udma_model_check drives
     * arbitrary STORE/LOAD interleavings without the scheduler.
     */
    UserAccess performUserAccess(Process &proc, Addr va, bool is_write,
                                 std::uint64_t value = 0);

    /**
     * Architectural essentials of a context switch, synchronously:
     * the per-controller Inval STOREs (invariant I1) and the address
     * space activation. Scheduler bookkeeping (queues, quanta) is not
     * touched; checker/test use only.
     */
    void modelSwitchTo(Process &proc);

    /**
     * Page the frame backing (proc, va) out right now, as the page
     * daemon would under memory pressure targeting this page.
     * Respects pins and invariant I4 exactly like evictOneFrame;
     * returns false if the page is not resident or must stay.
     */
    bool evictPage(Process &proc, Addr va, Tick &lat);

    /** Visit every process, in pid order (auditing). */
    void forEachProcess(const std::function<void(Process &)> &fn);

    /** Frame bookkeeping for replacement and I4. */
    struct FrameInfo
    {
        bool used = false;
        Pid pid = invalidPid;
        std::uint64_t vpn = 0;
        std::uint32_t pinCount = 0;
    };

    /** Read-only frame-table view (auditing). */
    const FrameInfo &
    frameInfo(std::uint64_t frame) const
    {
        return frames_.at(frame);
    }

    /** Clock-hand position of the replacement scan (state hashing). */
    std::size_t clockHand() const { return clockHand_; }

    // ------------------------------------------------------ accessors
    sim::EventQueue &eq() { return eq_; }
    /** The proxy-translation cache on the UDMA initiation path. */
    const ProxyTranslationCache &proxyTcache() const { return tcache_; }
    const sim::MachineParams &params() const { return params_; }
    const vm::AddressLayout &layout() const { return layout_; }
    mem::PhysicalMemory &memory() { return memory_; }
    bus::IoBus &ioBus() { return ioBus_; }
    vm::Mmu &mmu() { return mmu_; }
    mem::BackingStore &backingStore() { return backing_; }

    // ------------------------------------------------------ statistics
    std::uint64_t contextSwitches() const
    {
        return std::uint64_t(switches_.value());
    }
    std::uint64_t pageFaults() const
    {
        return std::uint64_t(memFaults_.value());
    }
    std::uint64_t proxyFaults() const
    {
        return std::uint64_t(proxyFaults_.value());
    }
    std::uint64_t proxyWriteUpgrades() const
    {
        return std::uint64_t(proxyUpgrades_.value());
    }
    std::uint64_t evictions() const
    {
        return std::uint64_t(evictions_.value());
    }
    std::uint64_t evictionI4Skips() const
    {
        return std::uint64_t(i4Skips_.value());
    }
    std::uint64_t processesKilled() const
    {
        return std::uint64_t(kills_.value());
    }

    /** I1: context-switch Inval STOREs issued to controllers. */
    std::uint64_t i1Invals() const
    {
        return std::uint64_t(i1Invals_.value());
    }
    /** I2: proxy PTEs removed because the real mapping changed. */
    std::uint64_t i2Shootdowns() const
    {
        return std::uint64_t(i2Shootdowns_.value());
    }
    /** I3: proxy write faults that marked the real page dirty. */
    std::uint64_t i3DirtyFaults() const
    {
        return std::uint64_t(i3DirtyFaults_.value());
    }

    /** Fault-handler latency samples (us). */
    const stats::Histogram &faultLatency() const { return faultUs_; }

    /** The kernel's registered stats ("kernel.*"). */
    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    /** What to do with the process once its op's latency elapses. */
    enum class After
    {
        Resume,
        Yield,
        Block,
        Kill,
    };

    struct FaultOutcome
    {
        Tick latency = 0;
        bool killed = false;
    };

    /**
     * The functional half of one translated LOAD/STORE, performed when
     * the reference's cpu.op event fires. Plain data, so the event's
     * capture fits EventCallback's inline buffer; a proxy reference is
     * decoded again from @c pa when performed.
     */
    struct Access
    {
        enum class Kind : std::uint8_t
        {
            None,
            Load,
            Store,
        };
        Kind kind = Kind::None;
        Addr pa = 0;
        /** Store: the datum written. */
        std::uint64_t datum = 0;
        /** Load: where the loaded value goes. */
        std::uint64_t *result = nullptr;
        /** Proxy space: the controller decoding the cycle; memory: null. */
        bus::ProxyClient *client = nullptr;
    };

    /**
     * Translate one user reference — the proxy-translation cache, else
     * MMU translation with fault repair — memoize a proxy translation,
     * and find the proxy client. Adds the TLB-miss and fault latency
     * to @p lat. Returns an access of kind None if the process was
     * killed. issueOp (timed) and performUserAccess (the model
     * checker's untimed CPU) both run it.
     */
    Access resolveAccess(Process &proc, Addr va, bool is_write,
                         std::uint64_t datum, std::uint64_t *result,
                         Tick &lat);

    /** Write memory (and notify the snoopers) or drive a proxy cycle. */
    void performAccess(const Access &a);

    /**
     * Make @p next's address space current: the per-controller Inval
     * STOREs that maintain invariant I1, MMU activation and the audit
     * hook. Returns the Invals' bus time. dispatch (timed) and
     * modelSwitchTo (untimed) both run it.
     */
    Tick switchAddressSpace(Process &next);

    void opDone(Process &proc, After after);
    void dispatch();
    void resumeProcess(Process &proc);
    void onProcessExit(Process &proc);
    void finalizeKill(Process &proc);
    void requeue(Process &proc);
    void cancelQuantum();
    void armQuantum(Process &proc);

    FaultOutcome handleFault(Process &proc, Addr va, bool is_write,
                             vm::Fault fault);
    FaultOutcome handleMemFault(Process &proc, Addr va, bool is_write,
                                vm::Fault fault);
    FaultOutcome handleProxyFault(Process &proc, Addr va,
                                  unsigned device, Addr real_va,
                                  bool is_write, vm::Fault fault);

    /** Fault a real page in (demand-zero or swap-in). */
    bool ensureResident(Process &proc, Addr va, bool for_write,
                        Tick &lat);

    /** Allocate a frame, evicting if necessary. */
    bool allocFrame(Pid pid, std::uint64_t vpn, std::uint64_t &frame,
                    Tick &lat);

    /** Evict a specific frame (already chosen). */
    void evictFrame(std::uint64_t frame, Tick &lat);

    /** Is this physical page involved in any controller's transfers? */
    bool pageBusyAnywhere(Addr page_base) const;

    /** Free the frames of drainingFrames_ that no transfer names any
     *  more (invariant I4 on exit). */
    void reclaimDrainedFrames();

    /** Virtual page number of PROXY(real vpn) for device @p d. */
    std::uint64_t
    proxyVpn(unsigned d, std::uint64_t real_vpn) const
    {
        return layout_.pageOf(layout_.memProxyBase(d)) + real_vpn;
    }

    /** Remove the proxy mappings of (proc, real vpn) for all devices
     *  — invariant I2. */
    void invalidateProxyMappings(Process &proc, std::uint64_t real_vpn);

    /** Write-protect the proxy mappings of (proc, real vpn) — I3. */
    void writeProtectProxyMappings(Process &proc,
                                   std::uint64_t real_vpn);

    /** Is the page dirty under the active I3 policy (real dirty bit,
     *  or any proxy dirty bit under ProxyDirtyBits)? */
    bool pageConsideredDirty(Process &proc, std::uint64_t real_vpn,
                             const vm::Pte &real_pte) const;

    /** Clear every dirty indication for the page (after cleaning). */
    void clearPageDirty(Process &proc, std::uint64_t real_vpn,
                        vm::Pte &real_pte);

    void releaseProcessMemory(Process &proc);

    void killProcess(Process &proc, std::string reason);

    /** Fire the invariant-audit hook, if one is installed. */
    void
    fireAuditHook(KernelEvent ev)
    {
        if (auditHook_)
            auditHook_(ev);
    }

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    const vm::AddressLayout &layout_;
    mem::PhysicalMemory &memory_;
    bus::IoBus &ioBus_;
    vm::Mmu &mmu_;
    mem::BackingStore backing_;

    std::vector<dma::UdmaController *> controllers_;
    std::vector<StoreSnooper> snoopers_;
    I3Policy i3Policy_ = I3Policy::WriteProtectProxy;
    ProxyTranslationCache tcache_;
    MutationKnobs mutations_;
    AuditHook auditHook_;
    /** Actor of an in-progress performUserAccess (else nullptr). */
    Process *actorOverride_ = nullptr;

    struct DeviceWindow
    {
        std::uint64_t extentBytes = 0;
        std::function<bool(std::uint64_t, std::uint64_t, bool)> allow;
    };
    std::map<unsigned, DeviceWindow> windows_;

    /** FIFO of runnable processes: a ring that grows only when every
     *  slot is taken, i.e. with the process count, so scheduling never
     *  allocates in steady state. */
    class ReadyQueue
    {
      public:
        bool empty() const { return count_ == 0; }

        void
        push(Process *p)
        {
            if (count_ == slots_.size()) {
                // Full: unroll oldest-first, then widen.
                std::rotate(slots_.begin(), slots_.begin() + head_,
                            slots_.end());
                head_ = 0;
                slots_.resize(std::max<std::size_t>(8, 2 * slots_.size()));
            }
            slots_[(head_ + count_) % slots_.size()] = p;
            ++count_;
        }

        Process *
        pop()
        {
            Process *p = slots_[head_];
            head_ = (head_ + 1) % slots_.size();
            --count_;
            return p;
        }

      private:
        std::vector<Process *> slots_;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    std::map<Pid, std::unique_ptr<Process>> procs_;
    Pid nextPid_ = 1;
    ReadyQueue readyQueue_;
    Process *running_ = nullptr;
    bool dispatchPending_ = false;
    bool preemptPending_ = false;
    sim::EventHandle quantumEvent_;

    std::vector<FrameInfo> frames_;
    std::vector<std::uint64_t> freeFrames_;
    /** Frames an exited process still owns because a running or queued
     *  transfer names them (I4); allocFrame frees them once none does. */
    std::vector<std::uint64_t> drainingFrames_;
    std::size_t clockHand_ = 0;

    stats::Scalar switches_;
    stats::Scalar memFaults_;
    stats::Scalar proxyFaults_;
    stats::Scalar proxyUpgrades_;
    stats::Scalar evictions_;
    stats::Scalar i4Skips_;
    stats::Scalar kills_;
    /** Invariant-event counters (Section 6). */
    stats::Scalar i1Invals_;
    stats::Scalar i2Shootdowns_;
    stats::Scalar i3DirtyFaults_;
    /** Fault-handler latency, microseconds. */
    stats::Histogram faultUs_{0, 64, 16};
    stats::Formula freeFramesNow_;
    stats::StatGroup statGroup_{"kernel"};
};

} // namespace shrimp::os

#endif // SHRIMP_OS_KERNEL_HH
