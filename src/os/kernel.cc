#include "os/kernel.hh"

#include <algorithm>
#include <utility>

#include "sim/trace.hh"

namespace shrimp::os
{

const char *
kernelEventName(KernelEvent ev)
{
    switch (ev) {
      case KernelEvent::ContextSwitch: return "context-switch";
      case KernelEvent::PageFault: return "page-fault";
      case KernelEvent::PageOut: return "page-out";
      case KernelEvent::DmaComplete: return "dma-complete";
    }
    return "?";
}

Kernel::Kernel(sim::EventQueue &eq, const sim::MachineParams &params,
               const vm::AddressLayout &layout,
               mem::PhysicalMemory &memory, bus::IoBus &io_bus,
               vm::Mmu &mmu)
    : eq_(eq), params_(params), layout_(layout), memory_(memory),
      ioBus_(io_bus), mmu_(mmu), backing_(layout.pageBytes()),
      frames_(memory.frames())
{
    freeFrames_.reserve(memory.frames());
    // Hand frames out low-to-high for reproducibility.
    for (std::uint64_t f = memory.frames(); f > 0; --f)
        freeFrames_.push_back(f - 1);

    freeFramesNow_ = [this] { return double(freeFrames_.size()); };
    statGroup_.addScalar("contextSwitches", &switches_);
    statGroup_.addScalar("pageFaults", &memFaults_);
    statGroup_.addScalar("proxyFaults", &proxyFaults_);
    statGroup_.addScalar("proxyWriteUpgrades", &proxyUpgrades_);
    statGroup_.addScalar("evictions", &evictions_);
    statGroup_.addScalar("evictionI4Skips", &i4Skips_);
    statGroup_.addScalar("processesKilled", &kills_);
    statGroup_.addScalar("i1_invals", &i1Invals_);
    statGroup_.addScalar("i2_shootdowns", &i2Shootdowns_);
    statGroup_.addScalar("i3_dirty_faults", &i3DirtyFaults_);
    statGroup_.addHistogram("fault_us", &faultUs_);
    statGroup_.addFormula("freeFrames", &freeFramesNow_);
}

Kernel::~Kernel() = default;

void
Kernel::attachController(dma::UdmaController *ctrl)
{
    SHRIMP_ASSERT(ctrl, "null controller");
    controllers_.push_back(ctrl);
    // Debug-only owner tagging for the invariant auditor: record which
    // process issued the latching STORE. The architectural controller
    // stays process-blind (protection still comes from the MMU + I1).
    ctrl->setOwnerProbe([this] {
        Process *p = actor();
        return p ? p->pid() : invalidPid;
    });
    const dma::UdmaDevice &dev = ctrl->device();
    registerDeviceWindow(
        ctrl->deviceIndex(), dev.proxyExtentBytes(),
        [&dev](std::uint64_t first, std::uint64_t n, bool writable) {
            return dev.allowProxyMap(first, n, writable);
        });
}

void
Kernel::registerDeviceWindow(
    unsigned device, std::uint64_t extent_bytes,
    std::function<bool(std::uint64_t, std::uint64_t, bool)> allow)
{
    windows_[device] = DeviceWindow{extent_bytes, std::move(allow)};
}

// --------------------------------------------------------------------
// Process lifecycle
// --------------------------------------------------------------------

Process &
Kernel::spawn(std::string name, UserProgram program)
{
    Pid pid = nextPid_++;
    auto owned = std::make_unique<Process>(*this, pid, std::move(name));
    Process &proc = *owned;
    procs_.emplace(pid, std::move(owned));

    proc.ctx_ = std::make_unique<UserContext>(*this, proc);
    // The process must own the program object: the coroutine frame
    // references the closure's captures rather than copying them.
    proc.program_ = std::move(program);
    proc.task_ = proc.program_(*proc.ctx_);
    proc.task_.setOnDone([this, &proc] { onProcessExit(proc); });
    proc.state_ = ProcState::Ready;
    readyQueue_.push(&proc);
    dispatch();
    return proc;
}

Process *
Kernel::findProcess(Pid pid)
{
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
}

bool
Kernel::allProcessesDone() const
{
    for (const auto &[pid, p] : procs_) {
        if (p->state() != ProcState::Zombie)
            return false;
    }
    return true;
}

void
Kernel::rethrowProcessFailures() const
{
    for (const auto &[pid, p] : procs_)
        p->rethrowIfFailed();
}

// --------------------------------------------------------------------
// The CPU: op issue and completion
// --------------------------------------------------------------------

bool
Kernel::issueOp(Process &proc, UserOp *op, std::coroutine_handle<> h)
{
    SHRIMP_ASSERT(running_ == &proc,
                  "op issued by a process that does not own the CPU");
    proc.resumePoint_ = h;
    proc.pendingOp_ = op;

    Tick lat = 0;
    After after = After::Resume;
    Access access;

    switch (op->kind) {
      case UserOp::Kind::Compute:
        lat = params_.instrTicks(double(op->value));
        break;

      case UserOp::Kind::Yield:
        lat = params_.instrTicks(10);
        after = After::Yield;
        break;

      case UserOp::Kind::Syscall: {
        lat = params_.instrTicks(params_.syscallInstr);
        SyscallControl sc;
        op->syscall(*this, proc, sc);
        lat += sc.extraLatency;
        op->result.value = sc.result;
        if (proc.killed_)
            after = After::Kill;
        else if (sc.blocks)
            after = After::Block;
        break;
      }

      case UserOp::Kind::Load:
      case UserOp::Kind::Store:
        access = resolveAccess(proc, op->vaddr,
                               op->kind == UserOp::Kind::Store, op->value,
                               &op->result.value, lat);
        if (access.kind == Access::Kind::None) {
            after = After::Kill;
        } else if (!access.client) {
            lat += params_.memAccess();
        } else {
            // Proxy space: an uncached reference across the I/O bus,
            // decoded by the owning UDMA controller.
            Tick fin =
                ioBus_.acquireAt(eq_.now() + lat, params_.ioAccess());
            lat = fin - eq_.now();
        }
        break;

      case UserOp::Kind::Poll:
        panic("a poll is issued through Kernel::issuePoll");
    }
    return finishOp(proc, access, after, eq_.now() + lat);
}

bool
Kernel::issuePoll(Process &proc, UserOp *op, std::coroutine_handle<> h)
{
    SHRIMP_ASSERT(running_ == &proc,
                  "op issued by a process that does not own the CPU");
    proc.resumePoint_ = h;
    proc.pendingOp_ = op;

    // The first load, translated and timed as issueOp times a LOAD.
    Tick lat = 0;
    const Access access = resolveAccess(proc, op->vaddr, false, 0,
                                        &op->result.value, lat);
    op->result.loads = 1;
    if (access.kind == Access::Kind::None)
        return finishOp(proc, access, After::Kill, eq_.now() + lat);
    if (access.client) {
        const Tick fin =
            ioBus_.acquireAt(eq_.now() + lat, params_.ioAccess());
        return finishOp(proc, access, After::Resume, fin);
    }
    // Until another event of the node changes the word, each firing
    // of this load only issues the next one: park it as a stream.
    const Tick when = eq_.now() + lat + params_.memAccess();
    if (!preemptPending_
        && memory_.read<std::uint64_t>(access.pa) != op->value
        && poll_.park(proc, *op, access, when))
        return true;
    return finishOp(proc, access, After::Resume, when);
}

bool
Kernel::finishOp(Process &proc, const Access &access, After after,
                 Tick when)
{
    // A reference that completes before every pending event of the
    // node completes now, and the process runs on without suspending.
    // Yield, block, kill and a pending preemption switch away, so
    // they wait in the heap.
    if (after == After::Resume && !preemptPending_
        && eq_.fireInPlace(when, "cpu.op", sim::EventPriority::CpuResume)) {
        if (!completeOp(proc, access, after))
            return true;
        proc.resumePoint_ = {};
        return false;
    }
    eq_.schedule(when, "cpu.op", cpuOp(proc, access, after),
                 sim::EventPriority::CpuResume);
    return true;
}

sim::EventCallback
Kernel::cpuOp(Process &proc, const Access &access, After after)
{
    auto done = [this, &proc, access, after] {
        if (completeOp(proc, access, after)) {
            auto resume = std::exchange(proc.resumePoint_, {});
            SHRIMP_ASSERT(resume, "no resume point");
            resume.resume();
        }
    };
    static_assert(sizeof(done) <= sim::EventCallback::inlineBytes,
                  "every simulated reference must fit the inline buffer");
    return done;
}

bool
Kernel::PollStream::park(Process &proc, UserOp &op, const Access &access,
                         Tick when)
{
    if (!kernel_.eq_.parkStream(when, kernel_.params_.memAccess(),
                                "cpu.op", sim::EventPriority::CpuResume,
                                *this))
        return false;
    proc_ = &proc;
    op_ = &op;
    access_ = access;
    return true;
}

void
Kernel::PollStream::streamFired(std::uint64_t n)
{
    kernel_.mmu_.repeatRead(op_->vaddr, n);
    op_->result.loads += n;
}

bool
Kernel::PollStream::streamMustWake()
{
    const Kernel &k = kernel_;
    return k.preemptPending_ || k.running_ != proc_
           || k.memory_.read<std::uint64_t>(access_.pa) == op_->value
           || !k.mmu_.readHits(op_->vaddr);
}

sim::EventCallback
Kernel::PollStream::streamWoken()
{
    return kernel_.cpuOp(*proc_, access_, After::Resume);
}

Kernel::Access
Kernel::resolveAccess(Process &proc, Addr va, bool is_write,
                      std::uint64_t datum, std::uint64_t *result, Tick &lat)
{
    std::uint64_t vpn = layout_.pageOf(va);
    vm::TranslateResult tr;
    vm::Pte *cpte = tcache_.lookup(proc.pid_, vpn, is_write);
    if (cpte) {
        // Proxy-translation cache hit: architecturally a warm TLB
        // hit (no extra latency); lookup() already checked the
        // permission bits against the live PTE.
        cpte->referenced = true;
        if (is_write)
            cpte->dirty = true;
        tr.paddr = cpte->frameAddr + layout_.pageOffset(va);
        tr.tlbHit = true;
    } else {
        int attempts = 0;
        for (;;) {
            tr = mmu_.translate(va, is_write);
            if (!tr.tlbHit)
                lat += params_.instrTicks(params_.tlbMissCycles);
            if (tr.ok())
                break;
            auto out = handleFault(proc, va, is_write, tr.fault);
            faultUs_.sample(ticksToUs(out.latency));
            fireAuditHook(KernelEvent::PageFault);
            lat += out.latency;
            if (out.killed)
                return {};
            SHRIMP_ASSERT(++attempts < 8, "page-fault livelock at va=", va);
        }
    }

    auto dec = layout_.decode(tr.paddr);
    bus::ProxyClient *client = nullptr;
    if (dec.space != vm::Space::Memory) {
        // Memoize the proxy translation the slow path resolved.
        if (!cpte) {
            if (vm::Pte *pte = proc.pageTable_.lookup(vpn))
                tcache_.insert(proc.pid_, vpn, pte);
        }
        client = ioBus_.client(dec.device);
        if (!client) {
            killProcess(proc, "proxy access to unattached device");
            return {};
        }
    }
    return Access{is_write ? Access::Kind::Store : Access::Kind::Load,
                  tr.paddr, datum, result, client};
}

void
Kernel::performAccess(const Access &a)
{
    const bool is_write = a.kind == Access::Kind::Store;
    if (!a.client) {
        if (is_write) {
            memory_.write<std::uint64_t>(a.pa, a.datum);
            // Bus snoopers (automatic update) see the store.
            for (auto &snoop : snoopers_)
                (void)snoop(a.pa, a.datum);
        } else {
            *a.result = memory_.read<std::uint64_t>(a.pa);
        }
        return;
    }
    const vm::Decoded dec = layout_.decode(a.pa);
    if (is_write)
        a.client->proxyStore(dec, a.pa, std::int64_t(a.datum));
    else
        *a.result = a.client->proxyLoad(dec, a.pa);
}

bool
Kernel::completeOp(Process &proc, const Access &access, After after)
{
    if (access.kind != Access::Kind::None)
        performAccess(access);
    return opDone(proc, after);
}

bool
Kernel::opDone(Process &proc, After after)
{
    SHRIMP_ASSERT(running_ == &proc,
                  "op completion for a non-running process");

    auto account = [this, &proc] {
        proc.cpuTicks_ += eq_.now() - proc.lastDispatch_;
    };

    switch (after) {
      case After::Kill:
        account();
        finalizeKill(proc);
        running_ = nullptr;
        cancelQuantum();
        dispatch();
        return false;

      case After::Block:
        account();
        if (proc.wakePending_) {
            // The wake raced ahead of the block; stay runnable.
            proc.wakePending_ = false;
            requeue(proc);
        } else {
            proc.state_ = ProcState::Blocked;
        }
        running_ = nullptr;
        cancelQuantum();
        dispatch();
        return false;

      case After::Yield:
        account();
        requeue(proc);
        running_ = nullptr;
        cancelQuantum();
        dispatch();
        return false;

      case After::Resume:
        if (preemptPending_) {
            preemptPending_ = false;
            ++proc.preemptions_;
            account();
            requeue(proc);
            running_ = nullptr;
            cancelQuantum();
            dispatch();
            return false;
        }
        return true;
    }
    return false;
}

void
Kernel::dispatch()
{
    if (running_ || dispatchPending_ || readyQueue_.empty())
        return;
    Process *next = readyQueue_.pop();
    dispatchPending_ = true;
    ++switches_;
    trace::log(eq_.now(), trace::Category::Os, "switch to ",
               next->name(), " (pid ", next->pid(), ")");

    const Tick lat = params_.instrTicks(params_.contextSwitchInstr)
                     + switchAddressSpace(*next);
    eq_.scheduleIn(
        lat, "kernel.dispatch",
        [this, next] {
            dispatchPending_ = false;
            running_ = next;
            // A quantum that expired while the previous process's
            // yield, block or kill was pending preempted nobody; the
            // new process gets a fresh quantum, not that expiry.
            preemptPending_ = false;
            next->state_ = ProcState::Running;
            next->lastDispatch_ = eq_.now();
            armQuantum(*next);
            resumeProcess(*next);
        },
        sim::EventPriority::CpuResume);
}

Tick
Kernel::switchAddressSpace(Process &next)
{
    Tick lat = 0;
    // Invariant I1: invalidate any partially-initiated UDMA sequence
    // with a single STORE (of a negative nbytes) per controller.
    if (!mutations_.skipInvalOnSwitch) {
        for (auto *c : controllers_) {
            c->inval();
            ++i1Invals_;
            lat += params_.ioAccess();
        }
    }
    mmu_.activate(&next.pageTable_);
    fireAuditHook(KernelEvent::ContextSwitch);
    return lat;
}

void
Kernel::resumeProcess(Process &proc)
{
    if (!proc.started_) {
        proc.started_ = true;
        proc.task_.resume();
    } else {
        auto h = std::exchange(proc.resumePoint_, {});
        SHRIMP_ASSERT(h, "resuming process with no suspension point");
        h.resume();
    }
}

void
Kernel::onProcessExit(Process &proc)
{
    // Runs inside the coroutine's final suspend.
    if (running_ == &proc) {
        proc.cpuTicks_ += eq_.now() - proc.lastDispatch_;
        running_ = nullptr;
        cancelQuantum();
    }
    proc.state_ = ProcState::Zombie;
    releaseProcessMemory(proc);
    dispatch();
}

void
Kernel::finalizeKill(Process &proc)
{
    ++kills_;
    proc.state_ = ProcState::Zombie;
    releaseProcessMemory(proc);
    warn("process ", proc.name_, " (pid ", proc.pid_,
         ") killed: ", proc.killReason_);
}

void
Kernel::killProcess(Process &proc, std::string reason)
{
    trace::log(eq_.now(), trace::Category::Os, "kill ", proc.name(),
               ": ", reason);
    proc.killed_ = true;
    proc.killReason_ = std::move(reason);
}

void
Kernel::requeue(Process &proc)
{
    proc.state_ = ProcState::Ready;
    readyQueue_.push(&proc);
}

void
Kernel::wake(Process &proc)
{
    if (proc.state_ != ProcState::Blocked) {
        // Interrupt completed before the blocking syscall finished
        // descending: record the wake so the block is skipped.
        proc.wakePending_ = true;
        return;
    }
    requeue(proc);
    dispatch();
}

void
Kernel::wakeWithResult(Process &proc, std::uint64_t result)
{
    SHRIMP_ASSERT(proc.pendingOp_, "no pending op to deliver result to");
    proc.pendingOp_->result.value = result;
    wake(proc);
}

void
Kernel::cancelQuantum()
{
    if (quantumEvent_.valid()) {
        eq_.deschedule(quantumEvent_);
        quantumEvent_ = sim::EventHandle();
    }
}

void
Kernel::armQuantum(Process &proc)
{
    cancelQuantum();
    quantumEvent_ = eq_.scheduleIn(
        params_.quantum(), "kernel.quantum", [this, &proc] {
            quantumEvent_ = sim::EventHandle();
            if (running_ != &proc)
                return;
            if (!readyQueue_.empty())
                preemptPending_ = true;
            else
                armQuantum(proc);
        });
}

// --------------------------------------------------------------------
// Fault handling: invariants I2 and I3
// --------------------------------------------------------------------

Kernel::FaultOutcome
Kernel::handleFault(Process &proc, Addr va, bool is_write,
                    vm::Fault fault)
{
    auto dec = layout_.decode(va);
    switch (dec.space) {
      case vm::Space::Memory:
        return handleMemFault(proc, va, is_write, fault);

      case vm::Space::MemProxy:
        ++proxyFaults_;
        return handleProxyFault(proc, va, dec.device, dec.offset,
                                is_write, fault);

      case vm::Space::DevProxy: {
        FaultOutcome out;
        out.latency = params_.instrTicks(params_.pageFaultInstr);
        out.killed = true;
        killProcess(proc, fault == vm::Fault::Protection
                              ? "write to read-only device proxy page"
                              : "access to unmapped device proxy page");
        return out;
      }

      case vm::Space::Invalid:
      default: {
        FaultOutcome out;
        out.latency = params_.instrTicks(params_.pageFaultInstr);
        out.killed = true;
        killProcess(proc, "access to an address-space hole");
        return out;
      }
    }
}

Kernel::FaultOutcome
Kernel::handleMemFault(Process &proc, Addr va, bool is_write,
                       vm::Fault fault)
{
    ++memFaults_;
    trace::log(eq_.now(), trace::Category::Vm, proc.name(),
               " memory fault at va=", va,
               is_write ? " (write)" : " (read)");
    FaultOutcome out;
    out.latency = params_.instrTicks(params_.pageFaultInstr);

    const VmRegion *region = proc.regionFor(va);
    if (!region) {
        out.killed = true;
        killProcess(proc, "segmentation fault");
        return out;
    }
    if (fault == vm::Fault::Protection) {
        // Regions are mapped with their full permissions, so a
        // protection fault here is a genuine violation.
        out.killed = true;
        killProcess(proc, "write to read-only page");
        return out;
    }
    if (!ensureResident(proc, va, is_write, out.latency)) {
        out.killed = true;
        killProcess(proc, "out of memory");
        return out;
    }
    return out;
}

Kernel::FaultOutcome
Kernel::handleProxyFault(Process &proc, Addr va, unsigned device,
                         Addr real_va, bool is_write, vm::Fault fault)
{
    FaultOutcome out;
    out.latency = params_.instrTicks(params_.pageFaultInstr);
    trace::log(eq_.now(), trace::Category::Vm, proc.name(),
               " proxy fault at va=", va, " real=", real_va,
               is_write ? " (write)" : " (read)");

    const VmRegion *region = proc.regionFor(real_va);
    if (!region) {
        // The kernel treats this like an illegal access to vmem_page
        // (Section 6: "will normally cause a core dump").
        out.killed = true;
        killProcess(proc, "proxy access to unmapped memory");
        return out;
    }

    std::uint64_t real_vpn = layout_.pageOf(real_va);
    std::uint64_t proxy_vpn = layout_.pageOf(va);
    vm::Pte *real_pte = proc.pageTable_.lookup(real_vpn);

    if (fault == vm::Fault::Protection) {
        // A STORE to a read-only proxy page: the I3 upgrade path.
        // "The kernel enables writes to PROXY(vmem_page) so the user's
        // transfer can take place; the kernel also marks vmem_page as
        // dirty to maintain I3."
        if (!region->writable) {
            out.killed = true;
            killProcess(proc, "proxy write to read-only memory");
            return out;
        }
        SHRIMP_ASSERT(real_pte && real_pte->valid,
                      "I2 violated: proxy mapping without real mapping");
        real_pte->dirty = true;
        ++i3DirtyFaults_;
        vm::Pte *proxy_pte = proc.pageTable_.lookup(proxy_vpn);
        SHRIMP_ASSERT(proxy_pte && proxy_pte->valid, "proxy PTE vanished");
        if (mmu_.activeTable() == &proc.pageTable_)
            mmu_.invalidatePage(proxy_vpn);
        proxy_pte->writable = true;
        ++proxyUpgrades_;
        return out;
    }

    // NotPresent: create the proxy mapping on demand (I2). Three
    // cases based on the state of vmem_page (Section 6).
    if (!real_pte || !real_pte->valid) {
        // vmem_page is valid but not in core: page it in first.
        if (!ensureResident(proc, real_va, false, out.latency)) {
            out.killed = true;
            killProcess(proc, "out of memory (proxy page-in)");
            return out;
        }
        real_pte = proc.pageTable_.lookup(real_vpn);
        SHRIMP_ASSERT(real_pte && real_pte->valid, "page-in failed");
    }

    if (is_write) {
        if (!region->writable) {
            out.killed = true;
            killProcess(proc, "proxy write to read-only memory");
            return out;
        }
        // Main scheme (I3): mark the real page dirty before granting
        // a writable proxy mapping. Under the alternative scheme the
        // proxy PTE's own dirty bit carries the information instead.
        if (i3Policy_ == I3Policy::WriteProtectProxy) {
            real_pte->dirty = true;
            ++i3DirtyFaults_;
        }
    }

    vm::Pte proxy_pte;
    proxy_pte.frameAddr = layout_.proxy(real_pte->frameAddr, device);
    proxy_pte.valid = true;
    proxy_pte.user = true;
    if (i3Policy_ == I3Policy::ProxyDirtyBits) {
        // Alternative scheme: proxy pages are writable whenever the
        // region is; their own (MMU-managed) dirty bits make the
        // page count as dirty instead.
        proxy_pte.writable = region->writable;
    } else {
        // Main scheme (I3): the proxy page may be writable only if
        // the real page is dirty (and the region is writable at all).
        proxy_pte.writable = region->writable && real_pte->dirty;
    }
    if (mmu_.activeTable() == &proc.pageTable_)
        mmu_.invalidatePage(proxy_vpn);
    proc.pageTable_.install(proxy_vpn, proxy_pte);
    return out;
}

bool
Kernel::ensureResident(Process &proc, Addr va, bool for_write,
                       Tick &lat)
{
    (void)for_write;
    std::uint64_t vpn = layout_.pageOf(va);
    vm::Pte *pte = proc.pageTable_.lookup(vpn);
    if (pte && pte->valid)
        return true;

    const VmRegion *region = proc.regionFor(va);
    if (!region)
        return false;

    std::uint64_t frame;
    if (!allocFrame(proc.pid_, vpn, frame, lat))
        return false;
    Addr fa = memory_.frameAddr(frame);

    if (backing_.contains(proc.pid_, vpn)) {
        backing_.load(proc.pid_, vpn, memory_.frameBytes(frame));
        lat += params_.swapPage();
    } else {
        memory_.zeroFrame(frame);
        lat += params_.instrTicks(64); // zero-fill cost
    }

    vm::Pte new_pte;
    new_pte.frameAddr = fa;
    new_pte.valid = true;
    new_pte.writable = region->writable;
    new_pte.user = true;
    new_pte.dirty = false;
    if (mmu_.activeTable() == &proc.pageTable_)
        mmu_.invalidatePage(vpn);
    proc.pageTable_.install(vpn, new_pte);

    frames_[frame] = FrameInfo{true, proc.pid_, vpn, 0};
    return true;
}

// --------------------------------------------------------------------
// Frame allocation and the page daemon: invariant I4
// --------------------------------------------------------------------

bool
Kernel::allocFrame(Pid pid, std::uint64_t vpn, std::uint64_t &frame,
                   Tick &lat)
{
    if (!drainingFrames_.empty())
        reclaimDrainedFrames();
    if (freeFrames_.empty()) {
        if (!evictOneFrame(lat))
            return false;
    }
    SHRIMP_ASSERT(!freeFrames_.empty(), "eviction freed nothing");
    frame = freeFrames_.back();
    freeFrames_.pop_back();
    frames_[frame] = FrameInfo{true, pid, vpn, 0};
    return true;
}

bool
Kernel::pageBusyAnywhere(Addr page_base) const
{
    for (const auto *c : controllers_) {
        if (c->pageBusy(page_base))
            return true;
    }
    return false;
}

void
Kernel::reclaimDrainedFrames()
{
    std::size_t kept = 0;
    for (std::uint64_t frame : drainingFrames_) {
        if (pageBusyAnywhere(memory_.frameAddr(frame))) {
            drainingFrames_[kept++] = frame;
        } else {
            frames_[frame] = FrameInfo{};
            freeFrames_.push_back(frame);
        }
    }
    drainingFrames_.resize(kept);
}

bool
Kernel::evictOneFrame(Tick &lat)
{
    if (frames_.empty())
        return false;
    std::size_t max_scan = 2 * frames_.size();
    for (std::size_t scanned = 0; scanned < max_scan; ++scanned) {
        clockHand_ = (clockHand_ + 1) % frames_.size();
        FrameInfo &f = frames_[clockHand_];
        if (!f.used || f.pinCount > 0)
            continue;
        Process *owner = findProcess(f.pid);
        // A zombie's frame is still draining a transfer (I4 on exit).
        if (!owner || owner->state_ == ProcState::Zombie)
            continue;
        vm::Pte *pte = owner->pageTable_.lookup(f.vpn);
        SHRIMP_ASSERT(pte && pte->valid, "frame table out of sync");
        if (pte->referenced) {
            // Second chance.
            pte->referenced = false;
            continue;
        }
        Addr fa = memory_.frameAddr(clockHand_);
        // Invariant I4: a page latched in a pending DESTINATION
        // register may be freed with an Inval event (Section 6); a
        // page involved in a running or queued transfer is skipped.
        for (auto *c : controllers_) {
            Addr dl;
            if (c->destLoadedPage(dl) && dl == fa)
                c->inval();
        }
        if (!mutations_.ignoreI4PageBusy && pageBusyAnywhere(fa)) {
            ++i4Skips_;
            continue;
        }
        evictFrame(clockHand_, lat);
        return true;
    }
    return false;
}

bool
Kernel::evictPage(Process &proc, Addr va, Tick &lat)
{
    vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(va));
    if (!pte || !pte->valid)
        return false;
    std::uint64_t frame = memory_.frameOf(pte->frameAddr);
    if (frames_[frame].pinCount > 0)
        return false;
    Addr fa = memory_.frameAddr(frame);
    for (auto *c : controllers_) {
        Addr dl;
        if (c->destLoadedPage(dl) && dl == fa)
            c->inval();
    }
    if (!mutations_.ignoreI4PageBusy && pageBusyAnywhere(fa)) {
        ++i4Skips_;
        return false;
    }
    evictFrame(frame, lat);
    return true;
}

void
Kernel::evictFrame(std::uint64_t frame, Tick &lat)
{
    FrameInfo &f = frames_[frame];
    Process *owner = findProcess(f.pid);
    SHRIMP_ASSERT(owner, "evicting frame with no owner");
    vm::Pte *pte = owner->pageTable_.lookup(f.vpn);
    SHRIMP_ASSERT(pte && pte->valid, "evicting unmapped frame");

    if (pageConsideredDirty(*owner, f.vpn, *pte)) {
        // Clean: write the page to backing store.
        backing_.store(f.pid, f.vpn, memory_.frameBytes(frame));
        lat += params_.swapPage();
    }

    // Invariant I2: the proxy mappings die with the real mapping.
    if (!mutations_.skipProxyShootdown)
        invalidateProxyMappings(*owner, f.vpn);

    if (mmu_.activeTable() == &owner->pageTable_)
        mmu_.invalidatePage(f.vpn);
    owner->pageTable_.remove(f.vpn);

    trace::log(eq_.now(), trace::Category::Vm, "evict frame ", frame,
               " (pid ", f.pid, " vpn ", f.vpn, ")");
    f = FrameInfo{};
    freeFrames_.push_back(frame);
    ++evictions_;
    lat += params_.instrTicks(120); // pageout bookkeeping
    fireAuditHook(KernelEvent::PageOut);
}

void
Kernel::invalidateProxyMappings(Process &proc, std::uint64_t real_vpn)
{
    for (auto *c : controllers_) {
        std::uint64_t proxy_vpn = proxyVpn(c->deviceIndex(), real_vpn);
        if (proc.pageTable_.lookup(proxy_vpn)) {
            if (mmu_.activeTable() == &proc.pageTable_)
                mmu_.invalidatePage(proxy_vpn);
            // The translation cache holds a pointer into the page
            // table; drop it before the PTE node goes away.
            if (!mutations_.skipTcacheShootdown)
                tcache_.invalidate(proc.pid_, proxy_vpn);
            proc.pageTable_.remove(proxy_vpn);
            ++i2Shootdowns_;
        }
    }
}

bool
Kernel::pageConsideredDirty(Process &proc, std::uint64_t real_vpn,
                            const vm::Pte &real_pte) const
{
    if (real_pte.dirty)
        return true;
    if (i3Policy_ != I3Policy::ProxyDirtyBits)
        return false;
    // Alternative scheme: "the kernel considers vmem_page dirty if
    // either vmem_page or PROXY(vmem_page) is dirty."
    for (auto *c : controllers_) {
        std::uint64_t proxy_vpn = proxyVpn(c->deviceIndex(), real_vpn);
        const vm::Pte *pte = proc.pageTable_.lookup(proxy_vpn);
        if (pte && pte->valid && pte->dirty)
            return true;
    }
    return false;
}

void
Kernel::clearPageDirty(Process &proc, std::uint64_t real_vpn,
                       vm::Pte &real_pte)
{
    real_pte.dirty = false;
    if (i3Policy_ != I3Policy::ProxyDirtyBits)
        return;
    for (auto *c : controllers_) {
        std::uint64_t proxy_vpn = proxyVpn(c->deviceIndex(), real_vpn);
        if (vm::Pte *pte = proc.pageTable_.lookup(proxy_vpn))
            pte->dirty = false;
    }
}

void
Kernel::writeProtectProxyMappings(Process &proc, std::uint64_t real_vpn)
{
    for (auto *c : controllers_) {
        std::uint64_t proxy_vpn = proxyVpn(c->deviceIndex(), real_vpn);
        if (vm::Pte *pte = proc.pageTable_.lookup(proxy_vpn)) {
            if (mmu_.activeTable() == &proc.pageTable_)
                mmu_.invalidatePage(proxy_vpn);
            pte->writable = false;
        }
    }
}

bool
Kernel::cleanPage(Process &proc, Addr va, Tick &lat)
{
    std::uint64_t vpn = layout_.pageOf(va);
    vm::Pte *pte = proc.pageTable_.lookup(vpn);
    if (!pte || !pte->valid)
        return false;
    Addr page_base = layout_.pageBase(pte->frameAddr);
    // The Section 6 race rule: never clear the dirty bit while a DMA
    // transfer to the page is in progress.
    if (pageBusyAnywhere(page_base))
        return false;
    if (pageConsideredDirty(proc, vpn, *pte)) {
        backing_.store(proc.pid_, vpn,
                       memory_.frameBytes(memory_.frameOf(page_base)));
        clearPageDirty(proc, vpn, *pte);
        lat += params_.swapPage();
    }
    // Invariant I3 (main scheme only): cleaning write-protects the
    // proxy mapping so the next proxy write re-marks the page dirty.
    if (i3Policy_ == I3Policy::WriteProtectProxy
            && !mutations_.skipProxyWriteProtect)
        writeProtectProxyMappings(proc, vpn);
    return true;
}

void
Kernel::releaseProcessMemory(Process &proc)
{
    for (auto &revoke : std::exchange(proc.releaseActions_, {}))
        revoke();
    for (std::uint64_t frame = 0; frame < frames_.size(); ++frame) {
        if (!frames_[frame].used || frames_[frame].pid != proc.pid_)
            continue;
        if (pageBusyAnywhere(memory_.frameAddr(frame))) {
            // Invariant I4 holds past exit: a running or queued
            // transfer still names this frame, so the zombie keeps it
            // (the clock skips zombies) until allocFrame sees it idle.
            drainingFrames_.push_back(frame);
            continue;
        }
        frames_[frame] = FrameInfo{};
        freeFrames_.push_back(frame);
    }
    if (mmu_.activeTable() == &proc.pageTable_)
        mmu_.activate(nullptr);
    tcache_.invalidatePid(proc.pid_);
    backing_.dropProcess(proc.pid_);
}

// --------------------------------------------------------------------
// Syscall services
// --------------------------------------------------------------------

Addr
Kernel::allocRegion(Process &proc, std::uint64_t bytes, bool writable)
{
    std::uint64_t pb = layout_.pageBytes();
    std::uint64_t len = (bytes + pb - 1) / pb * pb;
    Addr base = proc.nextRegionBase_;
    // One guard page between regions.
    proc.nextRegionBase_ = base + len + pb;
    if (proc.nextRegionBase_ > vm::AddressLayout::regionStride)
        fatal("virtual address space exhausted for ", proc.name());
    proc.regions_.push_back(VmRegion{base, len, writable});
    return base;
}

Addr
Kernel::mapDeviceProxy(Process &proc, unsigned device,
                       std::uint64_t first_page, std::uint64_t n_pages,
                       bool writable, Tick &lat)
{
    auto wit = windows_.find(device);
    if (wit == windows_.end() || n_pages == 0)
        return 0;

    const DeviceWindow &win = wit->second;
    std::uint64_t pb = layout_.pageBytes();
    if ((first_page + n_pages) * pb > win.extentBytes)
        return 0;
    if (win.allow && !win.allow(first_page, n_pages, writable))
        return 0;

    Addr vbase = layout_.devProxyBase(device) + first_page * pb;
    for (std::uint64_t i = 0; i < n_pages; ++i) {
        std::uint64_t vpn = layout_.pageOf(vbase) + i;
        vm::Pte pte;
        pte.frameAddr = layout_.devProxyBase(device)
                        + (first_page + i) * pb;
        pte.valid = true;
        pte.writable = writable;
        pte.user = true;
        if (mmu_.activeTable() == &proc.pageTable_)
            mmu_.invalidatePage(vpn);
        proc.pageTable_.install(vpn, pte);
        lat += params_.instrTicks(60);
    }
    return vbase;
}

bool
Kernel::buildDmaSegments(Process &proc, Addr va, std::uint32_t nbytes,
                         bool for_write, std::vector<dma::Segment> &out,
                         Tick &lat)
{
    if (nbytes == 0)
        return false;
    Addr cur = va;
    std::uint32_t left = nbytes;
    while (left > 0) {
        const VmRegion *r = proc.regionFor(cur);
        if (!r || (for_write && !r->writable))
            return false;
        if (!ensureResident(proc, cur, for_write, lat))
            return false;
        vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(cur));
        SHRIMP_ASSERT(pte && pte->valid, "resident page vanished");
        if (for_write) {
            // The kernel knows about this DMA and marks the target
            // dirty itself (the traditional path of Section 6).
            pte->dirty = true;
        }
        std::uint32_t chunk = std::uint32_t(
            std::min<std::uint64_t>(left, layout_.bytesToPageEnd(cur)));
        Addr pa = pte->frameAddr + layout_.pageOffset(cur);
        if (!out.empty()
                && out.back().memAddr + out.back().len == pa) {
            out.back().len += chunk;
        } else {
            out.push_back(dma::Segment{pa, chunk});
        }
        lat += params_.instrTicks(params_.dmaTranslateInstrPerPage);
        cur += chunk;
        left -= chunk;
    }
    return true;
}

bool
Kernel::pinRange(Process &proc, Addr va, std::uint32_t nbytes,
                 Tick &lat)
{
    if (nbytes == 0)
        return false;
    Addr first = layout_.pageBase(va);
    Addr last = layout_.pageBase(va + nbytes - 1);
    std::vector<std::uint64_t> pinned;
    for (Addr p = first; p <= last; p += layout_.pageBytes()) {
        if (!ensureResident(proc, p, false, lat))
            break;
        vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(p));
        if (!pte || !pte->valid)
            break;
        std::uint64_t frame = memory_.frameOf(pte->frameAddr);
        ++frames_[frame].pinCount;
        pinned.push_back(frame);
        lat += params_.instrTicks(params_.dmaPinInstrPerPage);
    }
    std::uint64_t need = (last - first) / layout_.pageBytes() + 1;
    if (pinned.size() != need) {
        for (auto frame : pinned)
            --frames_[frame].pinCount;
        return false;
    }
    return true;
}

void
Kernel::unpinRange(Process &proc, Addr va, std::uint32_t nbytes)
{
    if (nbytes == 0)
        return;
    Addr first = layout_.pageBase(va);
    Addr last = layout_.pageBase(va + nbytes - 1);
    for (Addr p = first; p <= last; p += layout_.pageBytes()) {
        vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(p));
        SHRIMP_ASSERT(pte && pte->valid, "unpinning unmapped page");
        std::uint64_t frame = memory_.frameOf(pte->frameAddr);
        SHRIMP_ASSERT(frames_[frame].pinCount > 0, "pin underflow");
        --frames_[frame].pinCount;
    }
}

bool
Kernel::exportPage(Process &proc, Addr va, Addr &paddr_out, Tick &lat)
{
    if (!ensureResident(proc, va, true, lat))
        return false;
    vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(va));
    SHRIMP_ASSERT(pte && pte->valid, "exported page not resident");
    std::uint64_t frame = memory_.frameOf(pte->frameAddr);
    ++frames_[frame].pinCount;
    // Incoming network DMA bypasses the receiver's MMU, so the kernel
    // marks the page dirty up front (the SHRIMP arrangement: I3 is
    // unnecessary because receive pages are exported explicitly).
    pte->dirty = true;
    paddr_out = pte->frameAddr + layout_.pageOffset(va);
    return true;
}

// --------------------------------------------------------------------
// The model checker's synchronous CPU (tools/udma_model_check, tests)
// --------------------------------------------------------------------

void
Kernel::forEachProcess(const std::function<void(Process &)> &fn)
{
    for (auto &[pid, p] : procs_)
        fn(*p);
}

void
Kernel::modelSwitchTo(Process &proc)
{
    ++switches_;
    trace::log(eq_.now(), trace::Category::Os, "model switch to ",
               proc.name(), " (pid ", proc.pid(), ")");
    (void)switchAddressSpace(proc); // untimed: the latency is dropped
}

Kernel::UserAccess
Kernel::performUserAccess(Process &proc, Addr va, bool is_write,
                          std::uint64_t value)
{
    UserAccess res;
    if (proc.killed_ || proc.state_ == ProcState::Zombie) {
        res.killed = true;
        return res;
    }
    SHRIMP_ASSERT(mmu_.activeTable() == &proc.pageTable_,
                  "performUserAccess needs the process's address space "
                  "active (modelSwitchTo first)");

    actorOverride_ = &proc;
    Tick lat = 0; // untimed: the latency is dropped
    const Access a = resolveAccess(proc, va, is_write, value, &res.value, lat);
    if (a.kind != Access::Kind::None)
        performAccess(a);
    actorOverride_ = nullptr;
    res.ok = a.kind != Access::Kind::None;
    res.killed = !res.ok;
    return res;
}

// --------------------------------------------------------------------
// Backdoor access for tests and benchmarks (untimed)
// --------------------------------------------------------------------

void
Kernel::pokeBytes(Process &proc, Addr va, const void *src,
                  std::uint64_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    Tick scratch = 0;
    while (len > 0) {
        if (!ensureResident(proc, va, true, scratch))
            panic("pokeBytes outside an allocated region, va=", va);
        vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(va));
        pte->dirty = true;
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, layout_.bytesToPageEnd(va));
        memory_.writeBytes(pte->frameAddr + layout_.pageOffset(va),
                           bytes, chunk);
        bytes += chunk;
        va += chunk;
        len -= chunk;
    }
}

void
Kernel::peekBytes(Process &proc, Addr va, void *dst, std::uint64_t len)
{
    auto *bytes = static_cast<std::uint8_t *>(dst);
    Tick scratch = 0;
    while (len > 0) {
        if (!ensureResident(proc, va, false, scratch))
            panic("peekBytes outside an allocated region, va=", va);
        vm::Pte *pte = proc.pageTable_.lookup(layout_.pageOf(va));
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, layout_.bytesToPageEnd(va));
        memory_.readBytes(pte->frameAddr + layout_.pageOffset(va),
                          bytes, chunk);
        bytes += chunk;
        va += chunk;
        len -= chunk;
    }
}

} // namespace shrimp::os
