#include "dma/udma_controller.hh"

#include <algorithm>

#include "sim/span.hh"
#include "sim/trace.hh"

namespace shrimp::dma
{

UdmaController::UdmaController(sim::EventQueue &eq,
                               const sim::MachineParams &params,
                               const vm::AddressLayout &layout,
                               mem::PhysicalMemory &memory,
                               bus::IoBus &io_bus, UdmaDevice &device,
                               unsigned device_index,
                               std::uint32_t queue_depth,
                               std::uint32_t system_queue_depth)
    : eq_(eq), params_(params), layout_(layout),
      engine_(eq, params, memory, io_bus, device),
      device_(device), deviceIndex_(device_index),
      queueDepth_(queue_depth), systemQueueDepth_(system_queue_depth),
      ownerName_("udma" + std::to_string(device_index)),
      statGroup_(ownerName_)
{
    io_bus.attach(device_index, this);
    desc_.onComplete = [this] { engineDone(); };

    statGroup_.addScalar("transfersStarted", &started_);
    statGroup_.addScalar("statusLoads", &statusLoads_);
    statGroup_.addScalar("badLoads", &badLoads_);
    statGroup_.addScalar("invalsApplied", &invals_);
    statGroup_.addScalar("queueRefusals", &refusals_);
    statGroup_.addScalar("transfersAborted", &aborts_);
    statGroup_.addHistogram("initiate_us", &initiateUs_);
}

bool
UdmaController::systemRequest(bool to_device, Addr mem_addr,
                              Addr dev_offset, std::uint32_t count,
                              std::function<void()> on_complete)
{
    SHRIMP_ASSERT(count > 0, "empty system request");
    Request req;
    req.toDevice = to_device;
    req.memAddr = mem_addr;
    req.devOffset = dev_offset;
    req.count = count;
    req.onDone = std::move(on_complete);
    if (engine_.busy() && systemQueue_.size() >= systemQueueDepth_)
        return false;
    // Kernel-initiated transfers have no STORE/LOAD pair; the span
    // opens and starts at submission.
    req.spanId = span::registry().open(eq_.now(), ownerName_, count);
    req.latchTick = eq_.now();
    span::registry().start(eq_.now(), req.spanId, to_device);
    if (!engine_.busy()) {
        startRequest(req);
        return true;
    }
    addPageRefs(req, +1);
    systemQueue_.push_back(std::move(req));
    return true;
}

void
UdmaController::proxyStore(const vm::Decoded &decoded, Addr paddr,
                           std::int64_t value)
{
    SHRIMP_ASSERT(decoded.space == vm::Space::MemProxy
                      || decoded.space == vm::Space::DevProxy,
                  "non-proxy cycle routed to UDMA controller");
    if (value <= 0) {
        // Inval event: a non-positive (invalid) nbytes.
        inval();
        return;
    }
    if (queueDepth_ == 0 && engine_.busy()) {
        // Basic hardware: a Store in the Transferring state causes no
        // state transition and the registers are in use; the cycle is
        // absorbed. The user's follow-up LOAD will report
        // TRANSFERRING and the process retries (Section 5).
        return;
    }
    if (pending_.valid && pending_.spanId) {
        // A newer STORE overwrites the latched destination.
        span::registry().close(eq_.now(), pending_.spanId,
                               span::Outcome::Replaced);
    }
    pending_.valid = true;
    pending_.paddr = paddr;
    pending_.decoded = decoded;
    // COUNT register width bounds the request; page clamping happens
    // at initiation.
    pending_.count = std::uint32_t(
        std::min<std::int64_t>(value, 0xffffff));
    pending_.latchTick = eq_.now();
    pending_.ownerPid = ownerProbe_ ? ownerProbe_() : invalidPid;
    pending_.spanId =
        span::registry().open(eq_.now(), ownerName_, pending_.count);
}

void
UdmaController::inval()
{
    if (pending_.valid) {
        if (pending_.spanId)
            span::registry().close(eq_.now(), pending_.spanId,
                                   span::Outcome::Inval);
        pending_ = PendingDest();
        ++invals_;
        trace::log(eq_.now(), trace::Category::Dma, "udma", deviceIndex_,
                   ": Inval cleared a latched destination");
    }
    // A running transfer and queued requests are unaffected: "Once
    // started, a UDMA transfer continues regardless of whether the
    // process that started it is de-scheduled."
}

std::uint64_t
UdmaController::proxyLoad(const vm::Decoded &decoded, Addr paddr)
{
    SHRIMP_ASSERT(decoded.space == vm::Space::MemProxy
                      || decoded.space == vm::Space::DevProxy,
                  "non-proxy cycle routed to UDMA controller");
    ++statusLoads_;

    Status st;
    st.initiationFailed = true;

    bool initiated = false;
    if (pending_.valid && (queueDepth_ > 0 || !engine_.busy())) {
        tryInitiate(decoded, paddr, st);
        initiated = !st.initiationFailed;
    }

    // Flags reflecting the state *after* any transition, per the
    // paper's flag definitions.
    State s = state();
    st.transferring = s == State::Transferring;
    st.invalid = s == State::Idle;
    if (s == State::Transferring && matchesInFlight(paddr))
        st.match = true;
    if (initiated) {
        // REMAINING-BYTES of the just-accepted request: the page-
        // clamped count, which user software uses to advance its
        // pointers for the follow-up transfer (Section 8).
        // tryInitiate already stored it.
    } else if (engine_.busy()) {
        st.remainingBytes = engine_.remaining();
    } else if (pending_.valid) {
        st.remainingBytes = pending_.count;
    }
    return st.pack();
}

void
UdmaController::tryInitiate(const vm::Decoded &decoded, Addr paddr,
                            Status &st)
{
    // BadLoad: source in the same proxy region kind as the latched
    // destination => memory-to-memory or device-to-device, which the
    // basic UDMA device does not support. DestLoaded -> Idle.
    if (decoded.space == pending_.decoded.space) {
        if (pending_.spanId)
            span::registry().close(eq_.now(), pending_.spanId,
                                   span::Outcome::BadLoad);
        pending_ = PendingDest();
        st.wrongSpace = true;
        ++badLoads_;
        trace::log(eq_.now(), trace::Category::Dma, "udma", deviceIndex_,
                   ": BadLoad (same proxy region), back to Idle");
        return;
    }

    Request req;
    req.toDevice = pending_.decoded.space == vm::Space::DevProxy;
    req.srcProxy = paddr;
    req.dstProxy = pending_.paddr;
    req.spanId = pending_.spanId;
    req.latchTick = pending_.latchTick;

    Addr mem_addr, dev_offset;
    if (req.toDevice) {
        mem_addr = decoded.offset;        // LOAD named the memory source
        dev_offset = pending_.decoded.offset;
    } else {
        mem_addr = pending_.decoded.offset; // STORE named the memory dest
        dev_offset = decoded.offset;
    }
    req.memAddr = mem_addr;
    req.devOffset = dev_offset;

    // Optimistic page clamping, as in the SHRIMP implementation: the
    // hardware truncates at the first page boundary on either side;
    // user software issues a follow-up transfer if it asked for more.
    std::uint64_t clamp = pending_.count;
    clamp = std::min(clamp, layout_.bytesToPageEnd(mem_addr));
    clamp = std::min(clamp, device_.deviceBoundary(dev_offset));
    req.count = std::uint32_t(clamp);

    std::uint8_t err =
        device_.validateTransfer(req.toDevice, dev_offset, req.count);
    if (err != device_error::none) {
        if (req.spanId)
            span::registry().close(eq_.now(), req.spanId,
                                   span::Outcome::DeviceError);
        pending_ = PendingDest();
        st.deviceError = err;
        return;
    }

    if (!engine_.busy()) {
        pending_ = PendingDest();
        st.initiationFailed = false;
        st.remainingBytes = req.count;
        span::registry().start(eq_.now(), req.spanId, req.toDevice,
                               req.count);
        startRequest(req);
        return;
    }

    // Engine busy: Section 7 queueing.
    if (queue_.size() < queueDepth_) {
        pending_ = PendingDest();
        span::registry().start(eq_.now(), req.spanId, req.toDevice,
                               req.count);
        queue_.push_back(req);
        addPageRefs(req, +1);
        st.initiationFailed = false;
        st.remainingBytes = req.count;
        return;
    }

    // Queue full: the request is refused; the latched destination is
    // retained so the user can retry the LOAD alone.
    st.deviceError = device_error::queueFull;
    ++refusals_;
}

void
UdmaController::startRequest(const Request &req)
{
    inFlight_ = req;
    inFlightValid_ = true;
    addPageRefs(req, +1);
    ++started_;
    initiateUs_.sample(ticksToUs(eq_.now() - req.latchTick));
    trace::log(eq_.now(), trace::Category::Dma, "udma", deviceIndex_,
               ": start ", req.toDevice ? "mem->dev" : "dev->mem",
               " mem=", req.memAddr, " dev=", req.devOffset,
               " count=", req.count);

    desc_.toDevice = req.toDevice;
    desc_.segments.assign(1, Segment{req.memAddr, req.count});
    desc_.devOffset = req.devOffset;
    desc_.srcProxyAddr = req.srcProxy;
    desc_.dstProxyAddr = req.dstProxy;
    engine_.start(desc_);
}

void
UdmaController::engineDone()
{
    SHRIMP_ASSERT(inFlightValid_, "completion with no in-flight request");
    addPageRefs(inFlight_, -1);
    inFlightValid_ = false;
    if (inFlight_.spanId)
        span::registry().close(eq_.now(), inFlight_.spanId,
                               span::Outcome::Completed);
    auto done_cb = std::move(inFlight_.onDone);
    serviceNextRequest();
    if (done_cb)
        done_cb();
    if (completionObserver_)
        completionObserver_();
}

void
UdmaController::serviceNextRequest()
{
    // The system queue has strict priority over user requests
    // (Section 7's two-queue design).
    if (!systemQueue_.empty()) {
        Request next = std::move(systemQueue_.front());
        systemQueue_.pop_front();
        addPageRefs(next, -1);
        startRequest(next);
    } else if (!queue_.empty()) {
        Request next = std::move(queue_.front());
        queue_.pop_front();
        // The queued request already holds a reference; startRequest
        // adds the in-flight one, so drop the queue's.
        addPageRefs(next, -1);
        startRequest(next);
    }
}

bool
UdmaController::abortTransfer()
{
    if (!engine_.busy())
        return false;
    engine_.abort();
    SHRIMP_ASSERT(inFlightValid_, "abort with no in-flight request");
    addPageRefs(inFlight_, -1);
    inFlightValid_ = false;
    if (inFlight_.spanId)
        span::registry().close(eq_.now(), inFlight_.spanId,
                               span::Outcome::Aborted);
    ++aborts_;
    trace::log(eq_.now(), trace::Category::Dma, "udma", deviceIndex_,
               ": transfer aborted by the kernel");
    serviceNextRequest();
    return true;
}

bool
UdmaController::matchesInFlight(Addr paddr) const
{
    if (inFlightValid_
            && (paddr == inFlight_.srcProxy || paddr == inFlight_.dstProxy))
        return true;
    for (const auto &req : queue_) {
        if (paddr == req.srcProxy || paddr == req.dstProxy)
            return true;
    }
    return false;
}

void
UdmaController::addPageRefs(const Request &req, int delta)
{
    Addr first = layout_.pageBase(req.memAddr);
    Addr last = layout_.pageBase(req.memAddr + req.count - 1);
    for (Addr page = first; page <= last; page += layout_.pageBytes()) {
        auto it = std::lower_bound(pageRefs_.begin(), pageRefs_.end(),
                                   PageRef{page, 0});
        if (it == pageRefs_.end() || it->first != page)
            it = pageRefs_.insert(it, PageRef{page, 0});
        std::uint32_t &cnt = it->second;
        if (delta > 0) {
            cnt += std::uint32_t(delta);
        } else {
            SHRIMP_ASSERT(cnt >= std::uint32_t(-delta),
                          "page refcount underflow");
            cnt -= std::uint32_t(-delta);
            if (cnt == 0)
                pageRefs_.erase(it);
        }
    }
}

bool
UdmaController::pageBusy(Addr page_base) const
{
    return pageRefCount(page_base) > 0;
}

std::uint32_t
UdmaController::pageRefCount(Addr page_base) const
{
    auto it = std::lower_bound(pageRefs_.begin(), pageRefs_.end(),
                               PageRef{page_base, 0});
    return it != pageRefs_.end() && it->first == page_base ? it->second
                                                           : 0;
}

bool
UdmaController::destLoadedPage(Addr &page_base_out) const
{
    if (pending_.valid && pending_.decoded.space == vm::Space::MemProxy) {
        page_base_out = layout_.pageBase(pending_.decoded.offset);
        return true;
    }
    return false;
}

} // namespace shrimp::dma
