#include "dma/dma_engine.hh"

namespace shrimp::dma
{

DmaEngine::DmaEngine(sim::EventQueue &eq, const sim::MachineParams &params,
                     mem::PhysicalMemory &memory, bus::IoBus &io_bus,
                     UdmaDevice &device, std::uint32_t chunk_bytes)
    : eq_(eq), params_(params), memory_(memory), ioBus_(io_bus),
      device_(device), chunkBytes_(chunk_bytes), buf_(chunk_bytes)
{
    SHRIMP_ASSERT(chunk_bytes > 0, "zero chunk size");
    device_.setEngineWakeup([this] {
        if (busy_ && stalled_ && !chunkInFlight_) {
            stalled_ = false;
            step();
        }
    });

    bandwidth_ = [this] {
        double us = ticksToUs(Tick(busyTicks_.value()));
        return us > 0 ? bytes_.value() / us : 0.0;
    };
    statGroup_.addScalar("transfersCompleted", &completed_,
                         "transfers run to completion");
    statGroup_.addScalar("bytesMoved", &bytes_, "payload bytes moved");
    statGroup_.addScalar("stalls", &stalls_,
                         "device flow-control stall events");
    statGroup_.addScalar("transfersAborted", &aborted_,
                         "transfers cancelled via abort");
    statGroup_.addHistogram("xfer_us", &xferUs_,
                            "completed-transfer latency (us)");
    statGroup_.addFormula("bandwidth_mb_s", &bandwidth_,
                          "bytes moved per busy microsecond");
}

void
DmaEngine::start(const TransferDesc &desc)
{
    SHRIMP_ASSERT(!busy_, "DMA engine started while busy");
    SHRIMP_ASSERT(!desc.segments.empty(), "transfer with no segments");
    for (const auto &s : desc.segments)
        SHRIMP_ASSERT(s.len > 0, "zero-length segment");

    desc_ = desc;
    busy_ = true;
    xferStart_ = eq_.now();
    stalled_ = false;
    chunkInFlight_ = false;
    segIdx_ = 0;
    segOff_ = 0;
    devPtr_ = desc_.devOffset;
    left_ = desc_.totalBytes();

    Tick lat = params_.dmaStart()
               + device_.startLatency(desc_.toDevice, desc_.devOffset);
    device_.transferStarting(desc_.toDevice, desc_.devOffset, left_);
    std::uint64_t gen = generation_;
    eq_.scheduleIn(lat, "dma.start",
                   [this, gen] {
                       if (gen == generation_ && busy_)
                           step();
                   },
                   sim::EventPriority::DeviceCompletion);
}

bool
DmaEngine::abort()
{
    if (!busy_)
        return false;
    // Invalidate outstanding chunk events and stop the machine; the
    // device is told the (truncated) transfer is over so it can
    // close any open packet state.
    ++generation_;
    busy_ = false;
    chunkInFlight_ = false;
    stalled_ = false;
    ++aborted_;
    busyTicks_ += double(eq_.now() - xferStart_);
    device_.transferFinished(desc_.toDevice, desc_.devOffset,
                             desc_.totalBytes() - left_);
    return true;
}

void
DmaEngine::advanceMem(std::uint32_t n)
{
    segOff_ += n;
    if (segOff_ == desc_.segments[segIdx_].len && segIdx_ + 1
            < desc_.segments.size()) {
        ++segIdx_;
        segOff_ = 0;
    }
}

void
DmaEngine::step()
{
    if (left_ == 0) {
        finish();
        return;
    }

    std::uint32_t want =
        std::min({chunkBytes_, left_, segLeft()});
    std::uint32_t n;
    if (desc_.toDevice) {
        n = std::min(want, device_.pushCapacity(devPtr_, want));
    } else {
        n = std::min(want, device_.pullAvailable(devPtr_, want));
    }
    if (n == 0) {
        // Device flow control: wait for the wakeup callback.
        stalled_ = true;
        ++stalls_;
        return;
    }

    chunkInFlight_ = true;
    Tick done = ioBus_.burstTransfer(n);
    std::uint64_t gen = generation_;
    eq_.schedule(done, "dma.chunk",
                 [this, n, gen] {
                     if (gen == generation_)
                         doChunk(n);
                 },
                 sim::EventPriority::DeviceCompletion);
}

void
DmaEngine::doChunk(std::uint32_t n)
{
    chunkInFlight_ = false;
    if (desc_.toDevice) {
        memory_.readBytes(memPtr(), buf_.data(), n);
        device_.devicePush(devPtr_, buf_.data(), n);
    } else {
        device_.devicePull(devPtr_, buf_.data(), n);
        memory_.writeBytes(memPtr(), buf_.data(), n);
    }
    advanceMem(n);
    devPtr_ += n;
    left_ -= n;
    bytes_ += double(n);
    step();
}

void
DmaEngine::finish()
{
    busy_ = false;
    ++completed_;
    xferUs_.sample(ticksToUs(eq_.now() - xferStart_));
    busyTicks_ += double(eq_.now() - xferStart_);
    device_.transferFinished(desc_.toDevice, desc_.devOffset,
                             desc_.totalBytes());
    if (desc_.onComplete) {
        // Move out first: the callback commonly starts the next
        // transfer, which overwrites desc_.
        auto cb = std::move(desc_.onComplete);
        cb();
    }
}

bool
DmaEngine::pageBusy(Addr page_base) const
{
    if (!busy_)
        return false;
    Addr page_end = page_base + memory_.pageBytes();
    for (const auto &s : desc_.segments) {
        if (s.memAddr < page_end && s.memAddr + s.len > page_base)
            return true;
    }
    return false;
}

} // namespace shrimp::dma
