/**
 * @file
 * The classic DMA transfer engine (paper Figure 1).
 *
 * SOURCE/DESTINATION/COUNT registers and a transfer state machine that
 * streams data between physical memory and a device over the I/O bus
 * in burst-mode chunks, with device flow control. The engine is used
 * unchanged by both the UDMA controller (which is "a small extension
 * to the traditional DMA controller") and the traditional
 * kernel-initiated DMA baseline — which for gather transfers programs
 * a scatter/gather segment list, standing in for the page-list
 * descriptor the kernel builds.
 */

#ifndef SHRIMP_DMA_DMA_ENGINE_HH
#define SHRIMP_DMA_DMA_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "bus/io_bus.hh"
#include "dma/udma_device.hh"
#include "mem/physical_memory.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"

namespace shrimp::dma
{

/** One physically contiguous piece of the memory side of a transfer. */
struct Segment
{
    Addr memAddr = 0;
    std::uint32_t len = 0;
};

/** A programmed transfer. */
struct TransferDesc
{
    /** True: memory -> device. False: device -> memory. */
    bool toDevice = true;

    /** Memory side, as one or more physical segments. */
    std::vector<Segment> segments;

    /** Device side: starting offset in the device proxy window. */
    Addr devOffset = 0;

    /**
     * The physical proxy addresses the initiating references named,
     * kept for the status word's MATCH comparison. Zero when the
     * transfer was kernel-initiated (traditional baseline).
     */
    Addr srcProxyAddr = 0;
    Addr dstProxyAddr = 0;

    /** Invoked (once) when the last byte has been moved. */
    std::function<void()> onComplete;

    std::uint32_t
    totalBytes() const
    {
        std::uint32_t n = 0;
        for (const auto &s : segments)
            n += s.len;
        return n;
    }
};

/** The transfer state machine of Figure 1. */
class DmaEngine
{
  public:
    DmaEngine(sim::EventQueue &eq, const sim::MachineParams &params,
              mem::PhysicalMemory &memory, bus::IoBus &io_bus,
              UdmaDevice &device, std::uint32_t chunk_bytes = 256);

    /** True while a transfer is in progress. */
    bool busy() const { return busy_; }

    /**
     * Program the registers and start the transfer state machine.
     * The descriptor is copied into the registers, reusing their
     * segment storage, so a caller that keeps its descriptor starts
     * transfers without allocating. Checked error if already busy —
     * the UDMA controller and the kernel driver both guarantee mutual
     * exclusion above this layer.
     */
    void start(const TransferDesc &desc);

    /**
     * Abort the running transfer (the Section 5 extension the paper
     * suggests "for dealing with memory system errors"): the engine
     * stops after any chunk already on the bus and does NOT invoke
     * onComplete. Bytes already moved stay moved.
     * @return false if the engine was idle.
     */
    bool abort();

    /** Transfers cancelled via abort(). */
    std::uint64_t transfersAborted() const
    {
        return std::uint64_t(aborted_.value());
    }

    /** COUNT register: bytes not yet transferred. */
    std::uint32_t remaining() const { return left_; }

    /** The active descriptor (nullptr when idle). */
    const TransferDesc *active() const { return busy_ ? &desc_ : nullptr; }

    /**
     * Register-consistency query for the kernel's invariant I4: does
     * the active transfer involve the physical memory page based at
     * @p page_base? Conservative: the whole programmed range counts
     * as busy until completion, mirroring a kernel that reads the
     * SOURCE/DESTINATION registers and declines to reason about how
     * far the transfer has advanced.
     */
    bool pageBusy(Addr page_base) const;

    std::uint64_t transfersCompleted() const
    {
        return std::uint64_t(completed_.value());
    }
    std::uint64_t bytesMoved() const
    {
        return std::uint64_t(bytes_.value());
    }
    std::uint64_t stallEvents() const
    {
        return std::uint64_t(stalls_.value());
    }

    /** End-to-end transfer latencies (us) for completed transfers. */
    const stats::Histogram &transferLatency() const { return xferUs_; }

    /** The engine's registered stats ("engine.*"). */
    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    void step();
    void doChunk(std::uint32_t n);
    void finish();

    /** Current memory-side position. */
    Addr
    memPtr() const
    {
        return desc_.segments[segIdx_].memAddr + segOff_;
    }

    /** Bytes left in the current segment. */
    std::uint32_t
    segLeft() const
    {
        return desc_.segments[segIdx_].len - segOff_;
    }

    void advanceMem(std::uint32_t n);

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    mem::PhysicalMemory &memory_;
    bus::IoBus &ioBus_;
    UdmaDevice &device_;
    std::uint32_t chunkBytes_;

    bool busy_ = false;
    bool chunkInFlight_ = false;
    bool stalled_ = false;
    TransferDesc desc_;
    std::size_t segIdx_ = 0;
    std::uint32_t segOff_ = 0;
    Addr devPtr_ = 0;
    std::uint32_t left_ = 0;
    std::vector<std::uint8_t> buf_;

    stats::Scalar completed_;
    stats::Scalar bytes_;
    stats::Scalar stalls_;
    stats::Scalar aborted_;
    /** Completed-transfer latency, microseconds. */
    stats::Histogram xferUs_{0, 1024, 32};
    /** Ticks spent with a transfer programmed (for the bandwidth
     *  formula; includes aborted time). */
    stats::Scalar busyTicks_;
    /** bytesMoved / busy time, MB/s, evaluated at dump. */
    stats::Formula bandwidth_;
    stats::StatGroup statGroup_{"engine"};
    Tick xferStart_ = 0;
    /** Generation counter: chunk events from a previous (aborted)
     *  transfer must not touch the new one. */
    std::uint64_t generation_ = 0;
};

} // namespace shrimp::dma

#endif // SHRIMP_DMA_DMA_ENGINE_HH
