/**
 * @file
 * The UDMA controller (paper Figures 4 and 5).
 *
 * Sits between the I/O bus and a classic DMA engine. It recognizes
 * physical proxy-space bus cycles, applies PROXY^-1 to memory-proxy
 * addresses, and runs the three-state initiation machine:
 *
 *      Idle --Store--> DestLoaded --Load--> Transferring --done--> Idle
 *
 * with the additional events Inval (STORE of a non-positive byte
 * count; DestLoaded -> Idle) and BadLoad (LOAD from the same proxy
 * region kind as the latched DESTINATION; DestLoaded -> Idle with the
 * WRONG-SPACE flag).
 *
 * Note on the initiation order: per Section 3 and Figure 3 the STORE
 * names the *destination* (latching DESTINATION and COUNT — hence the
 * state name DestLoaded) and the LOAD names the *source* and starts
 * the transfer. (The OCR of the paper's Section 5 swaps the register
 * names; see DESIGN.md.)
 *
 * The controller is deliberately stateless with respect to processes:
 * it cannot see who issued a cycle. Protection comes entirely from
 * the MMU check that happened before the cycle reached the bus, plus
 * the kernel's context-switch Inval (invariant I1).
 *
 * With queue_depth > 0 the Section 7 extension is enabled: completed
 * (STORE, LOAD) pairs are queued while the engine is busy, refused
 * only when the queue is full, and per-page reference counters support
 * the kernel's I4 query without pinning.
 */

#ifndef SHRIMP_DMA_UDMA_CONTROLLER_HH
#define SHRIMP_DMA_UDMA_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bus/io_bus.hh"
#include "dma/dma_engine.hh"
#include "dma/status.hh"
#include "dma/udma_device.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace shrimp::dma
{

/** The state machine of Figure 5 plus the Section 7 queue. */
class UdmaController : public bus::ProxyClient
{
  public:
    /** Architectural state (derived; see state()). */
    enum class State
    {
        Idle,
        DestLoaded,
        Transferring,
    };

    /**
     * @param device_index This device's slot in the address layout.
     * @param queue_depth 0 = basic (paper Sections 3-6); >0 enables
     *        the Section 7 hardware request queue of that many
     *        entries.
     * @param system_queue_depth Depth of the Section 7 "higher
     *        priority queue reserved for the system": kernel-submitted
     *        requests that jump ahead of all queued user requests.
     */
    UdmaController(sim::EventQueue &eq, const sim::MachineParams &params,
                   const vm::AddressLayout &layout,
                   mem::PhysicalMemory &memory, bus::IoBus &io_bus,
                   UdmaDevice &device, unsigned device_index,
                   std::uint32_t queue_depth = 0,
                   std::uint32_t system_queue_depth = 4);

    /**
     * Rename the owner attached to this controller's transfer spans
     * (default "udma<slot>"). Multi-node systems qualify it with the
     * node ("node3.udma0") so span timelines — and the Perfetto
     * tracks TraceSink builds from them — distinguish nodes. Stats
     * group naming is unaffected (the dump layer adds node prefixes
     * itself).
     */
    void setSpanOwner(std::string owner)
    {
        ownerName_ = std::move(owner);
    }

    /**
     * Kernel-priority request (Section 7's two-queue design): the
     * kernel programs a transfer directly — e.g. paging I/O — and it
     * is serviced before any queued user request. Returns false if
     * the system queue is full.
     */
    bool systemRequest(bool to_device, Addr mem_addr, Addr dev_offset,
                       std::uint32_t count,
                       std::function<void()> on_complete = {});

    /**
     * Kernel-only: force Transferring -> Idle, cancelling the running
     * transfer (the Section 5 extension "for dealing with memory
     * system errors that the DMA hardware cannot handle
     * transparently"). Queued requests are unaffected and the next
     * one starts immediately.
     * @return false if no transfer was running.
     */
    bool abortTransfer();

    std::uint64_t transfersAborted() const
    {
        return std::uint64_t(aborts_.value());
    }

    // ProxyClient interface (bus cycles).
    std::uint64_t proxyLoad(const vm::Decoded &decoded,
                            Addr paddr) override;
    void proxyStore(const vm::Decoded &decoded, Addr paddr,
                    std::int64_t value) override;

    /**
     * Hardware Inval: what the kernel's context-switch code triggers
     * with its single STORE of a negative byte count (invariant I1).
     * Clears a partially-initiated sequence; never disturbs a running
     * transfer or queued requests.
     */
    void inval();

    /** Derived architectural state. */
    State
    state() const
    {
        if (engine_.busy() || !queue_.empty() || !systemQueue_.empty())
            return State::Transferring;
        return pending_.valid ? State::DestLoaded : State::Idle;
    }

    /**
     * Invariant-I4 query: is this physical memory page involved in the
     * running transfer or any queued request? (The paper's
     * "reference-count register" / associative queue search.)
     */
    bool pageBusy(Addr page_base) const;

    /** Section 7 per-page reference count (active + queued). */
    std::uint32_t pageRefCount(Addr page_base) const;

    /**
     * Real memory page latched in a pending DESTINATION register, or
     * maxTick-like sentinel if none / destination is a device. The
     * kernel may inval() to clear it before remapping (Section 6, I4).
     */
    bool destLoadedPage(Addr &page_base_out) const;

    // ------------------------------------------- invariant auditing
    /**
     * Install the kernel's owner probe: called at every latching
     * STORE to record which process issued it. Debug bookkeeping for
     * the invariant auditor only — the architectural state machine
     * never reads it (the controller cannot see who owns a cycle).
     */
    void setOwnerProbe(std::function<Pid()> probe)
    {
        ownerProbe_ = std::move(probe);
    }

    /** Pid tagged on the latched destination (invalidPid if idle or
     *  untagged). */
    Pid
    latchOwnerPid() const
    {
        return pending_.valid ? pending_.ownerPid : invalidPid;
    }

    /** (page base, reference count) of one busy page. */
    using PageRef = std::pair<Addr, std::uint32_t>;

    /** Per-page reference counts of the running + queued transfers,
     *  ascending by page; the auditor's I4 view. */
    const std::vector<PageRef> &
    busyPages() const
    {
        return pageRefs_;
    }

    /** Observer fired after every transfer completion (auditing). */
    void setCompletionObserver(std::function<void()> fn)
    {
        completionObserver_ = std::move(fn);
    }

    unsigned deviceIndex() const { return deviceIndex_; }
    UdmaDevice &device() { return device_; }
    const UdmaDevice &device() const { return device_; }
    std::uint32_t queueDepth() const { return queueDepth_; }
    std::size_t queuedRequests() const { return queue_.size(); }
    std::size_t queuedSystemRequests() const
    {
        return systemQueue_.size();
    }
    const DmaEngine &engine() const { return engine_; }

    // Statistics.
    std::uint64_t transfersStarted() const
    {
        return std::uint64_t(started_.value());
    }
    std::uint64_t badLoads() const
    {
        return std::uint64_t(badLoads_.value());
    }
    std::uint64_t invalsApplied() const
    {
        return std::uint64_t(invals_.value());
    }
    std::uint64_t queueRefusals() const
    {
        return std::uint64_t(refusals_.value());
    }
    std::uint64_t statusLoads() const
    {
        return std::uint64_t(statusLoads_.value());
    }

    /** The controller's registered stats ("udmaN.*"). */
    const stats::StatGroup &statGroup() const { return statGroup_; }

    /** The engine's registered stats ("engine.*"). */
    const stats::StatGroup &engineStatGroup() const
    {
        return engine_.statGroup();
    }

  private:
    /** A latched (STORE) destination awaiting its LOAD. */
    struct PendingDest
    {
        bool valid = false;
        Addr paddr = 0;
        vm::Decoded decoded;
        std::uint32_t count = 0;
        /** Lifecycle span opened at the latch. */
        std::uint64_t spanId = 0;
        Tick latchTick = 0;
        /** Issuing process per the owner probe (audit only). */
        Pid ownerPid = invalidPid;
    };

    /** A fully-specified transfer request. */
    struct Request
    {
        bool toDevice = true;
        Addr memAddr = 0;
        Addr devOffset = 0;
        std::uint32_t count = 0;
        Addr srcProxy = 0;
        Addr dstProxy = 0;
        std::uint64_t spanId = 0;
        Tick latchTick = 0;
        /** Kernel completion callback (system requests only). */
        std::function<void()> onDone;
    };

    /**
     * Try to turn (pending_, load) into a transfer. Fills the status
     * word fields that depend on the outcome.
     */
    void tryInitiate(const vm::Decoded &decoded, Addr paddr, Status &st);

    void startRequest(const Request &req);
    void engineDone();
    void serviceNextRequest();
    bool matchesInFlight(Addr paddr) const;
    void addPageRefs(const Request &req, int delta);

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    const vm::AddressLayout &layout_;
    DmaEngine engine_;
    UdmaDevice &device_;
    unsigned deviceIndex_;
    std::uint32_t queueDepth_;

    PendingDest pending_;
    std::deque<Request> queue_;
    std::deque<Request> systemQueue_;
    std::uint32_t systemQueueDepth_;
    Request inFlight_;
    bool inFlightValid_ = false;
    /** The engine's descriptor, reused by every transfer so its
     *  one-segment list keeps its storage. */
    TransferDesc desc_;
    /** Sorted by page. A flat vector: counting pages in and out
     *  allocates nothing once it has reached its high-water mark. */
    std::vector<PageRef> pageRefs_;

    /** Transfers handed to the engine. */
    stats::Scalar started_;
    /** Transfers cancelled by the kernel. */
    stats::Scalar aborts_;
    /** LOADs from the wrong proxy space. */
    stats::Scalar badLoads_;
    /** Inval events that cleared a latch. */
    stats::Scalar invals_;
    /** Requests refused with a full queue. */
    stats::Scalar refusals_;
    /** Proxy LOAD cycles (status reads). */
    stats::Scalar statusLoads_;
    /** Latch (STORE) to transfer start, including queue wait (us). */
    stats::Histogram initiateUs_{0, 256, 16};
    std::string ownerName_;
    stats::StatGroup statGroup_;

    /** Audit bookkeeping (see setOwnerProbe / setCompletionObserver). */
    std::function<Pid()> ownerProbe_;
    std::function<void()> completionObserver_;
};

} // namespace shrimp::dma

#endif // SHRIMP_DMA_UDMA_CONTROLLER_HH
