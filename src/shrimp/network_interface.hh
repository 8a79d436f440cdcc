/**
 * @file
 * The SHRIMP network interface board (paper Section 8, Figure 6).
 *
 * Send side ("deliberate update"): the board is a UDMA device. The
 * UDMA engine streams outgoing message data from memory into the
 * outgoing FIFO; the board looks up the destination (remote node +
 * remote physical page) in the NIPT from the device proxy address,
 * builds a packet header, and launches the packet onto the backplane
 * cut-through as bytes become available.
 *
 * Receive side: arriving packet data is deposited directly into
 * physical memory by the receive-side EISA DMA logic, which shares the
 * receiving node's I/O bus. Delivery of the last byte of a message is
 * observable through an optional callback (benchmarks) and by polling
 * memory (user programs), just like the real system.
 *
 * Reliability (selective repeat): the backplane may misbehave
 * (shrimp/fault.hh), so each chunk carries an FNV-1a checksummed
 * header with a per-flow sequence number. The receiver discards
 * corrupt chunks, deduplicates, *buffers* out-of-order chunks in a
 * per-source resequencing buffer (bounded by the sender's 64-seq
 * window), and returns a cumulative ack + 64-bit SACK bitmap one hop
 * after its EISA DMA drains a chunk — plus an immediate duplicate ack
 * whenever a chunk lands past a gap, so the sender learns about holes
 * without waiting for a timer. The sender keeps every unacknowledged
 * chunk in a board-side retransmit buffer, marks chunks the bitmap
 * names as received, and re-sends only the missing ones: a hole with
 * three or more SACKed chunks above it is retransmitted immediately
 * (fast retransmit, RFC 6675 style); everything else waits for the
 * RTO, which tracks a Jacobson SRTT/RTTVAR estimate (Karn's rule:
 * retransmitted chunks never feed it) instead of the fixed ladder.
 * After an RTO the sender resends one chunk and then repairs the rest
 * of the window ack-clocked, never re-flooding it blind. On a healthy
 * link no timer fires and the ack doubles as the credit return, so
 * the fault-free fast path is unchanged in shape.
 *
 * Flow control is credit-based and entirely sender-side: each sender
 * holds a credit window per destination, sized to the receiver's
 * incoming FIFO. Launching a chunk consumes credits; the cumulative
 * ack releases them once the receiver's EISA DMA has drained the
 * chunk. A slow receiver therefore backpressures the sender's
 * outgoing FIFO and, through it, the UDMA engine — without the sender
 * ever reading receiver state synchronously, which is what lets nodes
 * run on separate simulation shards (sim/sharded.hh). Layered under
 * the credits sits an AIMD congestion window (transport.hh): the pump
 * keeps outstanding bytes below min(cwnd, credits); cwnd opens at the
 * full credit size, halves when loss is detected or when an ack
 * arrives ECN-marked (the receiver's FIFO was overcommitted by
 * converging senders), collapses to one chunk on RTO, and recovers by
 * slow start then additive increase. Hot receivers thus shed load
 * smoothly instead of collapsing under retransmit storms.
 *
 * All cross-node traffic (chunk deliveries and acks) is posted
 * through a sim::NodeRouter (the System's sharded engine) at >= one
 * hop in the future (delayed or duplicated chunks land even later,
 * never earlier, so the engine's lookahead rule holds under faults).
 *
 * A chunk's payload is a pooled net::Payload (transport.hh) with one
 * owner at a time: the sender's retransmit buffer keeps the pristine
 * copy until the cumulative ack retires it; each transmission puts a
 * clone on the wire, owned by the ni.deliver / ni.fwd event that
 * carries it; the receiver holds it in its resequencing buffer or
 * receive queue until the receive DMA has written it to memory. No
 * chunk allocates in steady state, and no NI event capture outgrows
 * the event record's inline buffer.
 *
 * On a mesh/torus topology (sim::TopologyConfig) packets are
 * forwarded hop by hop along the dimension-order route: every
 * intermediate node's NI re-launches the chunk (or ack) onto its own
 * outgoing link, arbitrating that physical link from its own shard
 * and consulting the fault model for that specific link. Each forward
 * is itself a cross-node post one single-hop floor in the future, so
 * the per-hop lookahead contract composes into the distance-scaled
 * Interconnect::minDeliveryLatency the sharded engine builds its
 * matrix from. Dimension-order routing keeps every chunk of a flow on
 * the same links, preserving per-flow FIFO order on a healthy wire —
 * but per-chunk Delay faults still reorder within a link, which is
 * why the rescue-retransmit rule waits out a round trip before
 * treating post-resend SACKs as proof of loss (rescueSpurious counts
 * the rescues that evidence later contradicted).
 */

#ifndef SHRIMP_SHRIMP_NETWORK_INTERFACE_HH
#define SHRIMP_SHRIMP_NETWORK_INTERFACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <vector>

#include "bus/io_bus.hh"
#include "dma/status.hh"
#include "dma/udma_device.hh"
#include "mem/physical_memory.hh"
#include "shrimp/interconnect.hh"
#include "shrimp/nipt.hh"
#include "shrimp/transport.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"

namespace shrimp::sim
{
class NodeRouter;
} // namespace shrimp::sim

namespace shrimp::net
{

/** Delivery notification (used by benchmarks and tests). */
struct Delivery
{
    NodeId srcNode = 0;
    Addr dstPhysAddr = 0;
    std::uint32_t bytes = 0;
    /** Tick at which the sender's engine began the transfer. */
    Tick senderStartTick = 0;
    /** Tick at which the last byte became visible in memory. */
    Tick deliveredTick = 0;
};

/**
 * The simulated wire header of one chunk. Every field is covered by
 * the checksum together with the payload, so any corruption en route
 * is detected at the receiver. The field order packs it into 40
 * bytes, so a hop's event capture (peer, header, payload handle) fits
 * EventCallback's inline buffer; the checksum hashes the fields by
 * name, so the order is not part of the wire format.
 */
struct ChunkHeader
{
    NodeId src = 0;
    bool msgStart = false;
    bool msgEnd = false;
    std::uint64_t seq = 0;
    Addr dstAddr = 0;
    Tick senderStart = 0;
    std::uint64_t checksum = 0;
};
static_assert(sizeof(ChunkHeader) == 40, "keep the hop captures inline");

/** FNV-1a over the header fields and the payload bytes. */
std::uint64_t chunkChecksum(NodeId src, std::uint64_t seq,
                            Addr dst_addr, bool msg_start, bool msg_end,
                            const std::uint8_t *data, std::size_t len);

/** Debug/trace view of one sender flow (model checker, tests). */
struct TxFlowDebug
{
    NodeId dst = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t cumAcked = 0;
    std::uint64_t unackedChunks = 0;
    std::uint64_t unackedBytes = 0;
    /** Chunks the receiver has SACKed but not yet drained. */
    std::uint64_t sackedChunks = 0;
    /** Consecutive acks seen with no cumulative progress. */
    std::uint64_t dupAcks = 0;
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    /** Smoothed RTT (0 before the first sample) and current RTO. */
    double srttUs = 0;
    double rtoUs = 0;
    /** Ack-clocked RTO recovery is repairing the window. */
    bool inRecovery = false;
    /** Contiguous [first, last] runs of SACKed seqs in the window. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sackRanges;
};

/**
 * A FIFO over a power-of-two ring that doubles when full and never
 * shrinks: once it has reached its high-water mark it pushes and pops
 * without allocating, where a std::deque frees and reallocates blocks
 * as its contents slide.
 */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count_ == 0; }
    T &front() { return slots_[head_]; }

    void
    push_back(T item)
    {
        if (count_ == slots_.size())
            grow();
        slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(item);
        ++count_;
    }

    T
    pop_front()
    {
        T item = std::move(slots_[head_]);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
        return item;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 16 : 2 * slots_.size());
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** One node's SHRIMP NI. */
class NetworkInterface : public dma::UdmaDevice
{
  public:
    /** @param router Carries every cross-node delivery and ack. */
    NetworkInterface(sim::EventQueue &eq, sim::NodeRouter &router,
                     const sim::MachineParams &params, NodeId node,
                     mem::PhysicalMemory &memory, bus::IoBus &io_bus,
                     Interconnect &net, std::uint32_t page_bytes);

    NodeId node() const { return node_; }
    Nipt &nipt() { return nipt_; }
    const Nipt &nipt() const { return nipt_; }

    // --------------------------------- automatic update (Section 9)
    /**
     * Bind a local physical page to a remote page for automatic
     * update: the board snoops ordinary stores to the page and
     * propagates them to the remote node ("the automatic update
     * transfer strategy described in [5], which still relies upon
     * fixed mappings between source and destination pages").
     */
    void mapAutoUpdate(Addr local_page_base, NodeId dst_node,
                       std::uint64_t dst_page);

    /** Remove an automatic-update binding. */
    void unmapAutoUpdate(Addr local_page_base);

    /** True if the page has an automatic-update binding. */
    bool autoUpdateBound(Addr local_page_base) const;

    /**
     * Bus snooper: called by the node for every memory store. If the
     * written page is bound, the (address, value) update enters the
     * outgoing FIFO — combined with a contiguous predecessor when
     * possible, as the SHRIMP board's update-combining hardware does.
     * @return true if the store was captured for propagation.
     */
    bool snoopStore(Addr paddr, std::uint64_t value);

    /** Flush the write-combining buffer immediately (also fired by
     *  the combining-window timer). */
    void flushAutoUpdates();

    std::uint64_t autoUpdatesSent() const
    {
        return std::uint64_t(autoSent_.value());
    }
    std::uint64_t autoUpdatesCombined() const
    {
        return std::uint64_t(autoCombined_.value());
    }

    /** Benchmarks: called at each complete message delivery. */
    void
    setDeliveryCallback(std::function<void(const Delivery &)> cb)
    {
        onDelivery_ = std::move(cb);
    }

    std::uint64_t messagesSent() const
    {
        return std::uint64_t(sent_.value());
    }
    std::uint64_t messagesDelivered() const
    {
        return std::uint64_t(delivered_.value());
    }
    std::uint64_t bytesDelivered() const
    {
        return std::uint64_t(rxBytes_.value());
    }
    Tick lastDeliveryTick() const { return lastDelivery_; }

    // ------------------------------------------ reliability counters
    /** Chunks re-sent (fast retransmit + RTO recovery together). */
    std::uint64_t retransmits() const
    {
        return std::uint64_t(retransmits_.value());
    }
    /** Chunks re-sent by the SACK-scoreboard fast-retransmit path
     *  (a subset of retransmits()). */
    std::uint64_t fastRetransmits() const
    {
        return std::uint64_t(fastRetransmits_.value());
    }
    /** Retransmit-timer expiries. */
    std::uint64_t timeouts() const
    {
        return std::uint64_t(timeouts_.value());
    }
    /** Acks (cumulative + duplicate) this node sent as a receiver. */
    std::uint64_t acksSent() const
    {
        return std::uint64_t(acksSent_.value());
    }
    /** Chunks discarded as already-received duplicates. */
    std::uint64_t rxDuplicatesDropped() const
    {
        return std::uint64_t(rxDupDropped_.value());
    }
    /** Chunks discarded on a checksum mismatch. */
    std::uint64_t rxCorruptDropped() const
    {
        return std::uint64_t(rxCorruptDropped_.value());
    }
    /** Chunks that arrived past a gap and were resequenced. */
    std::uint64_t rxOutOfOrderBuffered() const
    {
        return std::uint64_t(rxOooBuffered_.value());
    }
    /** Acks this node sent with the ECN (FIFO overcommit) mark. */
    std::uint64_t ecnMarked() const
    {
        return std::uint64_t(ecnMarked_.value());
    }
    /** Times a sender flow halved its congestion window. */
    std::uint64_t cwndCuts() const
    {
        return std::uint64_t(cwndCuts_.value());
    }
    /** Rescue retransmits later proven unnecessary: the chunk was
     *  SACKed (or cum-acked) sooner than the rescue copy could even
     *  have completed a round trip, so the ack answered an earlier
     *  copy that was merely reordered, not lost. */
    std::uint64_t rescueSpurious() const
    {
        return std::uint64_t(rescueSpurious_.value());
    }

    /**
     * Digest of everything this node's receive DMA deposited in
     * memory: per-source FNV-1a over the payload bytes in sequence
     * order, folded over sources in ascending id. Chunk boundaries
     * are excluded, so a fault-free run and a faulty run that
     * recovered every byte produce the same digest.
     */
    std::uint64_t rxDataDigest() const;

    /** Sender-flow snapshots (lost-completion traces, tests). */
    std::vector<TxFlowDebug> txFlowDebug() const;

    /** Sender-start to last-byte delivery latencies (us). */
    const stats::Histogram &deliveryLatency() const
    {
        return deliveryUs_;
    }

    /** The NI's registered stats ("ni.*"). */
    const stats::StatGroup &statGroup() const { return statGroup_; }

    // ------------------------------------------- UdmaDevice interface
    std::string deviceName() const override { return "shrimp-ni"; }

    std::uint8_t validateTransfer(bool to_device, Addr dev_offset,
                                  std::uint32_t nbytes) override;
    std::uint64_t deviceBoundary(Addr dev_offset) const override;
    std::uint32_t pushCapacity(Addr dev_offset,
                               std::uint32_t want) override;
    void devicePush(Addr dev_offset, const std::uint8_t *data,
                    std::uint32_t len) override;
    std::uint32_t pullAvailable(Addr dev_offset,
                                std::uint32_t want) override;
    void devicePull(Addr dev_offset, std::uint8_t *out,
                    std::uint32_t len) override;
    void setEngineWakeup(std::function<void()> wakeup) override;
    void transferStarting(bool to_device, Addr dev_offset,
                          std::uint32_t nbytes) override;
    void transferFinished(bool to_device, Addr dev_offset,
                          std::uint32_t nbytes) override;
    Tick startLatency(bool to_device, Addr dev_offset) const override;
    std::uint64_t proxyExtentBytes() const override;
    bool allowProxyMap(std::uint64_t first_page, std::uint64_t n_pages,
                       bool writable) const override;

    // ------------------------------------ receive side (peer-facing)
    // Both entry points run on *this* node's shard: peers never call
    // them synchronously, they post events through the router.

    /** A chunk arrives from the backplane; the NI takes its payload. */
    void rxDeliver(const ChunkHeader &h, Payload data);

    /**
     * A chunk in transit toward @p dst arrives at this intermediate
     * node (mesh/torus multi-hop): re-launch it onto this node's
     * outgoing link on the dimension-order route. Runs on this node's
     * shard, so the link arbitration and the per-link fault draw are
     * canonically ordered.
     */
    void forwardChunk(NodeId dst, const ChunkHeader &h, Payload data);

    /** An ack in transit toward flow sender @p dst arrives at this
     *  intermediate node: re-launch it (control path) likewise. */
    void forwardAck(NodeId dst, NodeId origin, AckInfo ack);

    /**
     * An acknowledgment from node @p dst: `ack.cum` says its receive
     * DMA has drained every chunk of ours below that sequence number
     * (releasing those chunks' credits and retransmit-buffer slots),
     * the SACK bitmap names chunks received past the gap, and the ECN
     * mark reports receive-FIFO overcommit. Drives the SACK
     * scoreboard, the RTT estimator, and the congestion window.
     */
    void rxAck(NodeId dst, AckInfo ack);

  private:
    /** One message in the outgoing FIFO. The pump copies each chunk
     *  of it out of its buffer into a pooled Payload. */
    struct TxMessage
    {
        NodeId dstNode = 0;
        Addr dstBase = 0;
        std::uint32_t total = 0;
        std::uint32_t pushed = 0;
        std::uint32_t launched = 0;
        Tick startTick = 0;
        /** The engine's transfer was aborted: total was cut to the
         *  pushed prefix, and no chunk of it may carry msgEnd. */
        bool aborted = false;
        std::vector<std::uint8_t> data;
    };

    /**
     * One unacknowledged chunk in the board's retransmit buffer. It
     * owns the pristine payload; every (re)transmission puts a clone
     * on the wire, which the fault model may mangle, and the payload
     * is released when the cumulative ack retires the chunk.
     */
    struct TxChunk
    {
        /** The wire header, checksum included (src is this node). */
        ChunkHeader h;
        Payload data;
        /** First-transmission tick (RTT sampling; Karn's rule). */
        Tick firstSent = 0;
        /** SACK scoreboard: the receiver holds this chunk. */
        bool sacked = false;
        /** Already resent since the last RTO epoch began. */
        bool epochResent = false;
        /** TxFlow::sackSerial at the last resend: once three more
         *  SACK marks land while this chunk stays unSACKed, the
         *  resend itself probably got lost and the scoreboard may
         *  rescue-retransmit it without waiting for the RTO. The
         *  serial alone is not proof — per-chunk Delay faults reorder
         *  chunks within one link — so the rescue also waits out a
         *  round trip from lastResend (see fastRetransmitPass). */
        std::uint64_t resendSerial = 0;
        /** Tick of the most recent resend (any recovery path). */
        Tick lastResend = 0;
        /** This chunk's latest resend was a rescue retransmit; the
         *  tick lets the scoreboard recognize a spurious rescue when
         *  an ack answers an earlier copy first. */
        bool rescued = false;
        Tick rescueTick = 0;
        /** Ever retransmitted (disqualifies its RTT sample). */
        bool rexmitted = false;
    };

    /** Per-destination sender state (window, seq, retransmit). */
    struct TxFlow
    {
        std::uint32_t credits = 0;
        bool inited = false;
        std::uint64_t nextSeq = 0;
        std::uint64_t cumAcked = 0;
        /** The retransmit buffer: exactly seqs [cumAcked, nextSeq),
         *  at most sackWindow of them (pump's sequence window). */
        SeqWindow<TxChunk> unacked;
        sim::EventHandle retryEvent;
        Tick retryTimeout = 0;
        RttEstimator rtt;
        CongestionWindow cwnd;
        /** Acks seen with no cumulative progress while data is out. */
        std::uint64_t dupAcks = 0;
        /** Monotone count of chunks newly SACKed on this flow — the
         *  evidence clock the rescue-retransmit rule compares
         *  TxChunk::resendSerial against. */
        std::uint64_t sackSerial = 0;
        /** Ack-clocked repair after an RTO runs until cumAcked
         *  reaches this (the nextSeq at expiry). */
        std::uint64_t recoveryPoint = 0;
        bool inRtoRecovery = false;
        /** cwnd cuts are rate-limited to one per flight: no new cut
         *  until the cum ack passes the nextSeq of the last cut. */
        std::uint64_t lastCwndCutSeq = 0;
    };

    /** A received chunk: it owns the wire copy's payload from
     *  arrival until the receive DMA drains it into memory. */
    struct RxChunk
    {
        ChunkHeader h;
        Payload data;
    };

    /** Per-source receiver state (dedup, resequencing, digest). */
    struct RxFlow
    {
        /** Next in-order sequence number (everything below arrived). */
        std::uint64_t expected = 0;
        /** Chunks fully drained into memory (the cumulative ack). */
        std::uint64_t drained = 0;
        /** FNV-1a over drained payload bytes, in sequence order. */
        std::uint64_t dataDigest = 0x6368756e6b646967ull;
        bool touched = false;
        /**
         * Resequencing buffer: chunks received past a gap, keyed by
         * seq. Every one lies in (expected, drained + sackWindow): the
         * sender never launches past cumAcked + 64, and cumAcked
         * never exceeds our drain watermark.
         */
        SeqWindow<RxChunk> ooo;
    };

    void pump();
    void rxPump();

    /** Append a message to txq_, reusing a spare one's list node and
     *  buffer capacity when there is one. */
    TxMessage &queueMessage(NodeId dst_node, Addr dst_base,
                            std::uint32_t total);

    std::uint32_t txFifoFree() const;

    /** Sender flow toward @p dst (grown on first use). */
    TxFlow &flowFor(NodeId dst);
    /** Receiver flow from @p src (grown on first use). */
    RxFlow &rxFlowFor(NodeId src);

    /**
     * Put one chunk on the wire toward @p dst: retransmit accounting
     * plus the first launchChunk hop of a clone of its payload.
     * Returns the injection-complete tick.
     */
    Tick transmit(NodeId dst, const TxChunk &chunk, bool retransmit);

    /**
     * One hop of a chunk's route toward @p dst: occupies this node's
     * outgoing physical link, consults that link's fault stream, and
     * posts either the delivery (last hop) or the next forward, whose
     * capture takes @p payload over (a dropped chunk's is released
     * here). Returns the injection-complete tick. Shared by the
     * sender's transmit() and every intermediate forwardChunk().
     */
    Tick launchChunk(NodeId dst, const ChunkHeader &h, Payload payload);

    /** One hop of an ack's route toward flow sender @p dst (control
     *  path: the link may drop or delay it, never corrupt). */
    void launchAck(NodeId dst, NodeId origin, AckInfo ack);

    /** The smallest possible send->ack round trip toward @p dst: the
     *  distance-scaled delivery floor both ways. An ack that lands
     *  sooner than this after a resend cannot be answering it. */
    Tick wireRoundTripFloor(NodeId dst) const;

    /** Arm the per-flow retransmit timer if it is not running. */
    void armRetry(NodeId dst, TxFlow &flow);
    /** Timer expiry: resend the first hole, enter ack-clocked
     *  recovery, collapse cwnd, back off, re-arm. */
    void onRetryTimeout(NodeId dst);

    /**
     * SACK scoreboard pass: fast-retransmit every hole with >= 3
     * SACKed chunks above it that was not already resent this epoch.
     * Returns true if anything was resent (a loss signal for cwnd).
     */
    bool fastRetransmitPass(NodeId dst, TxFlow &flow);

    /** Halve cwnd, at most once per flight (loss or ECN signal). */
    void cutWindow(TxFlow &flow);

    /** Bytes in flight toward this flow's destination. */
    std::uint32_t inflightBytes(const TxFlow &flow) const;

    /** Post the ack (cum + SACK + ECN) for @p src (fault-exposed). */
    void sendAck(NodeId src);

    /** Post an event to @p dst through the router. */
    void postToNode(NodeId dst, Tick when, const char *name,
                    sim::EventCallback fn);

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    sim::NodeRouter &router_;
    NodeId node_;
    mem::PhysicalMemory &memory_;
    bus::IoBus &ioBus_;
    Interconnect &net_;
    std::uint32_t pageBytes_;

    Nipt nipt_;
    std::function<void()> engineWakeup_;
    std::function<void(const Delivery &)> onDelivery_;

    struct AutoUpdateEntry
    {
        NodeId dstNode = 0;
        std::uint64_t dstPage = 0;
    };
    std::map<Addr, AutoUpdateEntry> autoTable_;

    /** The write-combining buffer: one open update packet, held
     *  inline (snoopStore combines up to 512 bytes). */
    struct PendingAuto
    {
        bool valid = false;
        NodeId dstNode = 0;
        Addr dstBase = 0;
        std::uint32_t len = 0;
        std::array<std::uint8_t, 512> data{};
    };
    PendingAuto pendingAuto_;
    sim::EventHandle autoFlushEvent_;
    stats::Scalar autoSent_;
    stats::Scalar autoCombined_;

    // Transmit state.
    /** The outgoing FIFO's messages, oldest first. A list, so a
     *  message stays put while engineMsg_ or a pending ni.pump points
     *  at it. */
    std::list<TxMessage> txq_;
    /** Retired messages, spliced out of txq_ and back in by
     *  queueMessage() with their buffers: at most maxSpareMsgs. */
    std::list<TxMessage> spareMsgs_;
    static constexpr std::size_t maxSpareMsgs = 4;
    /** The message the UDMA engine is currently filling. */
    TxMessage *engineMsg_ = nullptr;
    std::uint32_t txFifoBytes_ = 0;
    bool pumpBusy_ = false;
    static constexpr std::uint32_t pumpChunkBytes = 256;
    /** Sender flows, indexed by destination NodeId. */
    std::vector<TxFlow> txFlows_;
    /** A hole fastRetransmitPass resends: its seq, and whether it is
     *  a rescue of an earlier resend. */
    struct RtxHole
    {
        std::uint64_t seq;
        bool rescue;
    };
    /** fastRetransmitPass's scratch list, kept to reuse its storage. */
    std::vector<RtxHole> rtxHoles_;

    // Receive state.
    /** Chunks accepted in order, waiting for the receive DMA. */
    RingQueue<RxChunk> rxChunks_;
    /** Incoming-FIFO occupancy. Per-destination sender windows may
     *  transiently overcommit it when several nodes converge on one
     *  receiver (bounded by N x niFifoBytes), like virtual-channel
     *  buffering; the EISA drain rate, not the FIFO, is the
     *  bottleneck either way. */
    std::uint32_t rxFifoBytes_ = 0;
    bool rxDmaBusy_ = false;
    /** Receiver flows, indexed by source NodeId. */
    std::vector<RxFlow> rxFlows_;

    stats::Scalar sent_;
    stats::Scalar delivered_;
    stats::Scalar rxBytes_;
    stats::Scalar retransmits_;
    stats::Scalar fastRetransmits_;
    stats::Scalar timeouts_;
    stats::Scalar acksSent_;
    stats::Scalar rxDupDropped_;
    stats::Scalar rxCorruptDropped_;
    stats::Scalar rxOooBuffered_;
    stats::Scalar ecnMarked_;
    stats::Scalar cwndCuts_;
    stats::Scalar rescueSpurious_;
    /** Sender engine start to last byte in memory, microseconds. */
    stats::Histogram deliveryUs_{0, 1024, 32};
    stats::StatGroup statGroup_{"ni"};
    Tick lastDelivery_ = 0;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_NETWORK_INTERFACE_HH
