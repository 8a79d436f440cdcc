/**
 * @file
 * The SHRIMP network interface board (paper Section 8, Figure 6): the
 * device. Two jobs live elsewhere — the selective-repeat transport
 * in shrimp/transport.hh (TxFlow, RxFlow), the wire in
 * Interconnect::hop (shrimp/interconnect.hh) — and this class wires
 * them to the node.
 *
 * Send side ("deliberate update"): the board is a UDMA device. The
 * UDMA engine streams outgoing message data from memory into the
 * outgoing FIFO; the board looks up the destination (remote node +
 * remote physical page) in the NIPT from the device proxy address,
 * and the packetizer (the pump) cuts the FIFO into checksummed chunks,
 * each launched cut-through as its bytes become available while the
 * destination's TxFlow has room for it. Automatic update (Section 9)
 * feeds the same FIFO from snooped stores.
 *
 * Receive side: arriving chunks pass the source's RxFlow, and the
 * in-order ones wait in the incoming FIFO for the receive-side EISA
 * DMA logic, which deposits them directly into physical memory over
 * the receiving node's I/O bus. Delivery of the last byte of a message
 * is observable through an optional callback (benchmarks) and by
 * polling memory (user programs), just like the real system. Every
 * arrival and every drain posts an ack back to the sender.
 *
 * The retransmit timer (`ni.rto`, one per destination) stays here: it
 * is an event, and the transport owns none. It runs whenever the flow
 * wantsTimer(), restarts after every fresh ack, and feeds its expiry
 * to TxFlow::onTimeout().
 *
 * Every cross-node packet goes through Interconnect::hop with this
 * NI's router, which posts it >= one hop into the future; land() is
 * where it arrives, on this node's shard.
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
    /** Tick at which the sender's engine began the transfer. */
    Tick senderStartTick = 0;
    /** Tick at which the last byte became visible in memory. */
    Tick deliveredTick = 0;
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

    std::uint64_t autoUpdatesSent() const { return count(autoSent_); }
    std::uint64_t autoUpdatesCombined() const { return count(autoCombined_); }

    /** Benchmarks: called at each complete message delivery. */
    void
    setDeliveryCallback(std::function<void(const Delivery &)> cb)
    {
        onDelivery_ = std::move(cb);
    }

    std::uint64_t messagesSent() const { return count(sent_); }
    std::uint64_t messagesDelivered() const { return count(delivered_); }
    std::uint64_t bytesDelivered() const { return count(rxBytes_); }
    Tick lastDeliveryTick() const { return lastDelivery_; }

    // ------------------------------------------ reliability counters
    /** Chunks re-sent (fast retransmit + RTO recovery together). */
    std::uint64_t retransmits() const { return count(txStats_.retransmits); }
    /** Chunks re-sent by the SACK-scoreboard fast-retransmit path
     *  (a subset of retransmits()). */
    std::uint64_t
    fastRetransmits() const { return count(txStats_.fastRetransmits); }
    /** Retransmit-timer expiries. */
    std::uint64_t timeouts() const { return count(txStats_.timeouts); }
    /** Acks (cumulative + duplicate) this node sent as a receiver. */
    std::uint64_t acksSent() const { return count(acksSent_); }
    /** Chunks discarded as already-received duplicates. */
    std::uint64_t rxDuplicatesDropped() const { return count(rxDupDropped_); }
    /** Chunks discarded on a checksum mismatch. */
    std::uint64_t rxCorruptDropped() const { return count(rxCorruptDropped_); }
    /** Chunks that arrived past a gap and were resequenced. */
    std::uint64_t
    rxOutOfOrderBuffered() const { return count(rxOooBuffered_); }
    /** Acks this node sent with the ECN (FIFO overcommit) mark. */
    std::uint64_t ecnMarked() const { return count(ecnMarked_); }
    /** Times a sender flow cut its congestion window. */
    std::uint64_t cwndCuts() const { return count(txStats_.cwndCuts); }
    /** Rescue retransmits later proven unnecessary (TxFlow::Stats). */
    std::uint64_t
    rescueSpurious() const { return count(txStats_.rescueSpurious); }

    /**
     * Digest of everything this node's receive DMA deposited in
     * memory: per-source FNV-1a over the payload bytes in sequence
     * order, folded over sources in ascending id. Chunk boundaries
     * are excluded, so a fault-free run and a faulty run that
     * recovered every byte produce the same digest.
     */
    std::uint64_t rxDataDigest() const;

    /** The sender flow toward @p dst, or null if this NI never sent
     *  there (lost-completion traces, tests). */
    const TxFlow *
    txFlow(NodeId dst) const
    {
        return dst < senders_.size() && senders_[dst].flow.isOpen()
                   ? &senders_[dst].flow
                   : nullptr;
    }

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

    // ------------------------------------ the wire (Interconnect::hop)
    /** A chunk for node @p dst lands here, on this node's shard:
     *  receive it, or hop it onward if this node is not @p dst. */
    void land(NodeId dst, Chunk &&chunk);
    /** An ack for flow sender @p dst lands here, likewise. */
    void land(NodeId dst, AckInfo ack);

  private:
    static std::uint64_t
    count(const stats::Scalar &s)
    {
        return std::uint64_t(s.value());
    }

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

    /** A destination's transport state and its retransmit timer. */
    struct Sender
    {
        TxFlow flow;
        sim::EventHandle rto;
    };

    void pump();
    void rxPump();

    /** Append a message to txq_, reusing a spare one's list node and
     *  buffer capacity when there is one. */
    TxMessage &queueMessage(NodeId dst_node, Addr dst_base,
                            std::uint32_t total);

    std::uint32_t txFifoFree() const;

    /** Sender toward @p dst (grown and opened on first use). */
    Sender &senderFor(NodeId dst);
    /** Receiver flow from @p src (grown on first use). */
    RxFlow &rxFlowFor(NodeId src);

    /** Put @p pkt on this node's link toward @p dst. */
    template <typename Packet>
    Tick
    send(NodeId dst, Packet pkt)
    {
        return net_.hop(router_, node_, dst, eq_.now(), std::move(pkt));
    }

    /** Put a clone of a resent chunk on the wire (TxFlow's callable). */
    void resend(NodeId dst, const Chunk &chunk, TxFlow::Resend why);

    /** Arm @p dst's retransmit timer if the flow wants one and none is
     *  pending. */
    void armRetry(NodeId dst);
    void onRetryTimeout(NodeId dst);

    /** A chunk arrives for this node / an ack for one of its flows. */
    void rxDeliver(Chunk &&chunk);
    void rxAck(const AckInfo &ack);

    /** Post the ack (cum + SACK + ECN) for @p src (fault-exposed). */
    void sendAck(NodeId src);

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
    /** Automatic-update packets sent. */
    stats::Scalar autoSent_;
    /** Stores merged into a pending packet by update combining. */
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
    static constexpr std::uint32_t pumpChunkBytes = Payload::capacity;
    /** Senders, indexed by destination NodeId. */
    std::vector<Sender> senders_;
    TxFlow::Stats txStats_;

    // Receive state.
    /** Chunks accepted in order, waiting for the receive DMA. */
    RingQueue<Chunk> rxChunks_;
    /** Incoming-FIFO occupancy. Per-destination sender windows may
     *  transiently overcommit it when several nodes converge on one
     *  receiver (bounded by N x niFifoBytes), like virtual-channel
     *  buffering; the EISA drain rate, not the FIFO, is the
     *  bottleneck either way. */
    std::uint32_t rxFifoBytes_ = 0;
    bool rxDmaBusy_ = false;
    /** Receiver flows, indexed by source NodeId. */
    std::vector<RxFlow> rxFlows_;

    /** Messages launched onto the backplane. */
    stats::Scalar sent_;
    /** Complete messages, and their payload bytes, deposited in
     *  memory. */
    stats::Scalar delivered_;
    stats::Scalar rxBytes_;
    /** Acknowledgments sent, cumulative and duplicate. */
    stats::Scalar acksSent_;
    /** Duplicate chunks discarded at the receiver. */
    stats::Scalar rxDupDropped_;
    /** Checksum-mismatch chunks discarded. */
    stats::Scalar rxCorruptDropped_;
    /** Chunks resequenced after arriving past a gap. */
    stats::Scalar rxOooBuffered_;
    /** Acks sent carrying the ECN overcommit mark. */
    stats::Scalar ecnMarked_;
    /** Sender engine start to last byte in memory, microseconds. */
    stats::Histogram deliveryUs_{0, 1024, 32};
    stats::StatGroup statGroup_{"ni"};
    Tick lastDelivery_ = 0;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_NETWORK_INTERFACE_HH
