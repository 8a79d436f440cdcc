#include "shrimp/network_interface.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/trace.hh"

namespace shrimp::net
{

NetworkInterface::NetworkInterface(sim::EventQueue &eq,
                                   sim::NodeRouter &router,
                                   const sim::MachineParams &params,
                                   NodeId node,
                                   mem::PhysicalMemory &memory,
                                   bus::IoBus &io_bus, Interconnect &net,
                                   std::uint32_t page_bytes)
    : eq_(eq), params_(params), router_(router), node_(node),
      memory_(memory), ioBus_(io_bus), net_(net), pageBytes_(page_bytes)
{
    net_.attach(node, this);

    statGroup_.addScalar("messagesSent", &sent_);
    statGroup_.addScalar("messagesDelivered", &delivered_);
    statGroup_.addScalar("bytesDelivered", &rxBytes_);
    statGroup_.addScalar("autoUpdatesSent", &autoSent_);
    statGroup_.addScalar("autoUpdatesCombined", &autoCombined_);
    statGroup_.addScalar("retransmits", &txStats_.retransmits);
    statGroup_.addScalar("fastRetransmits", &txStats_.fastRetransmits);
    statGroup_.addScalar("timeouts", &txStats_.timeouts);
    statGroup_.addScalar("acksSent", &acksSent_);
    statGroup_.addScalar("rxDupDropped", &rxDupDropped_);
    statGroup_.addScalar("rxCorruptDropped", &rxCorruptDropped_);
    statGroup_.addScalar("rxOooBuffered", &rxOooBuffered_);
    statGroup_.addScalar("ecnMarked", &ecnMarked_);
    statGroup_.addScalar("cwndCuts", &txStats_.cwndCuts);
    statGroup_.addScalar("rescueSpurious", &txStats_.rescueSpurious);
    statGroup_.addHistogram("delivery_us", &deliveryUs_);
}

// --------------------------------------------------------------------
// UdmaDevice interface (the transmit side)
// --------------------------------------------------------------------

std::uint8_t
NetworkInterface::validateTransfer(bool to_device, Addr dev_offset,
                                   std::uint32_t nbytes)
{
    using namespace dma;
    // Deliberate update is memory -> network only; the receive path
    // has its own DMA logic (so invariant I3 is unnecessary here, as
    // the paper notes in Section 8).
    if (!to_device)
        return device_error::direction;
    // "...outgoing message data aligned on 4-byte boundaries..."
    if (dev_offset % 4 != 0 || nbytes % 4 != 0)
        return device_error::alignment;
    std::size_t idx = (dev_offset / pageBytes_) & (Nipt::numEntries - 1);
    if (!nipt_.get(idx).valid)
        return device_error::range;
    return device_error::none;
}

std::uint64_t
NetworkInterface::deviceBoundary(Addr dev_offset) const
{
    // Each NIPT entry names one remote page; a transfer cannot cross
    // into the next proxy page.
    return pageBytes_ - dev_offset % pageBytes_;
}

Tick
NetworkInterface::startLatency(bool to_device, Addr dev_offset) const
{
    (void)to_device;
    (void)dev_offset;
    // NIPT lookup and packet header construction.
    return params_.niptLookup();
}

void
NetworkInterface::transferStarting(bool to_device, Addr dev_offset,
                                   std::uint32_t nbytes)
{
    SHRIMP_ASSERT(to_device, "NI receive transfers are not UDMA");
    std::size_t idx = (dev_offset / pageBytes_) & (Nipt::numEntries - 1);
    const NiptEntry &e = nipt_.get(idx);
    SHRIMP_ASSERT(e.valid, "transfer started against invalid NIPT entry");

    SHRIMP_ASSERT(!engineMsg_, "engine already has an open message");
    engineMsg_ = &queueMessage(
        e.dstNode, e.dstPage * pageBytes_ + dev_offset % pageBytes_,
        nbytes);
    engineMsg_->data.reserve(nbytes);
    ++sent_;
    trace::log(eq_.now(), trace::Category::Ni, "node ", node_,
               " deliberate update: ", nbytes, " B -> node ",
               e.dstNode, " paddr ", engineMsg_->dstBase);
}

void
NetworkInterface::transferFinished(bool to_device, Addr dev_offset,
                                   std::uint32_t nbytes)
{
    (void)to_device;
    (void)dev_offset;
    (void)nbytes;
    TxMessage *msg = std::exchange(engineMsg_, nullptr);
    if (msg && msg->pushed < msg->total) {
        // Aborted transfer: truncate the message so the pump can
        // launch and retire what was already pushed instead of
        // waiting forever. The receiver gets that prefix but no
        // completion: no chunk of the message carries msgEnd.
        msg->total = msg->pushed;
        msg->aborted = true;
        pump();
    }
}

NetworkInterface::TxMessage &
NetworkInterface::queueMessage(NodeId dst_node, Addr dst_base,
                               std::uint32_t total)
{
    if (spareMsgs_.empty())
        txq_.emplace_back();
    else
        txq_.splice(txq_.end(), spareMsgs_, spareMsgs_.begin());
    TxMessage &msg = txq_.back();
    std::vector<std::uint8_t> buf = std::move(msg.data);
    buf.clear();
    msg = TxMessage{.dstNode = dst_node,
                    .dstBase = dst_base,
                    .total = total,
                    .startTick = eq_.now(),
                    .data = std::move(buf)};
    return msg;
}

std::uint32_t
NetworkInterface::txFifoFree() const
{
    // The automatic-update snooper may transiently overshoot the
    // FIFO (its small staging queue backpressures the memory bus on
    // the real board); clamp so the engine sees zero capacity then.
    return params_.niFifoBytes > txFifoBytes_
               ? params_.niFifoBytes - txFifoBytes_
               : 0;
}

// --------------------------------------------------------------------
// Automatic update (Section 9): snooped stores propagate directly
// --------------------------------------------------------------------

void
NetworkInterface::mapAutoUpdate(Addr local_page_base, NodeId dst_node,
                                std::uint64_t dst_page)
{
    SHRIMP_ASSERT(local_page_base % pageBytes_ == 0,
                  "binding must be page-aligned");
    autoTable_[local_page_base] = AutoUpdateEntry{dst_node, dst_page};
}

void
NetworkInterface::unmapAutoUpdate(Addr local_page_base)
{
    autoTable_.erase(local_page_base);
}

bool
NetworkInterface::autoUpdateBound(Addr local_page_base) const
{
    return autoTable_.count(local_page_base) != 0;
}

bool
NetworkInterface::snoopStore(Addr paddr, std::uint64_t value)
{
    Addr page = paddr - paddr % pageBytes_;
    auto it = autoTable_.find(page);
    if (it == autoTable_.end())
        return false;

    Addr dst_addr =
        it->second.dstPage * pageBytes_ + paddr % pageBytes_;
    std::uint8_t bytes[8];
    std::memcpy(bytes, &value, 8);

    // Write combining: append to the open packet while successive
    // stores stay contiguous (and the packet stays small).
    if (pendingAuto_.valid
            && pendingAuto_.dstNode == it->second.dstNode
            && pendingAuto_.dstBase + pendingAuto_.len == dst_addr
            && pendingAuto_.len < pendingAuto_.data.size() - 8) {
        std::memcpy(pendingAuto_.data.data() + pendingAuto_.len, bytes,
                    8);
        pendingAuto_.len += 8;
        ++autoCombined_;
        return true;
    }

    // Non-contiguous (or no open packet): flush and open a new one.
    flushAutoUpdates();
    pendingAuto_.valid = true;
    pendingAuto_.dstNode = it->second.dstNode;
    pendingAuto_.dstBase = dst_addr;
    std::memcpy(pendingAuto_.data.data(), bytes, 8);
    pendingAuto_.len = 8;
    autoFlushEvent_ = eq_.scheduleIn(
        params_.autoCombineWindow(), "ni.autoflush",
        [this] {
            autoFlushEvent_ = sim::EventHandle();
            flushAutoUpdates();
        },
        sim::EventPriority::DeviceCompletion);
    return true;
}

void
NetworkInterface::flushAutoUpdates()
{
    if (!pendingAuto_.valid)
        return;
    if (autoFlushEvent_.valid()) {
        eq_.deschedule(autoFlushEvent_);
        autoFlushEvent_ = sim::EventHandle();
    }
    TxMessage &msg = queueMessage(pendingAuto_.dstNode,
                                  pendingAuto_.dstBase, pendingAuto_.len);
    msg.pushed = msg.total;
    msg.data.assign(pendingAuto_.data.begin(),
                    pendingAuto_.data.begin() + pendingAuto_.len);
    // Control packets enter unconditionally, even into a near-full
    // FIFO: they are tiny, the channel-layer credit protocol bounds
    // how many can be outstanding, and snoopStore reuses pendingAuto_
    // immediately after this call, so deferring would lose them. The
    // engine's data path is the one throttled by pushCapacity().
    txFifoBytes_ += msg.total;
    pendingAuto_.valid = false;
    pendingAuto_.len = 0;
    ++autoSent_;
    ++sent_;
    trace::log(eq_.now(), trace::Category::Ni, "node ", node_,
               " automatic update packet flushed");
    pump();
}

std::uint32_t
NetworkInterface::pushCapacity(Addr dev_offset, std::uint32_t want)
{
    (void)dev_offset;
    return std::min(want, txFifoFree());
}

void
NetworkInterface::devicePush(Addr dev_offset, const std::uint8_t *data,
                             std::uint32_t len)
{
    (void)dev_offset;
    // Push into the engine's own message: automatic-update packets
    // may have been appended to the queue in the meantime.
    SHRIMP_ASSERT(engineMsg_, "push with no open message");
    TxMessage &msg = *engineMsg_;
    SHRIMP_ASSERT(msg.pushed + len <= msg.total, "push overflow");
    // This burst's capacity was granted at pushCapacity() time, one
    // bus-burst latency ago; an automatic-update packet may have
    // claimed FIFO space in that window (it can happen whenever the
    // FIFO runs near-full, e.g. a flow-credit stall on a faulty
    // backplane). Real hardware would have wait-stated the burst's
    // words into the draining FIFO, so accept the transient
    // overshoot: txFifoFree() clamps at zero and keeps the *next*
    // capacity grant honest.
    msg.data.insert(msg.data.end(), data, data + len);
    msg.pushed += len;
    txFifoBytes_ += len;
    pump();
}

std::uint32_t
NetworkInterface::pullAvailable(Addr dev_offset, std::uint32_t want)
{
    (void)dev_offset;
    (void)want;
    panic("SHRIMP NI is not a UDMA source device");
}

void
NetworkInterface::devicePull(Addr dev_offset, std::uint8_t *out,
                             std::uint32_t len)
{
    (void)dev_offset;
    (void)out;
    (void)len;
    panic("SHRIMP NI is not a UDMA source device");
}

void
NetworkInterface::setEngineWakeup(std::function<void()> wakeup)
{
    engineWakeup_ = std::move(wakeup);
}

std::uint64_t
NetworkInterface::proxyExtentBytes() const
{
    return std::uint64_t(Nipt::numEntries) * pageBytes_;
}

bool
NetworkInterface::allowProxyMap(std::uint64_t first_page,
                                std::uint64_t n_pages,
                                bool writable) const
{
    // Outgoing proxy pages are write-only in spirit; we require the
    // mapping to be writable (a read-only send page is useless) and
    // every named NIPT entry to be programmed.
    (void)writable;
    for (std::uint64_t i = 0; i < n_pages; ++i) {
        if (!nipt_.get(std::size_t(first_page + i)).valid)
            return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Packet pump: outgoing FIFO -> backplane (cut-through)
// --------------------------------------------------------------------

NetworkInterface::Sender &
NetworkInterface::senderFor(NodeId dst)
{
    if (dst >= senders_.size())
        senders_.resize(dst + 1);
    Sender &s = senders_[dst];
    if (!s.flow.isOpen()) {
        s.flow.open({.params = &params_,
                     .wireRoundTrip = net_.minDeliveryLatency(node_, dst)
                                      + net_.minDeliveryLatency(dst, node_),
                     .faults = &net_.faults().config(),
                     .stats = &txStats_});
    }
    return s;
}

RxFlow &
NetworkInterface::rxFlowFor(NodeId src)
{
    if (src >= rxFlows_.size())
        rxFlows_.resize(src + 1);
    return rxFlows_[src];
}

void
NetworkInterface::pump()
{
    if (pumpBusy_)
        return;
    // Retire fully-launched messages from the front.
    while (!txq_.empty()
           && txq_.front().launched == txq_.front().total) {
        SHRIMP_ASSERT(engineMsg_ != &txq_.front(),
                      "retiring the engine's open message");
        if (spareMsgs_.size() < maxSpareMsgs)
            spareMsgs_.splice(spareMsgs_.begin(), txq_, txq_.begin());
        else
            txq_.pop_front();
    }
    if (txq_.empty())
        return;
    // Launch from the oldest message that has bytes ready. A message
    // the engine has not started filling yet (pushed == 0) may be
    // overtaken by ready packets behind it (e.g. automatic updates),
    // which keeps the FIFO draining while the engine winds up; chunks
    // *within* a message always go in order.
    TxMessage *msgp = nullptr;
    for (auto &m : txq_) {
        if (m.pushed > m.launched) {
            msgp = &m;
            break;
        }
        if (m.pushed > 0 && m.launched < m.total)
            return; // partially sent, awaiting more engine pushes
    }
    if (!msgp)
        return; // nothing ready yet
    TxMessage &msg = *msgp;
    const std::uint32_t q =
        std::min(msg.pushed - msg.launched, pumpChunkBytes);

    // The flow's credit, congestion and sequence windows must all have
    // room; rxAck re-pumps as acks reopen them.
    TxFlow &flow = senderFor(msg.dstNode).flow;
    if (!flow.canSend(q))
        return;
    // Every chunk carries its own header on the wire (the sequence
    // number and checksum travel with each packet, not only the
    // message-opening one).
    Chunk chunk{.h = {.src = node_,
                      .msgStart = msg.launched == 0,
                      .msgEnd = !msg.aborted && msg.launched + q == msg.total,
                      .seq = flow.nextSeq(),
                      .dstAddr = msg.dstBase + msg.launched,
                      .senderStart = msg.startTick},
                .data = Payload::copyOf(msg.data.data() + msg.launched, q)};
    chunk.h.checksum = chunkChecksum(chunk.h, chunk.data);
    // The retransmit window keeps the pristine payload; the wire copy
    // is what the fault model may mangle.
    const Chunk &kept = flow.send(std::move(chunk), eq_.now());
    const Tick injected =
        send(msg.dstNode, Chunk{kept.h, kept.data.clone()});
    armRetry(msg.dstNode);

    pumpBusy_ = true;
    eq_.schedule(
        injected, "ni.pump",
        [this, q, msgp] {
            pumpBusy_ = false;
            SHRIMP_ASSERT(txFifoBytes_ >= q, "tx FIFO underflow");
            txFifoBytes_ -= q;
            // List elements stay put, and this message cannot be
            // retired while it has unlaunched bytes.
            msgp->launched += q;
            if (engineWakeup_)
                engineWakeup_(); // outgoing FIFO space freed
            pump();
        },
        sim::EventPriority::DeviceCompletion);
}

// --------------------------------------------------------------------
// Retransmit timer and acks (the TxFlow's clock and inputs)
// --------------------------------------------------------------------

void
NetworkInterface::resend(NodeId dst, const Chunk &chunk, TxFlow::Resend why)
{
    const Tick now = eq_.now();
    if (why == TxFlow::Resend::Fast || why == TxFlow::Resend::Rescue) {
        netInstant(node_, "fastrtx", now, dst, chunk.h.seq);
        trace::log(now, trace::Category::NetFault, "node ", node_,
                   " fast retransmit seq ", chunk.h.seq, " toward node ",
                   dst);
    }
    netInstant(node_, "retransmit", now, dst, chunk.h.seq);
    send(dst, Chunk{chunk.h, chunk.data.clone()});
}

void
NetworkInterface::armRetry(NodeId dst)
{
    Sender &s = senders_[dst];
    if (s.rto.valid() || !s.flow.wantsTimer())
        return;
    s.rto = eq_.scheduleIn(
        s.flow.rto(), "ni.rto", [this, dst] { onRetryTimeout(dst); },
        sim::EventPriority::DeviceCompletion);
}

void
NetworkInterface::onRetryTimeout(NodeId dst)
{
    Sender &s = senders_[dst];
    s.rto = sim::EventHandle();
    if (s.flow.unackedChunks() != 0) {
        netInstant(node_, "rto", eq_.now(), dst, s.flow.cumAcked());
        trace::log(eq_.now(), trace::Category::NetFault, "node ", node_,
                   " retransmit timeout toward node ", dst,
                   ": resending first hole past seq ", s.flow.cumAcked());
    }
    s.flow.onTimeout(eq_.now(),
                     [this, dst](const Chunk &c, TxFlow::Resend why) {
                         resend(dst, c, why);
                     });
    armRetry(dst);
}

void
NetworkInterface::rxAck(const AckInfo &ack)
{
    const NodeId dst = ack.src;
    Sender &s = senderFor(dst);
    auto resend_fn = [this, dst](const Chunk &c, TxFlow::Resend why) {
        resend(dst, c, why);
    };
    if (!s.flow.onAck(ack, eq_.now(), resend_fn))
        return; // reordered stale ack: a newer one already arrived
    // Every fresh ack restarts the ack-silence timer; while evidence
    // keeps flowing the scoreboard repairs holes, and the timer only
    // has to catch the flow going silent.
    if (s.rto.valid()) {
        eq_.deschedule(s.rto);
        s.rto = sim::EventHandle();
    }
    armRetry(dst);
    s.flow.scoreboard(eq_.now(), resend_fn);
    // A chunk may be stalled on the credit/cwnd/seq window;
    // re-evaluate (idempotent, returns immediately when the pump is
    // mid-flight or idle).
    pump();
}

// --------------------------------------------------------------------
// Receive side: backplane -> incoming FIFO -> EISA DMA -> memory
// --------------------------------------------------------------------

void
NetworkInterface::land(NodeId dst, Chunk &&chunk)
{
    if (dst == node_)
        rxDeliver(std::move(chunk));
    else
        send(dst, std::move(chunk)); // multi-hop: onto our next link
}

void
NetworkInterface::land(NodeId dst, AckInfo ack)
{
    if (dst == node_)
        rxAck(ack);
    else
        send(dst, ack);
}

void
NetworkInterface::sendAck(NodeId src)
{
    ++acksSent_;
    AckInfo ack = rxFlowFor(src).ack();
    ack.src = node_;
    // ECN-style congestion mark: several senders' credit windows have
    // converged on this node and overcommitted the incoming FIFO
    // beyond its nominal capacity. Purely local state, so the mark is
    // deterministic under sharding.
    ack.ecn = rxFifoBytes_ > params_.niFifoBytes;
    if (ack.ecn)
        ++ecnMarked_;
    send(src, ack);
}

void
NetworkInterface::rxDeliver(Chunk &&chunk)
{
    const ChunkHeader h = chunk.h;
    const std::uint32_t len = chunk.data.size();
    RxFlow &flow = rxFlowFor(h.src);
    switch (flow.onArrival(std::move(chunk), [this](Chunk &&c) {
        rxChunks_.push_back(std::move(c));
    })) {
      case RxFlow::Arrival::Corrupt:
        ++rxCorruptDropped_;
        trace::log(eq_.now(), trace::Category::NetFault, "node ", node_,
                   " discarding corrupt chunk seq ", h.seq, " from node ",
                   h.src);
        return; // no ack: the sender's recovery treats it as lost
      case RxFlow::Arrival::Duplicate:
        // Re-ack so a sender whose ack was lost makes progress — and
        // hand it the current SACK view while we are at it.
        ++rxDupDropped_;
        sendAck(h.src);
        return;
      case RxFlow::Arrival::Buffered:
        // Past a gap: an immediate duplicate ack tells the sender's
        // scoreboard about the hole without waiting for a timer.
        ++rxOooBuffered_;
        trace::log(eq_.now(), trace::Category::NetFault, "node ", node_,
                   " buffering out-of-order chunk seq ", h.seq,
                   " from node ", h.src, " (expected ", flow.expected(),
                   ")");
        rxFifoBytes_ += len;
        sendAck(h.src);
        return;
      case RxFlow::Arrival::InOrder:
        // Ack the arrival itself (the SACK bits cover [drained,
        // expected) so the sender sees the chunk land now), not just
        // the eventual drain: loss evidence and the sender's silence
        // clock must run at wire speed, not at the EISA drain rate.
        rxFifoBytes_ += len;
        sendAck(h.src);
        rxPump();
        return;
    }
}

void
NetworkInterface::rxPump()
{
    if (rxDmaBusy_ || rxChunks_.empty())
        return;
    const Chunk &c = rxChunks_.front();
    const std::uint32_t len = c.data.size();

    // Receive-side EISA DMA logic: start latency on each new packet,
    // then burst the chunk across the receiving node's I/O bus.
    Tick earliest = eq_.now() + (c.h.msgStart ? params_.rxDmaStart() : 0);
    Tick done = ioBus_.burstTransferAt(earliest, len);

    rxDmaBusy_ = true;
    eq_.schedule(
        done, "ni.rxdma",
        [this, len] {
            // The chunk's payload is released once it is in memory.
            const Chunk chunk = rxChunks_.pop_front();
            const ChunkHeader &h = chunk.h;
            memory_.writeBytes(h.dstAddr, chunk.data.data(), len);
            rxBytes_ += double(len);
            rxFlowFor(h.src).onDrained(chunk);
            SHRIMP_ASSERT(rxFifoBytes_ >= len, "rx FIFO underflow");
            rxFifoBytes_ -= len;
            rxDmaBusy_ = false;
            // The cumulative ack doubles as the credit return: it
            // tells the sender this chunk left the incoming FIFO
            // (self-sends included, so the accounting is uniform).
            sendAck(h.src);
            if (h.msgEnd) {
                // The completion flag/word becomes visible a little
                // after the data (write buffers, ordering).
                const Delivery d{.srcNode = h.src,
                                 .senderStartTick = h.senderStart,
                                 .deliveredTick =
                                     eq_.now() + params_.rxCompletion()};
                eq_.schedule(
                    d.deliveredTick, "ni.delivered",
                    [this, d] {
                        ++delivered_;
                        lastDelivery_ = eq_.now();
                        deliveryUs_.sample(
                            ticksToUs(eq_.now() - d.senderStartTick));
                        trace::log(eq_.now(), trace::Category::Ni,
                                   "node ", node_,
                                   " delivery complete from node ",
                                   d.srcNode);
                        if (onDelivery_)
                            onDelivery_(d);
                    },
                    sim::EventPriority::DeviceCompletion);
            }
            rxPump();
        },
        sim::EventPriority::DeviceCompletion);
}

std::uint64_t
NetworkInterface::rxDataDigest() const
{
    std::uint64_t h = fnvBasis;
    for (NodeId s = 0; s < rxFlows_.size(); ++s) {
        const RxFlow &f = rxFlows_[s];
        if (f.drained() == 0)
            continue; // nothing from this source reached memory
        fnvU64(h, s);
        fnvU64(h, f.drained());
        fnvU64(h, f.digest());
    }
    return h;
}

} // namespace shrimp::net
