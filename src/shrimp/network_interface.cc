#include "shrimp/network_interface.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "sim/trace_sink.hh"

namespace shrimp::net
{

namespace
{

/** Sim-time instant on this node's "nodeN.net" Perfetto track (no-op
 *  unless a --profile trace sink is installed). */
inline void
netInstant(NodeId src, const char *what, Tick at, NodeId dst,
           std::uint64_t seq)
{
    if (sim::TraceSink *sink = sim::TraceSink::global()) {
        sink->simInstant("node" + std::to_string(src) + ".net", what,
                         at, "dst", dst, "seq", seq);
    }
}

/** EventCallback stores an F in place, without the heap fallback. */
template <typename F>
constexpr bool storedInline =
    sizeof(F) <= sim::EventCallback::inlineBytes
    && alignof(F) <= alignof(std::max_align_t)
    && std::is_nothrow_move_constructible_v<F>;

constexpr std::uint64_t fnvBasis = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

inline void
fnvByte(std::uint64_t &h, std::uint8_t b)
{
    h ^= b;
    h *= fnvPrime;
}

inline void
fnvU64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        fnvByte(h, std::uint8_t(v >> (8 * i)));
}

} // namespace

std::uint64_t
chunkChecksum(NodeId src, std::uint64_t seq, Addr dst_addr,
              bool msg_start, bool msg_end, const std::uint8_t *data,
              std::size_t len)
{
    std::uint64_t h = fnvBasis;
    fnvU64(h, src);
    fnvU64(h, seq);
    fnvU64(h, dst_addr);
    fnvByte(h, msg_start ? 1 : 0);
    fnvByte(h, msg_end ? 1 : 0);
    fnvU64(h, len);
    for (std::size_t i = 0; i < len; ++i)
        fnvByte(h, data[i]);
    return h;
}

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

    statGroup_.addScalar("messagesSent", &sent_,
                         "messages launched onto the backplane");
    statGroup_.addScalar("messagesDelivered", &delivered_,
                         "complete messages deposited in memory");
    statGroup_.addScalar("bytesDelivered", &rxBytes_,
                         "payload bytes deposited in memory");
    statGroup_.addScalar("autoUpdatesSent", &autoSent_,
                         "automatic-update packets sent");
    statGroup_.addScalar("autoUpdatesCombined", &autoCombined_,
                         "stores merged by update combining");
    statGroup_.addScalar("retransmits", &retransmits_,
                         "chunks re-sent (fast retransmit + RTO)");
    statGroup_.addScalar("fastRetransmits", &fastRetransmits_,
                         "chunks re-sent by SACK fast retransmit");
    statGroup_.addScalar("timeouts", &timeouts_,
                         "retransmit-timer expiries");
    statGroup_.addScalar("acksSent", &acksSent_,
                         "acknowledgments sent (cumulative + dup)");
    statGroup_.addScalar("rxDupDropped", &rxDupDropped_,
                         "duplicate chunks discarded at the receiver");
    statGroup_.addScalar("rxCorruptDropped", &rxCorruptDropped_,
                         "checksum-mismatch chunks discarded");
    statGroup_.addScalar("rxOooBuffered", &rxOooBuffered_,
                         "chunks resequenced after arriving past a gap");
    statGroup_.addScalar("ecnMarked", &ecnMarked_,
                         "acks sent carrying the ECN overcommit mark");
    statGroup_.addScalar("cwndCuts", &cwndCuts_,
                         "congestion-window halvings (loss or ECN)");
    statGroup_.addScalar("rescueSpurious", &rescueSpurious_,
                         "rescue retransmits proven unnecessary");
    statGroup_.addHistogram("delivery_us", &deliveryUs_,
                            "sender start to last byte visible (us)");
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

NetworkInterface::TxFlow &
NetworkInterface::flowFor(NodeId dst)
{
    if (dst >= txFlows_.size())
        txFlows_.resize(dst + 1);
    TxFlow &f = txFlows_[dst];
    if (!f.inited) {
        f.credits = params_.niFifoBytes;
        f.retryTimeout = params_.niRetryTimeout();
        f.cwnd.init(pumpChunkBytes, params_.niFifoBytes);
        f.inited = true;
    }
    return f;
}

NetworkInterface::RxFlow &
NetworkInterface::rxFlowFor(NodeId src)
{
    if (src >= rxFlows_.size())
        rxFlows_.resize(src + 1);
    return rxFlows_[src];
}

void
NetworkInterface::postToNode(NodeId dst, Tick when, const char *name,
                             sim::EventCallback fn)
{
    router_.post(node_, dst, when, name, std::move(fn),
                 sim::EventPriority::DeviceCompletion);
}

Tick
NetworkInterface::transmit(NodeId dst, const TxChunk &chunk,
                           bool retransmit)
{
    if (retransmit) {
        ++retransmits_;
        netInstant(node_, "retransmit", eq_.now(), dst, chunk.h.seq);
    }

    // Every chunk carries its own header on the wire (the sequence
    // number and checksum travel with each packet, not only the
    // message-opening one). The retransmit buffer keeps the pristine
    // payload; the wire copy is what the fault model may mangle.
    return launchChunk(dst, chunk.h, chunk.data.clone());
}

void
NetworkInterface::forwardChunk(NodeId dst, const ChunkHeader &h,
                               Payload data)
{
    launchChunk(dst, h, std::move(data));
}

Tick
NetworkInterface::launchChunk(NodeId dst, const ChunkHeader &h,
                              Payload payload)
{
    std::uint64_t wire_bytes = payload.size() + params_.niHeaderBytes;
    // One hop of the dimension-order route: this node's own outgoing
    // link (the destination itself on the crossbar). The link horizon
    // and the fault stream both belong to this node's shard.
    const NodeId hop = net_.nextHop(node_, dst);
    Tick injected = net_.acquireLink(node_, hop, wire_bytes, eq_.now());
    Tick arrival = injected + net_.hopLatency();

    // Posts either the final delivery or the next forwarding hop; the
    // peer pointer is only dereferenced when the event fires, on that
    // node's own shard.
    NetworkInterface *peer = net_.ni(hop);
    auto handoff = [&](Tick when, Payload bytes) {
        if (hop == dst) {
            auto deliver = [peer, h, bytes = std::move(bytes)]() mutable {
                peer->rxDeliver(h, std::move(bytes));
            };
            static_assert(storedInline<decltype(deliver)>,
                          "ni.deliver must fit the inline buffer");
            postToNode(dst, when, "ni.deliver", std::move(deliver));
        } else {
            auto forward = [peer, dst, h,
                            bytes = std::move(bytes)]() mutable {
                peer->forwardChunk(dst, h, std::move(bytes));
            };
            static_assert(storedInline<decltype(forward)>,
                          "ni.fwd must fit the inline buffer");
            postToNode(hop, when, "ni.fwd", std::move(forward));
        }
    };

    // Faults are decided per physical link: each hop draws from the
    // stream of the link it is about to traverse, so a multi-hop
    // chunk is exposed once per link — exactly like the real wires.
    FaultDecision fd =
        net_.faults().decide(node_, hop, eq_.now(), /*control=*/false);
    switch (fd.action) {
      case FaultAction::Drop:
        // The link was occupied, but nothing arrives at the far end.
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " -> ", hop, " seq ", h.seq,
                   " dropped on the wire");
        netInstant(node_, "drop", eq_.now(), hop, h.seq);
        return injected;
      case FaultAction::Corrupt:
        if (payload.size() != 0)
            payload.data()[fd.aux % payload.size()] ^= 0xFF;
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " -> ", hop, " seq ", h.seq,
                   " corrupted on the wire");
        netInstant(node_, "corrupt", eq_.now(), hop, h.seq);
        break;
      case FaultAction::Duplicate: {
        // The copy takes one extra hop, so it still satisfies the
        // sharded lookahead rule and arrives after the original.
        Payload copy = payload.clone();
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " -> ", hop, " seq ", h.seq,
                   " duplicated on the wire");
        netInstant(node_, "duplicate", eq_.now(), hop, h.seq);
        handoff(arrival + net_.hopLatency(), std::move(copy));
        break;
      }
      case FaultAction::Delay:
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " -> ", hop, " seq ", h.seq, " delayed ",
                   fd.extraDelay, " ticks");
        netInstant(node_, "delay", eq_.now(), hop, h.seq);
        arrival += fd.extraDelay;
        break;
      case FaultAction::Deliver:
        break;
    }

    handoff(arrival, std::move(payload));
    return injected;
}

Tick
NetworkInterface::wireRoundTripFloor(NodeId dst) const
{
    return net_.minDeliveryLatency(node_, dst)
           + net_.minDeliveryLatency(dst, node_);
}

void
NetworkInterface::armRetry(NodeId dst, TxFlow &flow)
{
    if (net_.faults().config().disableRetransmit)
        return;
    if (flow.retryEvent.valid() || flow.unacked.empty())
        return;
    flow.retryEvent = eq_.scheduleIn(
        flow.retryTimeout, "ni.rto", [this, dst] { onRetryTimeout(dst); },
        sim::EventPriority::DeviceCompletion);
}

std::uint32_t
NetworkInterface::inflightBytes(const TxFlow &flow) const
{
    // Credits consumed but not yet returned are exactly the bytes the
    // receiver has not drained — the flight size, with no separate
    // counter to keep in sync.
    return params_.niFifoBytes - flow.credits;
}

void
NetworkInterface::cutWindow(TxFlow &flow)
{
    // One multiplicative decrease per flight: further loss/ECN
    // signals from the same window carry no new information.
    if (flow.cumAcked < flow.lastCwndCutSeq)
        return;
    flow.cwnd.onLoss(inflightBytes(flow));
    flow.lastCwndCutSeq = flow.nextSeq;
    ++cwndCuts_;
}

bool
NetworkInterface::fastRetransmitPass(NodeId dst, TxFlow &flow)
{
    // `no-retransmit` kills every recovery path, not just the timer —
    // otherwise the scoreboard would quietly heal the holes and the
    // mutation would prove nothing.
    const FaultConfig &fcfg = net_.faults().config();
    if (fcfg.disableFastRetransmit || fcfg.disableRetransmit)
        return false;
    // RFC 6675's DupThresh rule applied per chunk: a hole with three
    // or more SACKed chunks above it is considered lost rather than
    // reordered, and is resent without waiting for the RTO. One
    // backward sweep counts SACKed chunks above each hole; resends go
    // out in ascending sequence order.
    //
    // Two refinements keep the RTO a genuine last resort:
    //  - Early retransmit (RFC 5827): when the window is too small to
    //    ever produce three duplicate acks, the threshold drops to
    //    outstanding-1 (floor 1) — otherwise every loss in a
    //    post-collapse window stalls a full RTO and the window never
    //    recovers.
    //  - Rescue retransmit: once three more SACK marks land after a
    //    chunk was resent while it stays unSACKed, the resend was
    //    probably lost and may go again. "Probably", not certainly:
    //    per-chunk Delay faults reorder chunks within one link (and
    //    any future adaptive routing would too), so post-resend SACKs
    //    can belong to chunks that merely overtook a delayed copy.
    //    The rescue therefore also waits out one full round trip
    //    (the distance-scaled wire floor, or SRTT once measured)
    //    since the resend before treating the serials as proof —
    //    inside that horizon no ack could be answering the resend
    //    yet, so firing early can only duplicate. Rescues the
    //    scoreboard later contradicts are counted in rescueSpurious.
    constexpr unsigned dupThresh = 3;
    const unsigned thresh = std::min<std::size_t>(
        dupThresh, std::max<std::size_t>(
                       1, std::size_t(flow.nextSeq - flow.cumAcked) - 1));
    Tick rescueQuiet = wireRoundTripFloor(dst);
    if (flow.rtt.valid && flow.rtt.srtt > rescueQuiet)
        rescueQuiet = flow.rtt.srtt;
    std::vector<RtxHole> &holes = rtxHoles_;
    holes.clear();
    unsigned sackedAbove = 0;
    for (std::uint64_t seq = flow.nextSeq; seq-- > flow.cumAcked;) {
        const TxChunk &c = flow.unacked.at(seq);
        if (c.sacked) {
            ++sackedAbove;
            continue;
        }
        if (sackedAbove < thresh)
            continue;
        if (!c.epochResent) {
            holes.push_back({seq, false});
        } else if (flow.sackSerial - c.resendSerial >= dupThresh
                   && eq_.now() >= c.lastResend + rescueQuiet) {
            holes.push_back({seq, true});
        }
    }
    for (auto it = holes.rbegin(); it != holes.rend(); ++it) {
        TxChunk &c = flow.unacked.at(it->seq);
        c.epochResent = true;
        c.rexmitted = true;
        c.resendSerial = flow.sackSerial;
        c.lastResend = eq_.now();
        if (it->rescue) {
            c.rescued = true;
            c.rescueTick = eq_.now();
        }
        ++fastRetransmits_;
        netInstant(node_, "fastrtx", eq_.now(), dst, it->seq);
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " fast retransmit seq ", it->seq,
                   " toward node ", dst);
        transmit(dst, c, /*retransmit=*/true);
    }
    return !holes.empty();
}

void
NetworkInterface::onRetryTimeout(NodeId dst)
{
    TxFlow &flow = flowFor(dst);
    flow.retryEvent = sim::EventHandle();
    if (flow.unacked.empty())
        return;
    ++timeouts_;
    netInstant(node_, "rto", eq_.now(), dst, flow.cumAcked);
    bool any_unsacked = false;
    for (std::uint64_t seq = flow.cumAcked; seq < flow.nextSeq; ++seq)
        if (!flow.unacked.at(seq).sacked) {
            any_unsacked = true;
            break;
        }
    if (!any_unsacked) {
        // Every chunk is SACKed but the cumulative acks that would
        // return the credits were lost and the flow has gone silent.
        // No data is missing, so nothing is "lost": poke the receiver
        // with the oldest chunk (it dup-drops and re-acks the current
        // cum) without collapsing the window.
        TxChunk &c = flow.unacked.at(flow.cumAcked);
        c.rexmitted = true;
        c.lastResend = eq_.now();
        transmit(dst, c, /*retransmit=*/true);
        flow.retryTimeout =
            std::min(flow.retryTimeout * 2, params_.niRetryTimeoutMax());
        armRetry(dst, flow);
        return;
    }
    trace::log(eq_.now(), trace::Category::NetFault, "node ", node_,
               " retransmit timeout toward node ", dst,
               ": resending first hole past seq ", flow.cumAcked);
    // New epoch: every hole becomes eligible for one more resend.
    for (std::uint64_t seq = flow.cumAcked; seq < flow.nextSeq; ++seq)
        flow.unacked.at(seq).epochResent = false;
    // Selective repeat: resend only the first chunk the receiver does
    // not hold. The rest of the window is repaired ack-clocked in
    // rxAck as the cumulative ack climbs toward the recovery point —
    // never re-flooded blind like go-back-N did.
    for (std::uint64_t seq = flow.cumAcked; seq < flow.nextSeq; ++seq) {
        TxChunk &c = flow.unacked.at(seq);
        if (c.sacked)
            continue;
        c.epochResent = true;
        c.rexmitted = true;
        c.resendSerial = flow.sackSerial;
        c.lastResend = eq_.now();
        transmit(dst, c, /*retransmit=*/true);
        break;
    }
    flow.inRtoRecovery = true;
    flow.recoveryPoint = flow.nextSeq;
    flow.cwnd.onRto(inflightBytes(flow));
    flow.lastCwndCutSeq = flow.nextSeq;
    ++cwndCuts_;
    // Capped exponential backoff.
    flow.retryTimeout =
        std::min(flow.retryTimeout * 2, params_.niRetryTimeoutMax());
    armRetry(dst, flow);
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
    std::uint32_t avail = msg.pushed - msg.launched;
    std::uint32_t q = std::min(avail, pumpChunkBytes);

    // Sender-side credit window: launching consumes credits; the
    // receiver's cumulative ack returns them once its DMA drains the
    // chunk (rxAck re-pumps). Retransmissions re-send chunks that
    // already hold credits, so they never consume more.
    TxFlow &flow = flowFor(msg.dstNode);
    if (flow.credits < q)
        return;
    // Congestion window: the effective window is min(cwnd, credits) —
    // bytes in flight (credits consumed, not yet returned) plus this
    // chunk must fit under cwnd too. rxAck re-pumps as cwnd reopens.
    if (inflightBytes(flow) + q > flow.cwnd.cwnd)
        return;
    // Sequence window: never launch a chunk the 64-bit SACK bitmap of
    // a future ack could not name (and whose arrival the receiver's
    // resequencing buffer is not bounded for).
    if (flow.nextSeq >= flow.cumAcked + sackWindow)
        return;
    flow.credits -= q;

    const std::uint64_t seq = flow.nextSeq++;
    TxChunk chunk;
    ChunkHeader &h = chunk.h;
    h.src = node_;
    h.msgStart = msg.launched == 0;
    h.msgEnd = !msg.aborted && msg.launched + q == msg.total;
    h.seq = seq;
    h.dstAddr = msg.dstBase + msg.launched;
    h.senderStart = msg.startTick;
    chunk.data = Payload::copyOf(msg.data.data() + msg.launched, q);
    h.checksum = chunkChecksum(node_, h.seq, h.dstAddr, h.msgStart,
                               h.msgEnd, chunk.data.data(), q);
    chunk.firstSent = eq_.now();
    const TxChunk &sent = flow.unacked.insert(seq, std::move(chunk));

    Tick injected = transmit(msg.dstNode, sent, /*retransmit=*/false);
    armRetry(msg.dstNode, flow);

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
// Receive side: backplane -> incoming FIFO -> EISA DMA -> memory
// --------------------------------------------------------------------

void
NetworkInterface::rxAck(NodeId dst, AckInfo ack)
{
    TxFlow &flow = flowFor(dst);
    if (ack.cum < flow.cumAcked)
        return; // reordered stale ack: a newer one already arrived

    const FaultConfig &fcfg = net_.faults().config();

    // Apply the SACK bitmap first (sticky scoreboard: the bits are
    // anchored to this ack's own cum, and a bit only ever marks a
    // chunk received — a reordered ack can never un-SACK anything).
    // A chunk's first SACK mark is also the RTT sample: the receiver
    // acks every arrival, so send -> SACK measures the wire round
    // trip the loss-detection clock should run on, not the incoming
    // FIFO's drain sojourn that send -> cumulative-ack would measure.
    // Karn's rule still applies: a retransmitted chunk's mark is
    // ambiguous (which copy arrived?) and is never sampled.
    if (ack.sack != 0 && !fcfg.ignoreSack) {
        Tick rtt_sent = 0;
        bool have_rtt = false;
        for (std::uint64_t seq = ack.cum; seq < flow.nextSeq; ++seq) {
            TxChunk &c = flow.unacked.at(seq);
            if (c.sacked)
                continue;
            std::uint64_t off = seq - ack.cum;
            if (off < sackWindow && (ack.sack >> off) & 1) {
                c.sacked = true;
                ++flow.sackSerial;
                // A SACK landing before the rescue copy could even
                // have completed a round trip was answering an
                // *earlier* copy — the rescue was spurious (the
                // "lost" resend had merely been overtaken, e.g. by a
                // per-chunk delay fault).
                if (c.rescued) {
                    if (eq_.now()
                        < c.rescueTick + wireRoundTripFloor(dst))
                        ++rescueSpurious_;
                    c.rescued = false;
                }
                if (!c.rexmitted) {
                    rtt_sent = c.firstSent;
                    have_rtt = true;
                }
            }
        }
        if (have_rtt)
            flow.rtt.sample(eq_.now() - rtt_sent);
    }

    if (ack.cum == flow.cumAcked) {
        if (!flow.unacked.empty())
            ++flow.dupAcks; // receiver alive but stuck on a hole
    } else {
        SHRIMP_ASSERT(ack.cum <= flow.nextSeq, "ack of unsent seq ",
                      ack.cum, " from node ", dst);
        flow.dupAcks = 0;
        std::uint32_t acked_bytes = 0;
        std::uint64_t acked_chunks = 0;
        for (; flow.cumAcked < ack.cum; ++flow.cumAcked) {
            // Retiring the chunk releases its payload.
            const TxChunk c = flow.unacked.take(flow.cumAcked);
            // Same spurious-rescue evidence as the SACK path: a
            // cumulative ack covering a rescued chunk inside the
            // rescue's own round trip was answering an earlier copy.
            if (c.rescued && !c.sacked
                && eq_.now() < c.rescueTick + wireRoundTripFloor(dst))
                ++rescueSpurious_;
            flow.credits += c.data.size();
            acked_bytes += c.data.size();
            ++acked_chunks;
        }
        SHRIMP_ASSERT(flow.credits <= params_.niFifoBytes,
                      "credit window overflow toward node ", dst);
        flow.cwnd.onAck(acked_bytes);
        // Ack-clocked RTO repair: each cumulative advance pays for
        // resending (newly acked + 1) not-yet-resent holes below the
        // recovery point — the whole lost window heals in about one
        // RTT per cwnd instead of one chunk per RTO.
        if (flow.inRtoRecovery) {
            if (flow.cumAcked >= flow.recoveryPoint) {
                flow.inRtoRecovery = false;
            } else {
                std::uint64_t budget = acked_chunks + 1;
                for (std::uint64_t seq = flow.cumAcked;
                     seq < flow.nextSeq; ++seq) {
                    TxChunk &c = flow.unacked.at(seq);
                    if (budget == 0 || seq >= flow.recoveryPoint)
                        break;
                    if (c.sacked || c.epochResent)
                        continue;
                    c.epochResent = true;
                    c.rexmitted = true;
                    c.resendSerial = flow.sackSerial;
                    c.lastResend = eq_.now();
                    transmit(dst, c, /*retransmit=*/true);
                    --budget;
                }
            }
        }
    }

    // Every ack is liveness evidence: the retry timer is an
    // ack-silence detector, so it restarts from the adaptive estimate
    // (srtt + 4 rttvar, clamped) on any ack, duplicate or not. While
    // evidence keeps flowing, the SACK scoreboard repairs holes; the
    // timer only has to catch the flow going silent.
    if (flow.retryEvent.valid()) {
        eq_.deschedule(flow.retryEvent);
        flow.retryEvent = sim::EventHandle();
    }
    flow.retryTimeout =
        flow.rtt.valid ? flow.rtt.rto(params_.niRtoMin(),
                                      params_.niRetryTimeoutMax())
                       : params_.niRetryTimeout();
    armRetry(dst, flow);

    // The scoreboard runs on every ack — dup acks carry fresh SACK
    // bits even without cumulative progress. A fired fast retransmit
    // repairs the hole but does not halve the window: the per-dest
    // credit window already bounds the flight at one receive FIFO, so
    // an isolated wire loss is line noise, not congestion — halving
    // on it caps goodput near 40% at the 7% combined loss rate this
    // transport is specified against. The two genuine congestion
    // signals both cut: an ECN-marked ack (receive FIFO overcommitted
    // by converging senders) here, and a retransmit timeout (the flow
    // went silent) in onRetryTimeout.
    fastRetransmitPass(dst, flow);
    if (ack.ecn)
        cutWindow(flow);

    // A chunk may be stalled on the credit/cwnd/seq window;
    // re-evaluate (idempotent, returns immediately when the pump is
    // mid-flight or idle).
    pump();
}

void
NetworkInterface::sendAck(NodeId src)
{
    RxFlow &flow = rxFlowFor(src);
    ++acksSent_;

    AckInfo ack;
    ack.cum = flow.drained;
    ack.sack = sackEncode(flow.drained, flow.expected, flow.ooo.seqs());
    // ECN-style congestion mark: several senders' credit windows have
    // converged on this node and overcommitted the incoming FIFO
    // beyond its nominal capacity. Purely local state, so the mark is
    // deterministic under sharding.
    ack.ecn = rxFifoBytes_ > params_.niFifoBytes;
    if (ack.ecn)
        ++ecnMarked_;

    launchAck(src, node_, ack);
}

void
NetworkInterface::forwardAck(NodeId dst, NodeId origin, AckInfo ack)
{
    launchAck(dst, origin, ack);
}

void
NetworkInterface::launchAck(NodeId dst, NodeId origin, AckInfo ack)
{
    // Acks ride the reverse route's control path: at every hop the
    // traversed link's fault stream may drop or delay them (a lost
    // ack is recovered by the sender's timer), but never corrupts or
    // duplicates control messages.
    const NodeId hop = net_.nextHop(node_, dst);
    FaultDecision fd =
        net_.faults().decide(node_, hop, eq_.now(), /*control=*/true);
    if (fd.action == FaultAction::Drop) {
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " ack to node ", dst, " (cum ", ack.cum,
                   ") dropped");
        return;
    }
    // An ack is a real control packet — header plus the 8-byte SACK
    // word — so it serializes on this node's outgoing link
    // (contending with its own data traffic) before taking the hop.
    // Being strictly larger than a bare header, every hop still
    // respects the single-hop slice of Interconnect::
    // minDeliveryLatency — the floor the sharded engine's lookahead
    // matrix is derived from.
    Tick injected = net_.acquireLink(
        node_, hop, params_.niHeaderBytes + sizeof(ack.sack),
        eq_.now());
    Tick when = injected + net_.hopLatency() + fd.extraDelay;
    NetworkInterface *peer = net_.ni(hop);
    if (hop == dst) {
        postToNode(dst, when, "ni.ack",
                   [peer, origin, ack] { peer->rxAck(origin, ack); });
    } else {
        postToNode(hop, when, "ni.ack.fwd",
                   [peer, dst, origin, ack] {
                       peer->forwardAck(dst, origin, ack);
                   });
    }
}

void
NetworkInterface::rxDeliver(const ChunkHeader &h, Payload data)
{
    std::uint64_t want =
        chunkChecksum(h.src, h.seq, h.dstAddr, h.msgStart, h.msgEnd,
                      data.data(), data.size());
    if (want != h.checksum) {
        ++rxCorruptDropped_;
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " discarding corrupt chunk seq ", h.seq,
                   " from node ", h.src);
        return; // no ack: the sender's timer recovers it
    }
    RxFlow &flow = rxFlowFor(h.src);
    if (h.seq < flow.expected || flow.ooo.contains(h.seq)) {
        // Already held (duplicate or retransmission overlap). Re-ack
        // so a sender whose ack was lost makes progress — and hands
        // it the current SACK view while we are at it.
        ++rxDupDropped_;
        sendAck(h.src);
        return;
    }
    // The sender never launches past cumAcked + sackWindow and its
    // cumAcked never exceeds our drain watermark, so every arrival
    // fits the resequencing window by construction.
    SHRIMP_ASSERT(h.seq < flow.drained + sackWindow,
                  "chunk past the SACK window from node ", h.src);
    rxFifoBytes_ += data.size();
    if (h.seq > flow.expected) {
        // Past a gap (an earlier chunk is missing): park it in the
        // resequencing buffer and send an immediate duplicate ack so
        // the sender's scoreboard learns about the hole without
        // waiting for a timer.
        ++rxOooBuffered_;
        trace::log(eq_.now(), trace::Category::NetFault, "node ",
                   node_, " buffering out-of-order chunk seq ", h.seq,
                   " from node ", h.src, " (expected ", flow.expected,
                   ")");
        flow.ooo.insert(h.seq, RxChunk{h, std::move(data)});
        sendAck(h.src);
        return;
    }
    // In order: accept it, then release everything the buffer holds
    // contiguously behind it.
    rxChunks_.push_back(RxChunk{h, std::move(data)});
    for (flow.expected = h.seq + 1; flow.ooo.contains(flow.expected);
         ++flow.expected)
        rxChunks_.push_back(flow.ooo.take(flow.expected));
    // Ack the arrival itself (the SACK bits cover [drained, expected)
    // so the sender sees the chunk land now), not just the eventual
    // drain: loss evidence and the sender's silence clock must run at
    // wire speed, not at the incoming FIFO's EISA drain rate.
    sendAck(h.src);
    rxPump();
}

void
NetworkInterface::rxPump()
{
    if (rxDmaBusy_ || rxChunks_.empty())
        return;
    const RxChunk &c = rxChunks_.front();
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
            const RxChunk chunk = rxChunks_.pop_front();
            const ChunkHeader &h = chunk.h;
            const std::uint8_t *bytes = chunk.data.data();
            memory_.writeBytes(h.dstAddr, bytes, len);
            rxBytes_ += double(len);
            RxFlow &flow = rxFlowFor(h.src);
            for (std::uint32_t i = 0; i < len; ++i)
                fnvByte(flow.dataDigest, bytes[i]);
            flow.touched = true;
            flow.drained = h.seq + 1;
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
                Tick when = eq_.now() + params_.rxCompletion();
                Delivery d;
                d.srcNode = h.src;
                d.dstPhysAddr = h.dstAddr + len;
                d.bytes = 0; // filled by callback users if needed
                d.senderStartTick = h.senderStart;
                d.deliveredTick = when;
                eq_.schedule(
                    when, "ni.delivered",
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
        if (!f.touched)
            continue;
        fnvU64(h, s);
        fnvU64(h, f.drained);
        fnvU64(h, f.dataDigest);
    }
    return h;
}

std::vector<TxFlowDebug>
NetworkInterface::txFlowDebug() const
{
    std::vector<TxFlowDebug> out;
    for (NodeId d = 0; d < txFlows_.size(); ++d) {
        const TxFlow &f = txFlows_[d];
        if (!f.inited)
            continue;
        TxFlowDebug dbg;
        dbg.dst = d;
        dbg.nextSeq = f.nextSeq;
        dbg.cumAcked = f.cumAcked;
        dbg.unackedChunks = f.nextSeq - f.cumAcked;
        dbg.dupAcks = f.dupAcks;
        dbg.cwnd = f.cwnd.cwnd;
        dbg.ssthresh = f.cwnd.ssthresh;
        dbg.srttUs = f.rtt.valid ? ticksToUs(f.rtt.srtt) : 0;
        dbg.rtoUs = ticksToUs(f.retryTimeout);
        dbg.inRecovery = f.inRtoRecovery;
        for (std::uint64_t seq = f.cumAcked; seq < f.nextSeq; ++seq) {
            const TxChunk &c = f.unacked.at(seq);
            dbg.unackedBytes += c.data.size();
            if (!c.sacked)
                continue;
            ++dbg.sackedChunks;
            if (!dbg.sackRanges.empty()
                && dbg.sackRanges.back().second + 1 == seq) {
                dbg.sackRanges.back().second = seq;
            } else {
                dbg.sackRanges.emplace_back(seq, seq);
            }
        }
        out.push_back(dbg);
    }
    return out;
}

} // namespace shrimp::net
