#include "shrimp/interconnect.hh"

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>

#include "shrimp/network_interface.hh"
#include "sim/sharded.hh"
#include "sim/trace.hh"
#include "sim/trace_sink.hh"

namespace shrimp::net
{

void
netInstant(NodeId node, const char *what, Tick at, NodeId dst,
           std::uint64_t seq)
{
    if (sim::TraceSink *sink = sim::TraceSink::global()) {
        sink->simInstant("node" + std::to_string(node) + ".net", what, at,
                         "dst", dst, "seq", seq);
    }
}

namespace
{

/** EventCallback stores an F in place, without the heap fallback. */
template <typename F>
constexpr bool storedInline =
    sizeof(F) <= sim::EventCallback::inlineBytes
    && alignof(F) <= alignof(std::max_align_t)
    && std::is_nothrow_move_constructible_v<F>;

/** Log a fault verdict on one link; a chunk's also marks the sending
 *  node's Perfetto track. */
void
noteFault(const char *what, Tick now, NodeId from, NodeId next,
          const Chunk &c)
{
    trace::log(now, trace::Category::NetFault, "node ", from, " -> ",
               next, " seq ", c.h.seq, " on the wire: ", what);
    netInstant(from, what, now, next, c.h.seq);
}

void
noteFault(const char *what, Tick now, NodeId from, NodeId next,
          const AckInfo &a)
{
    trace::log(now, trace::Category::NetFault, "node ", from, " -> ",
               next, " ack (cum ", a.cum, ") on the wire: ", what);
}

/** Wire bytes beyond the header: the payload, or the SACK word. */
std::uint64_t bodyBytes(const Chunk &c) { return c.data.size(); }
std::uint64_t bodyBytes(const AckInfo &a) { return sizeof(a.sack); }

} // namespace

template <typename Packet>
Tick
Interconnect::hop(sim::NodeRouter &router, NodeId from, NodeId dst,
                  Tick now, Packet pkt)
{
    constexpr bool control = std::is_same_v<Packet, AckInfo>;
    // One hop of the dimension-order route: this node's own outgoing
    // link (the destination itself on the crossbar). The link horizon
    // and the fault stream both belong to this node's shard, and the
    // fault is drawn per physical link, so a multi-hop packet is
    // exposed once per link it traverses.
    const NodeId next = nextHop(from, dst);
    const FaultDecision fd = faults_.decide(from, next, now, control);
    const bool dropped = fd.action == FaultAction::Drop;
    // An ack is a real control packet — the header plus its SACK word
    // — so it serializes on the link, contending with data, and stays
    // larger than the bare header minDeliveryLatency() is built from.
    const Tick injected =
        control && dropped
            ? now
            : acquireLink(from, next, params_.niHeaderBytes + bodyBytes(pkt),
                          now);
    const Tick arrival = injected + hopLatency() + fd.extraDelay;

    // The peer is only dereferenced when the event fires, on its own
    // shard.
    NetworkInterface *peer = ni(next);
    auto post = [&](Tick when, Packet &&p) {
        auto land = [peer, dst, p = std::move(p)]() mutable {
            peer->land(dst, std::move(p));
        };
        static_assert(storedInline<decltype(land)>,
                      "every hop capture must fit the inline buffer");
        router.post(from, next, when,
                    next != dst ? (control ? "ni.ack.fwd" : "ni.fwd")
                                : (control ? "ni.ack" : "ni.deliver"),
                    std::move(land), sim::EventPriority::DeviceCompletion);
    };

    switch (fd.action) {
      case FaultAction::Drop:
        noteFault("drop", now, from, next, pkt);
        return injected;
      case FaultAction::Corrupt:
        if constexpr (!control) {
            if (pkt.data.size() != 0)
                pkt.data.data()[fd.aux % pkt.data.size()] ^= 0xFF;
        }
        noteFault("corrupt", now, from, next, pkt);
        break;
      case FaultAction::Duplicate:
        // The copy takes one extra hop, so it arrives after the
        // original.
        if constexpr (!control) {
            noteFault("duplicate", now, from, next, pkt);
            post(arrival + hopLatency(), Chunk{pkt.h, pkt.data.clone()});
        }
        break;
      case FaultAction::Delay:
        noteFault("delay", now, from, next, pkt);
        break;
      case FaultAction::Deliver:
        break;
    }
    post(arrival, std::move(pkt));
    return injected;
}

template Tick Interconnect::hop(sim::NodeRouter &, NodeId, NodeId, Tick,
                                Chunk);
template Tick Interconnect::hop(sim::NodeRouter &, NodeId, NodeId, Tick,
                                AckInfo);

} // namespace shrimp::net
