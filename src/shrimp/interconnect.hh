/**
 * @file
 * The routing backplane connecting SHRIMP nodes (the prototype used an
 * Intel Paragon routing backplane — a 2D mesh).
 *
 * The wiring is pluggable (sim::TopologyConfig): the default crossbar
 * gives each node a dedicated injection link that serializes its own
 * traffic at linkBytesPerSec plus one fixed routing hop; a 2D mesh or
 * torus routes packets dimension-order (X then Y) across per-direction
 * physical links, charging the hop latency and the link serialization
 * at every hop. Either way the network is deliberately faster than the
 * EISA bus on each end, as in the real system, so for most patterns it
 * is not the bottleneck — but on the mesh, bisection-limited patterns
 * (incast, adversarial permutations) now contend on shared links.
 *
 * Link ownership is what keeps the model shard-safe: every physical
 * link belongs to the node transmitting onto it (the crossbar's
 * injection link, or one of a mesh node's four outgoing direction
 * links), and multi-hop packets are *forwarded hop by hop*: hop()
 * carries a chunk or an ack over one link, and the event it posts runs
 * on the next node's shard, which either delivers the packet there or
 * hops it onward over that node's own outgoing link. No shard ever
 * touches another node's link horizon, so arbitration on shared mesh
 * links is resolved in each owner's canonical event order and stays
 * bit-identical across shard counts. Backpressure surfaces as delayed
 * injection: a busy link pushes the chunk's departure (and every later
 * hop) into the future.
 *
 * All per-node state (the NI table, link-busy horizons, byte counters)
 * lives in dense vectors indexed by NodeId and sized only in attach()
 * — attach happens during single-threaded System construction, so no
 * vector ever grows while shards run. acquireLink() asserts the node
 * was attached instead of resizing (a mid-run grow would be a data
 * race under shards). Each link slot is only ever touched by the shard
 * executing its owner, so the byte counters are exact with no shared
 * atomics, and bytesRouted() merges them when no run is in
 * progress.
 */

#ifndef SHRIMP_SHRIMP_INTERCONNECT_HH
#define SHRIMP_SHRIMP_INTERCONNECT_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "shrimp/fault.hh"
#include "sim/logging.hh"
#include "sim/params.hh"
#include "sim/types.hh"

namespace shrimp::sim
{
class NodeRouter;
} // namespace shrimp::sim

namespace shrimp::net
{

class NetworkInterface;

/** Sim-time instant on node @p node's "nodeN.net" Perfetto track
 *  (a no-op unless a --profile trace sink is installed). */
void netInstant(NodeId node, const char *what, Tick at, NodeId dst,
                std::uint64_t seq);

/** The backplane. */
class Interconnect
{
  public:
    explicit Interconnect(const sim::MachineParams &params,
                          sim::TopologyConfig topo = {})
        : params_(params), topo_(topo),
          linksPerNode_(topo.flat() ? 1 : 4)
    {}

    /** The wiring this backplane was built with. */
    const sim::TopologyConfig &topology() const { return topo_; }

    /**
     * Register a node's NI. Also the *only* moment the per-node slots
     * are sized: attach happens during (single-threaded) System
     * construction, so no vector ever grows while shards run.
     */
    void
    attach(NodeId node, NetworkInterface *ni)
    {
        SHRIMP_ASSERT(ni, "null NI");
        SHRIMP_ASSERT(topo_.flat() || node < topo_.gridNodes(),
                      "node ", node, " is outside the ",
                      topo_.describe(), " grid");
        grow(node);
        faults_.grow(node);
        SHRIMP_ASSERT(!nis_[node], "node already attached");
        nis_[node] = ni;
    }

    /** The NI of a node (checked). */
    NetworkInterface *
    ni(NodeId node) const
    {
        SHRIMP_ASSERT(node < nis_.size() && nis_[node],
                      "no NI for node ", node);
        return nis_[node];
    }

    bool
    hasNode(NodeId node) const
    {
        return node < nis_.size() && nis_[node] != nullptr;
    }

    /** Hops a packet from @p src to @p dst traverses (>= 1). */
    unsigned
    hops(NodeId src, NodeId dst) const
    {
        return topo_.hops(src, dst);
    }

    /** The next node on the dimension-order route toward @p dst
     *  (the destination itself on the crossbar). */
    NodeId
    nextHop(NodeId from, NodeId dst) const
    {
        return topo_.nextHop(from, dst);
    }

    /**
     * Occupy node @p from's physical link toward @p towards (its
     * dedicated injection link on the crossbar; the outgoing
     * direction link of the dimension-order route on a mesh/torus)
     * for @p bytes starting no earlier than @p now; returns the tick
     * at which the last byte has left the node. Only the shard
     * executing @p from may call this — its link slots are that
     * shard's state, which is why acquireLink *asserts* attachment
     * instead of growing: resizing the shared vectors mid-run would
     * race with every other shard.
     */
    Tick
    acquireLink(NodeId from, NodeId towards, std::uint64_t bytes,
                Tick now)
    {
        const std::size_t slot = linkSlot(from, towards);
        Tick start = std::max(now, linkFreeAt_[slot]);
        linkFreeAt_[slot] = start + params_.linkTransfer(bytes);
        linkBytes_[slot] += bytes;
        return linkFreeAt_[slot];
    }

    /**
     * Carry @p pkt — a Chunk, or an AckInfo — one hop from node
     * @p from toward node @p dst, at @p now on @p from's shard: the
     * next node on the route, that link's arbitration and fault draw,
     * then one post through @p router to the next node, where
     * NetworkInterface::land() delivers the packet or hops it onward.
     * A chunk may be dropped (after occupying the link), corrupted,
     * duplicated (the copy lands one hop later) or delayed. An ack
     * rides the control path: only Drop or Delay, and a dropped ack
     * never occupies the link. Delayed and duplicated packets land
     * later than one hop, never earlier, so every post keeps the
     * single-hop slice of minDeliveryLatency(). Returns the tick the
     * last byte left @p from (@p now for a dropped ack).
     */
    template <typename Packet>
    Tick hop(sim::NodeRouter &router, NodeId from, NodeId dst, Tick now,
             Packet pkt);

    /** Routing latency of one hop, injection to ejection. */
    Tick hopLatency() const { return params_.linkLatency(); }

    /**
     * Lower bound on the delivery delay of *any* packet from @p src
     * to @p dst: even the smallest packet (a bare header — the ack)
     * serializes niHeaderBytes onto a physical link and pays the
     * routing latency at *every* hop of the dimension-order route, so
     * the floor scales with distance. The sharded engine sizes its
     * per-(src, dst)-shard lookahead matrix from this query, so it is
     * a hard contract: every cross-node post the NI makes must land
     * at least this far in the sender's future. Multi-hop forwarding
     * keeps the contract per hop (each forward posts one single-hop
     * floor ahead), and the floors compose along the route.
     */
    Tick
    minDeliveryLatency(NodeId src, NodeId dst) const
    {
        return hops(src, dst)
               * (params_.linkTransfer(params_.niHeaderBytes)
                  + hopLatency());
    }

    /**
     * Install a fault configuration (single-threaded, before the
     * run). The per-source slots were sized during attach.
     */
    void setFaults(const FaultConfig &cfg) { faults_.configure(cfg); }

    /** The per-physical-link fault model (hop() consults it on
     *  every link a packet traverses). */
    FaultModel &faults() { return faults_; }
    const FaultModel &faults() const { return faults_; }

    /** Total bytes put on physical links, merged over the per-link
     *  counters — a multi-hop chunk counts once per hop, so on a mesh
     *  this measures real link occupancy, not goodput. Exact when the
     *  shards are quiescent (barriers / post-run). */
    std::uint64_t
    bytesRouted() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t b : linkBytes_)
            total += b;
        return total;
    }

  private:
    /** Size the per-node slots (attach-time only; see attach()). */
    void
    grow(NodeId node)
    {
        if (node < nis_.size())
            return;
        nis_.resize(node + 1, nullptr);
        linkFreeAt_.resize((node + 1) * linksPerNode_, 0);
        linkBytes_.resize((node + 1) * linksPerNode_, 0);
    }

    /**
     * The dense index of node @p from's link toward @p towards.
     * Crossbar: the single injection link. Mesh/torus: one of the
     * four direction links (-X, +X, -Y, +Y); a degenerate self-send
     * shares slot 0. Asserts @p from was attached — the slots are
     * sized in attach() only.
     */
    std::size_t
    linkSlot(NodeId from, NodeId towards) const
    {
        SHRIMP_ASSERT(from < nis_.size() && nis_[from],
                      "acquireLink from unattached node ", from,
                      " (links are sized in attach() only)");
        if (linksPerNode_ == 1)
            return from;
        unsigned dir = 0;
        if (towards != from) {
            const unsigned x = unsigned(from) % topo_.dimX;
            const unsigned tx = unsigned(towards) % topo_.dimX;
            if (tx != x) {
                // +X wrap steps look like tx < x; classify by the
                // non-wrapping neighbour relation instead.
                dir = (tx == x + 1 || (x == topo_.dimX - 1 && tx == 0))
                          ? 1
                          : 0;
            } else {
                const unsigned y = unsigned(from) / topo_.dimX;
                const unsigned ty = unsigned(towards) / topo_.dimX;
                dir = (ty == y + 1 || (y == topo_.dimY - 1 && ty == 0))
                          ? 3
                          : 2;
            }
        }
        return std::size_t(from) * linksPerNode_ + dir;
    }

    const sim::MachineParams &params_;
    const sim::TopologyConfig topo_;
    /** Physical links a node transmits onto (1 crossbar, 4 mesh). */
    const unsigned linksPerNode_;
    std::vector<NetworkInterface *> nis_;
    /** Busy horizon per physical link ([node * linksPerNode + dir]),
     *  each touched only by the shard executing its owner. */
    std::vector<Tick> linkFreeAt_;
    /** Per-physical-link transmitted bytes (shard-local, merged on
     *  read). */
    std::vector<std::uint64_t> linkBytes_;
    FaultModel faults_;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_INTERCONNECT_HH
