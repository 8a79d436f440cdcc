/**
 * @file
 * Unit tests for the backplane interconnect: attach/lookup and
 * per-link arbitration on the crossbar, dimension-order routing on
 * mesh and torus wirings, the distance-scaled minDeliveryLatency
 * floor, and — as a property test — the lookahead contract the
 * sharded engine trusts: every cross-node post (data chunks, acks,
 * device-proxy deliveries, forwarded hops) lands at least
 * minDeliveryLatency(src, dst) in the sender's future, on every
 * topology, even under delay/duplicate faults.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bus/io_bus.hh"
#include "mem/physical_memory.hh"
#include "shrimp/network_interface.hh"
#include "sim/sharded.hh"

#include "../support/queue_router.hh"

using namespace shrimp;
using namespace shrimp::net;

namespace
{

sim::TopologyConfig
parseTopo(const std::string &spec)
{
    sim::TopologyConfig topo;
    EXPECT_TRUE(sim::parseTopologySpec(spec, topo, nullptr))
        << "bad spec " << spec;
    return topo;
}

struct NetFixture : ::testing::Test
{
    sim::EventQueue eq;
    test::QueueRouter router{eq};
    sim::MachineParams params;
    Interconnect net{params};
    mem::PhysicalMemory mem{1 << 20, 4096};
    bus::IoBus bus{eq, params};
    std::vector<std::unique_ptr<NetworkInterface>> nis;

    /** Attach NIs for nodes [0, n) (the ctor self-attaches). */
    void
    attachNodes(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            nis.push_back(std::make_unique<NetworkInterface>(
                eq, router, params, i, mem, bus, net, 4096));
    }

    /** Occupy @p src's crossbar injection link at tick 0. */
    Tick
    inject(NodeId src, std::uint64_t bytes)
    {
        return net.acquireLink(src, src, bytes, 0);
    }
};

} // namespace

TEST_F(NetFixture, UnknownNodePanics)
{
    EXPECT_THROW(net.ni(3), PanicError);
    EXPECT_FALSE(net.hasNode(3));
}

TEST_F(NetFixture, AttachAndLookup)
{
    NetworkInterface ni(eq, router, params, 5, mem, bus, net, 4096);
    EXPECT_TRUE(net.hasNode(5));
    EXPECT_EQ(net.ni(5), &ni);
}

TEST_F(NetFixture, DoubleAttachPanics)
{
    NetworkInterface ni(eq, router, params, 5, mem, bus, net, 4096);
    EXPECT_THROW(net.attach(5, &ni), PanicError);
}

TEST_F(NetFixture, AcquireLinkFromUnattachedNodePanics)
{
    // The link vectors are sized in attach() only: a runtime grow
    // would be a data race under shards, so acquireLink must refuse
    // rather than resize.
    EXPECT_THROW(inject(0, 2000), PanicError);
    attachNodes(1);
    EXPECT_NO_THROW(inject(0, 2000));
    EXPECT_THROW(inject(1, 2000), PanicError);
}

TEST_F(NetFixture, LinkSerializesPerSource)
{
    attachNodes(1);
    Tick t1 = inject(0, 2000); // 2000 B at 200 MB/s = 10 us
    Tick t2 = inject(0, 2000);
    EXPECT_NEAR(double(t1), 10.0 * tickUs, double(tickNs));
    EXPECT_NEAR(double(t2), 20.0 * tickUs, double(tickNs));
}

TEST_F(NetFixture, DistinctSourcesDoNotSerialize)
{
    attachNodes(2);
    Tick t1 = inject(0, 2000);
    Tick t2 = inject(1, 2000);
    EXPECT_EQ(t1, t2) << "a crossbar: each node has its own link";
}

TEST_F(NetFixture, TracksRoutedBytes)
{
    attachNodes(2);
    inject(0, 100);
    inject(1, 250);
    EXPECT_EQ(net.bytesRouted(), 350u);
}

TEST_F(NetFixture, HopLatencyFromParams)
{
    EXPECT_EQ(net.hopLatency(), Tick(params.linkLatencyNs * tickNs));
}

// ------------------------------------------------- topology parsing

TEST(TopologySpec, ParsesAllKinds)
{
    sim::TopologyConfig t;
    EXPECT_TRUE(sim::parseTopologySpec("crossbar", t, nullptr));
    EXPECT_TRUE(t.flat());
    EXPECT_TRUE(t.specified);

    EXPECT_TRUE(sim::parseTopologySpec("mesh:4x4", t, nullptr));
    EXPECT_FALSE(t.flat());
    EXPECT_EQ(t.dimX, 4u);
    EXPECT_EQ(t.dimY, 4u);
    EXPECT_EQ(t.gridNodes(), 16u);
    EXPECT_EQ(t.describe(), "mesh:4x4");

    EXPECT_TRUE(sim::parseTopologySpec("torus:8x2", t, nullptr));
    EXPECT_EQ(t.kind, sim::TopologyConfig::Kind::Torus);
    EXPECT_EQ(t.gridNodes(), 16u);
    EXPECT_EQ(t.describe(), "torus:8x2");
}

TEST(TopologySpec, RejectsMalformedSpecs)
{
    sim::TopologyConfig t;
    for (const char *bad : {"", "mesh", "mesh:", "mesh:4", "mesh:4x",
                            "mesh:0x4", "mesh:1x1", "mesh:4x4x4",
                            "ring:4x4", "torus:ax4"}) {
        EXPECT_FALSE(sim::parseTopologySpec(bad, t, nullptr))
            << "accepted '" << bad << "'";
    }
}

// ------------------------------------------------- routing geometry

TEST(Routing, DistanceIsSymmetricOnEveryTopology)
{
    for (const char *spec : {"mesh:4x4", "torus:4x4", "mesh:8x2",
                             "torus:8x2"}) {
        sim::TopologyConfig topo = parseTopo(spec);
        const unsigned n = topo.gridNodes();
        for (NodeId a = 0; a < n; ++a)
            for (NodeId b = 0; b < n; ++b)
                EXPECT_EQ(topo.hops(a, b), topo.hops(b, a))
                    << spec << " " << a << "<->" << b;
    }
}

TEST(Routing, DimensionOrderPathXThenY)
{
    // 4x4 mesh, row-major: node 10 is (x=2, y=2). From node 0 the
    // dimension-order route corrects X first (0 -> 1 -> 2), then Y
    // (2 -> 6 -> 10).
    sim::TopologyConfig topo = parseTopo("mesh:4x4");
    EXPECT_EQ(topo.hops(0, 10), 4u);
    std::vector<NodeId> path;
    NodeId at = 0;
    while (at != 10) {
        at = topo.nextHop(at, 10);
        path.push_back(at);
        ASSERT_LE(path.size(), 8u) << "route does not converge";
    }
    EXPECT_EQ(path, (std::vector<NodeId>{1, 2, 6, 10}));
}

TEST(Routing, EveryHopIsAdjacentAndConverges)
{
    for (const char *spec : {"mesh:4x4", "torus:4x4"}) {
        sim::TopologyConfig topo = parseTopo(spec);
        const unsigned n = topo.gridNodes();
        for (NodeId src = 0; src < n; ++src) {
            for (NodeId dst = 0; dst < n; ++dst) {
                NodeId at = src;
                unsigned steps = 0;
                while (at != dst) {
                    NodeId next = topo.nextHop(at, dst);
                    EXPECT_EQ(topo.hops(at, next), 1u)
                        << spec << ": " << at << " -> " << next
                        << " is not one hop";
                    at = next;
                    ASSERT_LE(++steps, n)
                        << spec << ": " << src << " -> " << dst
                        << " does not converge";
                }
                if (src != dst) {
                    EXPECT_EQ(steps, topo.hops(src, dst))
                        << spec << ": " << src << " -> " << dst;
                }
            }
        }
    }
}

TEST(Routing, TorusWrapsAroundWhereTheMeshWalks)
{
    sim::TopologyConfig mesh = parseTopo("mesh:4x4");
    sim::TopologyConfig torus = parseTopo("torus:4x4");
    // Edge to edge along X: three mesh hops, one torus wrap.
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(torus.hops(0, 3), 1u);
    EXPECT_EQ(torus.nextHop(0, 3), 3u);
    // Corner to corner: 6 mesh hops, 2 torus wraps.
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(torus.hops(0, 15), 2u);
    // The torus never does worse than the mesh.
    for (NodeId a = 0; a < 16; ++a)
        for (NodeId b = 0; b < 16; ++b)
            EXPECT_LE(torus.hops(a, b), mesh.hops(a, b));
}

TEST(Routing, MinDeliveryLatencyScalesWithDistance)
{
    sim::MachineParams params;
    Interconnect flat{params};
    Interconnect meshNet{params, parseTopo("mesh:4x4")};
    // One hop costs the header serialization plus the hop latency.
    const Tick one = flat.minDeliveryLatency(0, 1);
    EXPECT_EQ(meshNet.minDeliveryLatency(0, 1), one);
    EXPECT_EQ(meshNet.minDeliveryLatency(0, 10), 4 * one);
    EXPECT_EQ(meshNet.minDeliveryLatency(0, 15), 6 * one);
    // The self-send floor never collapses to zero (the engine's
    // lookahead fold would otherwise deadlock a shard on itself).
    EXPECT_EQ(meshNet.minDeliveryLatency(3, 3), one);
}

TEST(Routing, MeshDirectionLinksArbitrateIndependently)
{
    sim::EventQueue eq;
    test::QueueRouter router{eq};
    sim::MachineParams params;
    Interconnect net{params, parseTopo("mesh:4x4")};
    mem::PhysicalMemory mem{1 << 20, 4096};
    bus::IoBus bus{eq, params};
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    for (unsigned i = 0; i < 16; ++i)
        nis.push_back(std::make_unique<NetworkInterface>(
            eq, router, params, i, mem, bus, net, 4096));

    // Node 5 is interior: -X=4, +X=6, -Y=1, +Y=9 are four distinct
    // physical links and must not serialize against each other...
    Tick east = net.acquireLink(5, 6, 2000, 0);
    Tick west = net.acquireLink(5, 4, 2000, 0);
    Tick north = net.acquireLink(5, 1, 2000, 0);
    Tick south = net.acquireLink(5, 9, 2000, 0);
    EXPECT_EQ(east, west);
    EXPECT_EQ(east, north);
    EXPECT_EQ(east, south);
    // ...while a second transfer on the same direction queues behind
    // the first.
    Tick east2 = net.acquireLink(5, 6, 2000, 0);
    EXPECT_EQ(east2, 2 * east);
    // Each acquisition counted its bytes once.
    EXPECT_EQ(net.bytesRouted(), 5u * 2000u);
}

// ------------------------------------- the lookahead-floor property
//
// The contract the sharded engine sizes its lookahead matrix from:
// every cross-node post lands >= minDeliveryLatency(src, dst) in the
// sender's future. Interpose a NodeRouter that checks the bound for
// every post the NIs make, then drive real transport traffic — data
// chunks through the NIPT device proxy, acks riding back, multi-hop
// forwards — under delay and duplicate faults (which may only push
// arrivals later, never earlier).

namespace
{

class FloorCheckRouter : public test::QueueRouter
{
  public:
    FloorCheckRouter(sim::EventQueue &eq, Interconnect &net)
        : QueueRouter(eq), net_(net)
    {}

    void
    post(NodeId src, NodeId dst, Tick when, const char *name,
         sim::EventCallback fn, sim::EventPriority prio) override
    {
        ++posts_;
        if (src != dst) {
            const Tick floor = net_.minDeliveryLatency(src, dst);
            EXPECT_GE(when, eq_.now() + floor)
                << name << " from node " << src << " to node " << dst
                << " lands only " << (when - eq_.now())
                << " ticks out (floor " << floor << ")";
            if (when < eq_.now() + floor)
                ++violations_;
        }
        QueueRouter::post(src, dst, when, name, std::move(fn), prio);
    }

    std::uint64_t posts() const { return posts_; }
    std::uint64_t violations() const { return violations_; }

  private:
    Interconnect &net_;
    std::uint64_t posts_ = 0;
    std::uint64_t violations_ = 0;
};

/** Drive one deliberate-update message src -> dst and check arrival. */
void
runFloorProperty(const std::string &spec, NodeId src, NodeId dst)
{
    SCOPED_TRACE(spec);
    sim::EventQueue eq;
    sim::MachineParams params;
    sim::TopologyConfig topo;
    if (spec != "crossbar")
        topo = parseTopo(spec);
    Interconnect net{params, topo};

    FloorCheckRouter router(eq, net);

    const unsigned n = topo.flat() ? 16 : topo.gridNodes();
    mem::PhysicalMemory mem{1 << 22, 4096};
    bus::IoBus bus{eq, params};
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    for (unsigned i = 0; i < n; ++i)
        nis.push_back(std::make_unique<NetworkInterface>(
            eq, router, params, i, mem, bus, net, 4096));

    // Delay and duplicate faults: both may only move arrivals later.
    FaultConfig fc;
    ASSERT_TRUE(
        parseFaultSpec("delay=0.3,dup=0.2,seed=11", fc, nullptr));
    net.setFaults(fc);

    NetworkInterface &tx = *nis[src];
    NetworkInterface &rx = *nis[dst];

    const std::uint32_t bytes = 4096;
    tx.nipt().set(0, dst, 16);
    ASSERT_EQ(tx.validateTransfer(true, 0, bytes), 0);
    tx.transferStarting(true, 0, bytes);
    std::vector<std::uint8_t> data(bytes);
    for (std::uint32_t i = 0; i < bytes; ++i)
        data[i] = std::uint8_t(i * 13 + 1);
    std::uint32_t pushed = 0;
    while (pushed < bytes) {
        std::uint32_t cap = tx.pushCapacity(pushed, bytes - pushed);
        if (cap == 0) {
            ASSERT_TRUE(eq.step()) << "deadlock while pushing";
            continue;
        }
        tx.devicePush(pushed, data.data() + pushed, cap);
        pushed += cap;
    }
    tx.transferFinished(true, 0, bytes);
    eq.run();

    EXPECT_EQ(rx.messagesDelivered(), 1u);
    for (std::uint32_t i = 0; i < bytes; ++i)
        ASSERT_EQ(mem.read<std::uint8_t>(16 * 4096 + i),
                  std::uint8_t(i * 13 + 1))
            << "payload byte " << i;
    EXPECT_GT(router.posts(), 0u)
        << "no cross-node posts: the property was never exercised";
    EXPECT_EQ(router.violations(), 0u);
}

} // namespace

TEST(LookaheadFloor, HoldsOnCrossbar) { runFloorProperty("crossbar", 0, 10); }

TEST(LookaheadFloor, HoldsOnMeshMultiHop)
{
    // 0 -> 10 is a 4-hop dimension-order route: every forwarded leg
    // must respect its own adjacent-pair floor.
    runFloorProperty("mesh:4x4", 0, 10);
}

TEST(LookaheadFloor, HoldsOnTorusWraparound)
{
    // 0 -> 15 wraps both axes on the torus (2 hops).
    runFloorProperty("torus:4x4", 0, 15);
}
