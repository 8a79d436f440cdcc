/**
 * @file
 * Allocation guard: the simulator's steady state allocates next to
 * nothing per simulated event. Every simulated CPU reference (memory
 * or proxy space) and every UDMA initiation must be allocation-free
 * once caches and pools are warm, and so must multiprogrammed paging
 * once every page has been swapped once: proxy faults, evictions, I2
 * shootdowns, I3 dirty faults and page-ins reuse page-table slots and
 * swap slots. A channel ring's data phase, fault-free or on a lossy
 * forwarding mesh, is held to 0.001 allocations per event with no
 * EventCallback heap fallback: chunk payloads are pooled, every NI
 * event capture is inline, and the retransmit, resequencing and
 * receive buffers keep their storage. What is left is first-use
 * growth and message buffers beyond the NI's short spare list. Each
 * node's event heap starts with room for its high-water mark, so a
 * 16-node lossy mesh's data phase grows none of them.
 *
 * This binary replaces the global operator new with a counting one,
 * which is why it is a test executable of its own. AddressSanitizer
 * builds compile the coroutine frame pool out, so there the guard is
 * skipped.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "msg/channel.hh"
#include "shrimp/fault.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace shrimp;

namespace
{

/** A channel ring's measured data phase. The NI and event-heap
 *  counters are summed over nodes and cover the data phase only. */
struct DataPhase
{
    std::uint64_t events = 0;
    std::uint64_t allocations = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t heapGrowths = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t oooBuffered = 0;
    std::uint64_t dupDropped = 0;
    std::uint64_t bytesDelivered = 0;
    std::uint64_t bytesRouted = 0;
};

/**
 * Node n streams @p records 1 KiB records over a user-level channel
 * to node n + 1 (mod nodes). Until @p warmup records have arrived in
 * total the ring runs on the sequential path, which checks its
 * predicate after every event; the rest, measured, runs on the engine
 * to completion.
 */
DataPhase
channelRingDataPhase(core::System &sys, unsigned records, unsigned warmup)
{
    constexpr std::uint32_t recordBytes = 1024;
    const unsigned nodes = sys.nodeCount();
    std::vector<msg::ChannelRendezvous> rv(nodes);
    unsigned received = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        core::Node *me = &sys.node(n);
        const NodeId right = (n + 1) % nodes;
        const NodeId left = (n + nodes - 1) % nodes;
        me->kernel().spawn(
            "recv",
            [&, me, left, records](os::UserContext &ctx) -> sim::ProcTask {
                msg::ReceiverChannel ch(ctx, 0, *me->ni(), left);
                if (!co_await ch.bind(rv[left]))
                    fatal("bind failed");
                for (unsigned r = 0; r < records; ++r) {
                    std::uint32_t len = 0;
                    (void)co_await ch.recvZeroCopy(len);
                    co_await ch.ackLast();
                    ++received;
                }
            });
        me->kernel().spawn(
            "send",
            [&, me, n, right, records](os::UserContext &ctx)
                -> sim::ProcTask {
                msg::SenderChannel ch(ctx, 0, *me->ni(), right);
                if (!co_await ch.connect(rv[n]))
                    fatal("connect failed");
                const Addr buf = co_await ctx.sysAllocMemory(recordBytes);
                co_await ctx.store(buf, n);
                for (unsigned r = 0; r < records; ++r)
                    co_await ch.send(buf, recordBytes);
            });
    }
    sys.runSetup([&] { return received >= warmup; });

    auto sample = [&sys] {
        DataPhase d;
        d.events = sys.simEvents();
        d.allocations = allocs();
        d.fallbacks = sim::EventCallback::heapFallbacks();
        for (unsigned n = 0; n < sys.nodeCount(); ++n) {
            d.heapGrowths += sys.nodeEq(n).heap().containerGrowths();
            const net::NetworkInterface &ni = *sys.node(n).ni();
            d.retransmits += ni.retransmits();
            d.oooBuffered += ni.rxOutOfOrderBuffered();
            d.dupDropped += ni.rxDuplicatesDropped();
            d.bytesDelivered += ni.bytesDelivered();
        }
        d.bytesRouted = sys.net().bytesRouted();
        return d;
    };
    const DataPhase before = sample();
    sys.runUntilAllDone();
    sys.run();
    const DataPhase after = sample();
    EXPECT_EQ(received, nodes * records);

    return DataPhase{after.events - before.events,
                     after.allocations - before.allocations,
                     after.fallbacks - before.fallbacks,
                     after.heapGrowths - before.heapGrowths,
                     after.retransmits - before.retransmits,
                     after.oooBuffered - before.oooBuffered,
                     after.dupDropped - before.dupDropped,
                     after.bytesDelivered - before.bytesDelivered,
                     after.bytesRouted - before.bytesRouted};
}

/** At most one heap allocation per 1,000 simulated events, and no
 *  event capture too large for EventCallback's inline buffer. */
void
expectAllocationFree(const DataPhase &d)
{
    EXPECT_LE(double(d.allocations), 0.001 * double(d.events))
        << d.allocations << " heap allocations over " << d.events
        << " simulated events";
    EXPECT_EQ(d.fallbacks, 0u) << "event captures took the heap fallback";
}

} // namespace

TEST(AllocationGuard, ChannelRingDataPhase)
{
    if (!sim::FramePool::enabled)
        GTEST_SKIP() << "coroutine frame pool compiled out (ASan)";
    core::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.shards = 1;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(core::DeviceConfig{});
    cfg.faults.specified = true;
    cfg.topology.specified = true;
    core::System sys(cfg);

    const DataPhase d = channelRingDataPhase(sys, 96, 16);
    ASSERT_GT(d.events, 100000u);
    expectAllocationFree(d);
}

TEST(AllocationGuard, LossyMeshDataPhase)
{
    if (!sim::FramePool::enabled)
        GTEST_SKIP() << "coroutine frame pool compiled out (ASan)";
    core::SystemConfig cfg;
    cfg.nodes = 4;
    cfg.shards = 1;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(core::DeviceConfig{});
    ASSERT_TRUE(sim::parseTopologySpec("mesh:2x2", cfg.topology, nullptr));
    ASSERT_TRUE(net::parseFaultSpec(
        "drop=0.03,corrupt=0.02,dup=0.03,delay=0.05,delay-us=30,seed=5",
        cfg.faults, nullptr));
    core::System sys(cfg);
    // Row-major 2x2: node 1 reaches node 2, and node 3 node 0, through
    // an intermediate node, so delivering every record forwards chunks.
    ASSERT_EQ(sys.net().hops(1, 2), 2u);
    ASSERT_EQ(sys.net().hops(3, 0), 2u);

    const DataPhase d = channelRingDataPhase(sys, 96, 64);
    ASSERT_GT(d.events, 100000u);
    // Not vacuous: in the measured phase payloads were retransmitted,
    // resequenced, deduplicated and forwarded.
    EXPECT_GT(d.retransmits, 0u);
    EXPECT_GT(d.oooBuffered, 0u);
    EXPECT_GT(d.dupDropped, 0u);
    EXPECT_GT(d.bytesRouted, d.bytesDelivered);
    expectAllocationFree(d);
}

TEST(AllocationGuard, LossyMesh16NodeHeapsDoNotGrow)
{
    // Sixteen nodes on one shard, each with its own event heap, past
    // a 16-record warm-up: RTO timers, retransmits, forwarding and
    // resequencing on the lossy mesh must fit the heaps' initial
    // capacity.
    core::SystemConfig cfg;
    cfg.nodes = 16;
    cfg.shards = 1;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(core::DeviceConfig{});
    ASSERT_TRUE(sim::parseTopologySpec("mesh:4x4", cfg.topology, nullptr));
    ASSERT_TRUE(net::parseFaultSpec(
        "drop=0.03,corrupt=0.02,dup=0.03,delay=0.05,delay-us=30,seed=5",
        cfg.faults, nullptr));
    core::System sys(cfg);

    const DataPhase d = channelRingDataPhase(sys, 64, 16);
    ASSERT_GT(d.events, 100000u);
    EXPECT_GT(d.retransmits, 0u);
    EXPECT_GT(d.bytesRouted, d.bytesDelivered);
    EXPECT_EQ(d.heapGrowths, 0u) << "per-node event heaps grew";
    EXPECT_EQ(d.fallbacks, 0u) << "event captures took the heap fallback";
}

TEST(AllocationGuard, CpuReferencesAllocateNothing)
{
    if (!sim::FramePool::enabled)
        GTEST_SKIP() << "coroutine frame pool compiled out (ASan)";
    constexpr unsigned warmup = 8;
    constexpr unsigned rounds = 200;
    constexpr std::uint32_t pb = 4096;

    core::SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = std::uint64_t(1) << 20;
    core::DeviceConfig fb;
    fb.kind = core::DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    cfg.faults.specified = true;
    cfg.topology.specified = true;
    core::System sys(cfg);

    std::uint64_t allocated = ~std::uint64_t(0);
    std::uint64_t fallbacks = ~std::uint64_t(0);
    sys.node(0).kernel().spawn(
        "udma", [&](os::UserContext &ctx) -> sim::ProcTask {
            const Addr buf = co_await ctx.sysAllocMemory(2 * pb);
            const Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            if (win == 0)
                fatal("proxy mapping refused");
            std::uint64_t allocs0 = 0, fallbacks0 = 0;
            for (unsigned i = 0; i < warmup + rounds; ++i) {
                if (i == warmup) {
                    allocs0 = allocs();
                    fallbacks0 = sim::EventCallback::heapFallbacks();
                }
                // Memory space: one STORE and one LOAD.
                const Addr off = 8 * (i % 64);
                co_await ctx.store(buf + off, i);
                if (co_await ctx.load(buf + off) != i)
                    fatal("memory lost a store");
                // Proxy space, both directions: the initiating STORE
                // and LOAD, then the completion polls.
                co_await core::udmaTransfer(ctx, 0, win + off, buf + off,
                                            256);
                co_await core::udmaTransferFromDevice(ctx, 0, buf + pb,
                                                      win + off, 256);
            }
            allocated = allocs() - allocs0;
            fallbacks = sim::EventCallback::heapFallbacks() - fallbacks0;
        });
    sys.runUntilAllDone();

    const dma::UdmaController &ctrl = *sys.node(0).controller(0);
    ASSERT_EQ(ctrl.transfersStarted(), 2u * (warmup + rounds));
    ASSERT_GT(ctrl.statusLoads(), 2u * (warmup + rounds));
    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(fallbacks, 0u);
}

TEST(AllocationGuard, PagingSteadyState)
{
    if (!sim::FramePool::enabled)
        GTEST_SKIP() << "coroutine frame pool compiled out (ASan)";
    constexpr std::uint32_t pb = 4096;
    constexpr unsigned procs = 4;
    constexpr unsigned wsPages = 24;  // 4 x 24 = 1.5 x the 64 frames
    constexpr unsigned devPages = 4;  // each process's window
    constexpr unsigned measured = 48; // rounds per process, two sweeps

    core::SystemConfig cfg;
    cfg.nodes = 1;
    cfg.shards = 1;
    cfg.node.memBytes = 64 * pb;
    cfg.params.quantumUs = 200.0;
    core::DeviceConfig fb;
    fb.kind = core::DeviceKind::FrameBuffer;
    fb.fbWidth = 512;
    fb.fbHeight = procs * devPages * pb / (4 * fb.fbWidth);
    cfg.node.devices.push_back(fb);
    cfg.faults.specified = true;
    cfg.topology.specified = true;
    core::System sys(cfg);
    os::Kernel &k = sys.node(0).kernel();

    std::array<unsigned, procs> rounds{};
    bool stop = false;
    for (unsigned p = 0; p < procs; ++p) {
        k.spawn("pager", [&, p](os::UserContext &ctx) -> sim::ProcTask {
            const Addr buf = co_await ctx.sysAllocMemory(wsPages * pb);
            const Addr win = co_await ctx.sysMapDeviceProxy(
                0, p * devPages, devPages, true);
            if (win == 0)
                fatal("proxy mapping refused");
            for (unsigned r = 0; !stop; ++r) {
                // Dirty one page and send part of it to the device,
                // then DMA into the page half a sweep ahead — a proxy
                // STORE that dirties it (I3) or pages it in first.
                const Addr src = buf + (r % wsPages) * pb;
                const Addr dst = buf + ((r + wsPages / 2) % wsPages) * pb;
                const Addr dev = win + (r % devPages) * pb;
                co_await ctx.store(src + 8 * (r % 64), r);
                co_await core::udmaTransfer(ctx, 0, dev, src, 256);
                co_await core::udmaTransferFromDevice(ctx, 0, dst, dev,
                                                      256);
                ++rounds[p];
            }
        });
    }
    auto min_rounds = [&] {
        return *std::min_element(rounds.begin(), rounds.end());
    };

    // Warm-up: every page has a swap slot and every process has swept
    // its working set, so page-table leaves, swap slots and the index
    // are all in place.
    sys.runSetup([&] {
        return k.backingStore().pages() == procs * wsPages
               && min_rounds() >= wsPages;
    });
    ASSERT_EQ(k.backingStore().pages(), procs * wsPages);
    const unsigned start = min_rounds();
    const std::uint64_t proxy0 = k.proxyFaults(), evict0 = k.evictions(),
                        i2_0 = k.i2Shootdowns(), i3_0 = k.i3DirtyFaults(),
                        in0 = k.backingStore().pageReads();

    const std::uint64_t allocs0 = allocs();
    sys.runSetup([&] { return min_rounds() >= start + measured; });
    const std::uint64_t allocated = allocs() - allocs0;

    EXPECT_GT(k.proxyFaults(), proxy0);
    EXPECT_GT(k.evictions(), evict0);
    EXPECT_GT(k.i2Shootdowns(), i2_0);
    EXPECT_GT(k.i3DirtyFaults(), i3_0);
    EXPECT_GT(k.backingStore().pageReads(), in0);
    EXPECT_EQ(allocated, 0u)
        << "heap allocations while paging in steady state";

    stop = true;
    sys.runUntilAllDone();
}
