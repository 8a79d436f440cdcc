/**
 * @file
 * Allocation guard: the simulator's steady state allocates next to
 * nothing per simulated event. Every simulated CPU reference (memory
 * or proxy space) and every UDMA initiation must be allocation-free
 * once caches and pools are warm, and so must multiprogrammed paging
 * once every page has been swapped once: proxy faults, evictions, I2
 * shootdowns, I3 dirty faults and page-ins reuse page-table slots and
 * swap slots. What is left on a channel ring is the NI's per-chunk
 * payload copies.
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

TEST(AllocationGuard, ChannelRingDataPhase)
{
    if (!sim::FramePool::enabled)
        GTEST_SKIP() << "coroutine frame pool compiled out (ASan)";
    constexpr unsigned nodes = 2;
    constexpr unsigned records = 96;
    constexpr unsigned warmup = 16;
    constexpr std::uint32_t recordBytes = 1024;

    core::SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.shards = 1;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(core::DeviceConfig{});
    cfg.faults.specified = true;
    cfg.topology.specified = true;
    core::System sys(cfg);

    std::vector<msg::ChannelRendezvous> rv(nodes);
    unsigned received = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        core::Node *me = &sys.node(n);
        const NodeId right = (n + 1) % nodes;
        const NodeId left = (n + nodes - 1) % nodes;
        me->kernel().spawn(
            "recv",
            [&, me, left](os::UserContext &ctx) -> sim::ProcTask {
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
            [&, me, n, right](os::UserContext &ctx) -> sim::ProcTask {
                msg::SenderChannel ch(ctx, 0, *me->ni(), right);
                if (!co_await ch.connect(rv[n]))
                    fatal("connect failed");
                const Addr buf = co_await ctx.sysAllocMemory(recordBytes);
                co_await ctx.store(buf, n);
                for (unsigned r = 0; r < records; ++r)
                    co_await ch.send(buf, recordBytes);
            });
    }
    // Warm-up on the sequential path, which checks its predicate after
    // every event; the measured data phase then runs on the engine.
    sys.runSetup([&] { return received >= warmup; });

    const std::uint64_t allocs0 = allocs();
    const std::uint64_t events0 = sys.simEvents();
    sys.runUntilAllDone();
    sys.run();
    const std::uint64_t events = sys.simEvents() - events0;
    const std::uint64_t allocated = allocs() - allocs0;

    ASSERT_EQ(received, nodes * records);
    ASSERT_GT(events, 100000u);
    EXPECT_LE(double(allocated), 0.05 * double(events))
        << allocated << " heap allocations over " << events
        << " simulated events";
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
