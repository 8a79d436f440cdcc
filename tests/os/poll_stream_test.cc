/**
 * @file
 * The kernel's parked poll: a spinning pollWord whose loads the node's
 * event queue fires as one stream (Kernel::issuePoll,
 * EventQueue::parkStream). Every figure pinned here was read from a
 * kernel that issued each load of the spin as its own reference, so a
 * stream that wakes late, early or not at all fails here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "workload/ring.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

SystemConfig
fbConfig()
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    return cfg;
}

} // namespace

TEST(PollStream, HostWriteBetweenRunsWakesThePoll)
{
    // Host code between two runs writes the polled word. Nothing on
    // the node's queue changes it, so only the check on entry to the
    // second run can wake the parked load; without it the poll spins
    // on past the second limit.
    System sys(fbConfig());
    os::Kernel &k = sys.node(0).kernel();
    Addr buf = 0;
    std::uint64_t polls = 0;
    Tick returnedAt = 0;
    os::Process &proc = k.spawn(
        "poller", [&](os::UserContext &ctx) -> sim::ProcTask {
            buf = co_await ctx.sysAllocMemory(4096);
            polls = co_await pollWord(ctx, buf, 0x600D);
            returnedAt = ctx.kernel().eq().now();
        });
    sys.run(100 * tickUs);
    ASSERT_EQ(polls, 0u);
    const std::uint64_t v = 0x600D;
    k.pokeBytes(proc, buf, &v, sizeof v);
    sys.run(200 * tickUs);
    EXPECT_EQ(polls, 541u);
    EXPECT_EQ(returnedAt, 100082612u);
    EXPECT_EQ(sys.simEvents(), 543u);
    EXPECT_TRUE(k.allProcessesDone());
}

TEST(PollStream, HostWriteBetweenRunsWakesThePollOnTwoShards)
{
    // The same poll beside an idle node on a second shard. When the
    // second run starts, the poller's node has nothing in its heap:
    // only the engine's check on entry to the run can wake the parked
    // load, and it returns in the run's first window.
    auto cfg = fbConfig();
    cfg.nodes = 2;
    cfg.shards = 2;
    System sys(cfg);
    ASSERT_NE(sys.engine()->shardOf(0), sys.engine()->shardOf(1));
    os::Kernel &k = sys.node(0).kernel();
    Addr buf = 0;
    std::uint64_t polls = 0;
    Tick returnedAt = 0;
    os::Process &proc = k.spawn(
        "poller", [&](os::UserContext &ctx) -> sim::ProcTask {
            buf = co_await ctx.sysAllocMemory(4096);
            polls = co_await pollWord(ctx, buf, 0x600D);
            returnedAt = ctx.kernel().eq().now();
        });
    sys.run(100 * tickUs);
    ASSERT_EQ(polls, 0u);
    ASSERT_TRUE(k.eq().streamParked());
    const std::uint64_t v = 0x600D;
    k.pokeBytes(proc, buf, &v, sizeof v);
    // Node 0's hook runs at every boundary of the run, the first one
    // before any window.
    std::vector<std::uint64_t> pollsAtBoundary;
    sys.engine()->setBarrierHook([&](NodeId n) {
        if (n == 0)
            pollsAtBoundary.push_back(polls);
    });
    sys.run(200 * tickUs);
    sys.engine()->setBarrierHook({});
    ASSERT_GE(pollsAtBoundary.size(), 2u);
    EXPECT_EQ(pollsAtBoundary[0], 0u);
    EXPECT_EQ(pollsAtBoundary[1], 541u);
    EXPECT_EQ(polls, 541u);
    EXPECT_EQ(returnedAt, 100082612u);
    EXPECT_EQ(sys.simEvents(), 543u);
    EXPECT_TRUE(k.allProcessesDone());
}

TEST(PollStream, RunSetupAfterARunThatLeftThePollParked)
{
    // A run ends with node 0's poll parked, and runSetup takes over.
    // Node 1 computes until it raises a host flag at about 120 us,
    // while node 0 spins until an event of its own writes the word at
    // 150 us. runSetup stops right after node 1's flag: in canonical
    // order node 0's loads due before it fire first, so runSetup must
    // order the parked spin with every other event. Every figure was
    // read from an engine whose node fronts held the parked stream.
    auto cfg = fbConfig();
    cfg.nodes = 2;
    cfg.shards = 2;
    System sys(cfg);
    os::Kernel &k0 = sys.node(0).kernel();
    std::uint64_t polls = 0;
    Tick returnedAt = 0;
    k0.spawn("poller", [&](os::UserContext &ctx) -> sim::ProcTask {
        Addr buf = co_await ctx.sysAllocMemory(4096);
        ctx.kernel().eq().scheduleIn(150 * tickUs, "flag", [&ctx, buf] {
            const std::uint64_t v = 0xF1A6;
            ctx.kernel().pokeBytes(ctx.process(), buf, &v, sizeof v);
        });
        polls = co_await pollWord(ctx, buf, 0xF1A6);
        returnedAt = ctx.kernel().eq().now();
    });
    bool raised = false;
    Tick raisedAt = 0;
    sys.node(1).kernel().spawn(
        "computer", [&](os::UserContext &ctx) -> sim::ProcTask {
            while (ctx.kernel().eq().now() < 120 * tickUs)
                co_await ctx.compute(50);
            raised = true;
            raisedAt = ctx.kernel().eq().now();
        });
    sys.run(100 * tickUs);
    ASSERT_TRUE(k0.eq().streamParked());
    ASSERT_FALSE(raised);
    sys.runSetup([&raised] { return raised; });
    EXPECT_EQ(raisedAt, 120061900u);
    EXPECT_EQ(k0.eq().now(), 120032612u);
    EXPECT_EQ(sys.simEvents(), 816u);
    EXPECT_EQ(sys.node(0).mmu().tlb().hits(), 674u);
    EXPECT_EQ(polls, 0u);
    sys.runUntilAllDone();
    EXPECT_EQ(polls, 949u);
    EXPECT_EQ(returnedAt, 161282612u);
    EXPECT_EQ(sys.simNow(), 161282612u);
    EXPECT_EQ(sys.simEvents(), 1092u);
    EXPECT_EQ(sys.node(0).mmu().tlb().hits(), 948u);
}

TEST(PollStream, QuantumExpiryMidSpinSwitchesAtTheScheduledTicks)
{
    // A poller shares the CPU with a compute loop under a 20 us
    // quantum, and an event writes the polled word at 150 us. Each
    // quantum expiry lands in the middle of a spin: the parked load
    // wakes, completes at its own tick and the CPU switches there.
    // The compute loop sees each switch as a gap between two of its
    // references.
    auto cfg = fbConfig();
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    os::Kernel &k = sys.node(0).kernel();
    std::uint64_t polls = 0;
    Tick returnedAt = 0;
    os::Process &poller = k.spawn(
        "poller", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            ctx.kernel().eq().scheduleIn(
                150 * tickUs, "flag", [&ctx, buf] {
                    const std::uint64_t v = 0xF1A6;
                    ctx.kernel().pokeBytes(ctx.process(), buf, &v,
                                           sizeof v);
                });
            polls = co_await pollWord(ctx, buf, 0xF1A6);
            returnedAt = ctx.kernel().eq().now();
        });
    std::vector<Tick> leftAt, backAt;
    k.spawn("compute", [&](os::UserContext &ctx) -> sim::ProcTask {
        Tick last = 0;
        const Tick step = ctx.kernel().params().instrTicks(7);
        for (int i = 0; i < 3000; ++i) {
            co_await ctx.compute(7);
            const Tick now = ctx.kernel().eq().now();
            if (last != 0 && now - last > step) {
                leftAt.push_back(last);
                backAt.push_back(now);
            }
            last = now;
        }
    });
    sys.runUntilAllDone();
    EXPECT_EQ(polls, 371u);
    EXPECT_EQ(returnedAt, 161379356u);
    ASSERT_EQ(leftAt.size(), 3u);
    EXPECT_EQ(leftAt[0], 48515014u);
    EXPECT_EQ(backAt[0], 77148060u);
    EXPECT_EQ(leftAt[1], 97097262u);
    EXPECT_EQ(backAt[1], 125730308u);
    EXPECT_EQ(leftAt[2], 145679510u);
    EXPECT_EQ(backAt[2], 165612556u);
    EXPECT_EQ(k.contextSwitches(), 8u);
    EXPECT_EQ(poller.preemptions(), 3u);
    EXPECT_EQ(sys.simNow(), 455400964u);
    EXPECT_EQ(sys.simEvents(), 3401u);
    // Every load but the first after each switch hits the TLB.
    EXPECT_EQ(sys.node(0).mmu().tlb().hits(), 367u);
}

TEST(PollStream, PollersOnSeveralNodesMatchAcrossShardCounts)
{
    // The ring's receivers poll their channel slots. On one shard and
    // on four the runs are the same simulation, and most events are
    // loads of parked spins.
    struct Seen
    {
        std::uint64_t inPlace = 0;
        std::uint64_t tlbHits = 0;
    };
    auto run = [](unsigned shards, Seen &seen) {
        workload::RingConfig cfg;
        cfg.nodes = 4;
        cfg.records = 8;
        cfg.recordBytes = 1024;
        cfg.shards = shards;
        cfg.onSystemDone = [&seen](System &sys) {
            seen.inPlace = sys.engine()->firedInPlace();
            for (unsigned n = 0; n < sys.nodeCount(); ++n)
                seen.tlbHits += sys.node(n).mmu().tlb().hits();
        };
        return workload::runRing(cfg);
    };
    Seen s1, s4;
    const workload::RingResult r1 = run(1, s1);
    const workload::RingResult r4 = run(4, s4);
    EXPECT_EQ(r1.simTicks, 1799868107u);
    EXPECT_EQ(r1.simEvents, 19937u);
    EXPECT_EQ(r1.digest, 0x7e4801b37381a7c7ull);
    EXPECT_EQ(r1.dataDigest, 0xebd530e9d7a92f7dull);
    EXPECT_EQ(r1.simTicks, r4.simTicks);
    EXPECT_EQ(r1.simEvents, r4.simEvents);
    EXPECT_EQ(r1.digest, r4.digest);
    EXPECT_EQ(r1.dataDigest, r4.dataDigest);
    EXPECT_EQ(s1.tlbHits, s4.tlbHits);
    EXPECT_EQ(s1.tlbHits, 17604u);
    // In-place counts may differ: where a sub-window ends depends on
    // the shard layout. Each load issued on its own fired 13,694 of
    // the 19,937 events in place (68.7 %) on one shard.
    EXPECT_GT(s1.inPlace * 4, r1.simEvents * 3);
    EXPECT_GT(s4.inPlace * 4, r4.simEvents * 3);
}
