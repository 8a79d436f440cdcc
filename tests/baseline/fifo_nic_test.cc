/**
 * @file
 * Unit tests for the memory-mapped FIFO NIC baseline (Section 9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;
using baseline::FifoNic;

namespace
{

SystemConfig
fifoConfig(unsigned nodes = 2)
{
    SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig d;
    d.kind = DeviceKind::FifoNic;
    cfg.node.devices.push_back(d);
    return cfg;
}

/** What a FIFO-NIC run leaves behind. */
struct FifoRun
{
    std::vector<std::uint64_t> got;
    Tick now = 0;
    std::uint64_t events = 0;
};

/**
 * Nodes 0 and 1 each send node 2 @p words words; node 2 pops them all
 * in arrival order. The senders wait for the receiver under runSetup.
 */
FifoRun
twoSendersIntoNodeTwo(unsigned shards, std::uint64_t words)
{
    SystemConfig cfg = fifoConfig(3);
    cfg.shards = shards;
    System sys(cfg);
    EXPECT_EQ(sys.engine()->shardCount(), shards);
    FifoRun run;
    bool recv_ready = false;
    unsigned started = 0;

    sys.node(2).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            recv_ready = true;
            while (run.got.size() < 2 * words) {
                std::uint64_t avail =
                    co_await ctx.load(win + FifoNic::regRxAvail);
                for (std::uint64_t i = 0; i < avail; ++i) {
                    run.got.push_back(
                        co_await ctx.load(win + FifoNic::regRxData));
                }
            }
        });
    for (unsigned n = 0; n < 2; ++n) {
        sys.node(n).kernel().spawn(
            "send", [&, n](os::UserContext &ctx) -> sim::ProcTask {
                Addr win =
                    co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
                while (!recv_ready)
                    co_await ctx.compute(500);
                ++started;
                co_await ctx.store(win + FifoNic::regDestNode, 2);
                Addr tx = win + ctx.pageBytes();
                for (std::uint64_t w = 0; w < words; ++w)
                    co_await ctx.store(tx, 100 * (n + 1) + w);
            });
    }

    sys.runSetup([&] { return started == 2; }, Tick(10) * tickSec);
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), words);
    EXPECT_EQ(sys.node(1).fifoNic()->wordsSent(), words);
    EXPECT_EQ(sys.node(2).fifoNic()->wordsReceived(), 2 * words);
    // runUntilAllDone stops at a window barrier, which depends on the
    // shard count; drain the credits still in flight.
    sys.run();
    run.now = sys.simNow();
    run.events = sys.simEvents();
    return run;
}

} // namespace

TEST(FifoNic, WordsFlowBetweenNodes)
{
    System sys(fifoConfig());
    std::vector<std::uint64_t> got;
    bool recv_ready = false;
    bool started = false;

    sys.node(1).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            recv_ready = true;
            while (got.size() < 4) {
                std::uint64_t avail =
                    co_await ctx.load(win + FifoNic::regRxAvail);
                for (std::uint64_t i = 0; i < avail; ++i) {
                    got.push_back(
                        co_await ctx.load(win + FifoNic::regRxData));
                }
            }
        });

    sys.node(0).kernel().spawn(
        "send", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            while (!recv_ready)
                co_await ctx.compute(500);
            started = true;
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Addr tx = win + ctx.pageBytes();
            for (std::uint64_t w = 10; w < 14; ++w)
                co_await ctx.store(tx, w);
        });

    sys.runSetup([&] { return started; }, Tick(10) * tickSec);
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 11, 12, 13}));
    EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), 4u);
    EXPECT_EQ(sys.node(1).fifoNic()->wordsReceived(), 4u);
}

TEST(FifoNic, RunsOnOneShardOfAMultiNodeSystem)
{
    // Three nodes merged on one shard: both senders' words reach node
    // 2 through the PIO path, each at its sender's own clock.
    FifoRun run = twoSendersIntoNodeTwo(1, 4);
    std::sort(run.got.begin(), run.got.end());
    EXPECT_EQ(run.got, (std::vector<std::uint64_t>{100, 101, 102, 103,
                                                   200, 201, 202, 203}));
}

TEST(FifoNic, EveryShardCountRunsTheSameSimulation)
{
    // Words travel by NodeRouter::post and credits come back the same
    // way, so nothing reads another node's state and the shard count
    // cannot show: same arrival order, clock and event count.
    const FifoRun one = twoSendersIntoNodeTwo(1, 64);
    ASSERT_EQ(one.got.size(), 128u);
    for (unsigned shards : {2u, 3u}) {
        const FifoRun run = twoSendersIntoNodeTwo(shards, 64);
        EXPECT_EQ(run.got, one.got) << shards << " shards";
        EXPECT_EQ(run.now, one.now) << shards << " shards";
        EXPECT_EQ(run.events, one.events) << shards << " shards";
    }
}

TEST(FifoNic, CreditsHoldTheSenderUntilTheReceiverPops)
{
    // The receiver computes for 2 ms before it pops anything, and the
    // sender writes two and a half FIFOs' worth of words. Its credits
    // run out after exactly one FIFO, the outgoing FIFO then fills
    // (TX_SPACE reads 0), and the receiver's pops release the rest:
    // every word arrives once and in order, on one shard or two.
    const sim::MachineParams p;
    const std::uint64_t fifo = p.niFifoBytes / 8;
    const std::uint64_t words = 2 * fifo + fifo / 2;
    for (unsigned shards : {1u, 2u}) {
        SystemConfig cfg = fifoConfig();
        cfg.shards = shards;
        System sys(cfg);
        std::vector<std::uint64_t> got;
        std::uint64_t first_avail = 0;
        std::uint64_t min_space = ~0ull;
        bool recv_ready = false;
        bool started = false;

        sys.node(1).kernel().spawn(
            "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
                Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
                recv_ready = true;
                co_await ctx.compute(
                    std::uint64_t(2 * tickMs / p.instrTicks(1)));
                first_avail = co_await ctx.load(win + FifoNic::regRxAvail);
                while (got.size() < words) {
                    std::uint64_t avail =
                        co_await ctx.load(win + FifoNic::regRxAvail);
                    for (std::uint64_t i = 0; i < avail; ++i) {
                        got.push_back(
                            co_await ctx.load(win + FifoNic::regRxData));
                    }
                }
            });
        sys.node(0).kernel().spawn(
            "send", [&](os::UserContext &ctx) -> sim::ProcTask {
                Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
                while (!recv_ready)
                    co_await ctx.compute(500);
                started = true;
                co_await ctx.store(win + FifoNic::regDestNode, 1);
                Addr tx = win + ctx.pageBytes();
                std::uint64_t sent = 0;
                while (sent < words) {
                    std::uint64_t space =
                        co_await ctx.load(win + FifoNic::regTxSpace);
                    min_space = std::min(min_space, space);
                    for (std::uint64_t i = 0; i < space && sent < words;
                         ++i)
                        co_await ctx.store(tx, sent++);
                }
            });

        sys.runSetup([&] { return started; }, Tick(10) * tickSec);
        sys.runUntilAllDone(Tick(10) * tickSec);
        EXPECT_EQ(first_avail, fifo)
            << "the sender stops at one FIFO's worth of credits";
        EXPECT_EQ(min_space, 0u) << "and its outgoing FIFO fills";
        std::vector<std::uint64_t> want(words);
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(got, want) << shards << " shards";
        EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), words);
        EXPECT_EQ(sys.node(1).fifoNic()->wordsReceived(), words);
    }
}

TEST(FifoNic, StatusRegistersReflectState)
{
    System sys(fifoConfig());
    std::uint64_t space = 0, avail_empty = ~0ull, pop_empty = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            space = co_await ctx.load(win + FifoNic::regTxSpace);
            avail_empty = co_await ctx.load(win + FifoNic::regRxAvail);
            pop_empty = co_await ctx.load(win + FifoNic::regRxData);
        });
    sys.runUntilAllDone();
    sim::MachineParams p;
    EXPECT_EQ(space, p.niFifoBytes / 8);
    EXPECT_EQ(avail_empty, 0u);
    EXPECT_EQ(pop_empty, 0u) << "popping an empty FIFO returns 0";
}

TEST(FifoNic, ProtectedByVmLikeAnyDeviceWindow)
{
    System sys(fifoConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "bad", [&](os::UserContext &ctx) -> sim::ProcTask {
            // Never mapped the window.
            auto base = ctx.kernel().layout().devProxyBase(0);
            co_await ctx.store(base + FifoNic::regDestNode, 1);
            ADD_FAILURE() << "unreachable";
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
}

TEST(FifoNic, PerWordCostIsOneBusTransaction)
{
    // 64 words = 64 uncached stores; wall time must scale with the
    // word count (the Section 9 argument for why DMA wins at size).
    System sys(fifoConfig());
    Tick elapsed = 0;
    bool recv_ready = false;
    bool started = false;
    sys.node(1).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            (void)win;
            recv_ready = true;
        });
    sys.node(0).kernel().spawn(
        "send", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            while (!recv_ready)
                co_await ctx.compute(500);
            started = true;
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Tick t0 = ctx.kernel().eq().now();
            for (int w = 0; w < 64; ++w)
                co_await ctx.store(win + ctx.pageBytes(), w);
            elapsed = ctx.kernel().eq().now() - t0;
        });
    sys.runSetup([&] { return started; }, Tick(10) * tickSec);
    sys.runUntilAllDone(Tick(10) * tickSec);
    sim::MachineParams p;
    EXPECT_GE(elapsed, 64 * p.ioAccess());
    EXPECT_LE(elapsed, 64 * p.ioAccess() * 3);
}
