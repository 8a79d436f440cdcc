/**
 * @file
 * Unit tests for the memory-mapped FIFO NIC baseline (Section 9).
 */

#include <gtest/gtest.h>

#include <algorithm>

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

} // namespace

TEST(FifoNic, WordsFlowBetweenNodes)
{
    System sys(fifoConfig());
    std::vector<std::uint64_t> got;
    bool recv_ready = false;

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
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Addr tx = win + ctx.pageBytes();
            for (std::uint64_t w = 10; w < 14; ++w)
                co_await ctx.store(tx, w);
        });

    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 11, 12, 13}));
    EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), 4u);
    EXPECT_EQ(sys.node(1).fifoNic()->wordsReceived(), 4u);
}

TEST(FifoNic, RunsOnOneShardOfAMultiNodeSystem)
{
    // Three nodes merged on one shard: both senders' words reach node
    // 2 through the PIO path, each at its sender's own clock.
    SystemConfig cfg = fifoConfig(3);
    cfg.shards = 1;
    System sys(cfg);
    ASSERT_EQ(sys.engine()->shardCount(), 1u);
    std::vector<std::uint64_t> got;
    bool recv_ready = false;

    sys.node(2).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            recv_ready = true;
            while (got.size() < 8) {
                std::uint64_t avail =
                    co_await ctx.load(win + FifoNic::regRxAvail);
                for (std::uint64_t i = 0; i < avail; ++i) {
                    got.push_back(
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
                co_await ctx.store(win + FifoNic::regDestNode, 2);
                Addr tx = win + ctx.pageBytes();
                for (std::uint64_t w = 0; w < 4; ++w)
                    co_await ctx.store(tx, 100 * (n + 1) + w);
            });
    }

    sys.runUntilAllDone(Tick(10) * tickSec);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{100, 101, 102, 103, 200,
                                               201, 202, 203}));
    EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), 4u);
    EXPECT_EQ(sys.node(1).fifoNic()->wordsSent(), 4u);
    EXPECT_EQ(sys.node(2).fifoNic()->wordsReceived(), 8u);
}

TEST(FifoNic, MoreThanOneShardIsFatal)
{
    // Synchronous peer reads need one global event order.
    SystemConfig cfg = fifoConfig(2);
    cfg.shards = 2;
    EXPECT_THROW(System sys(cfg), FatalError);
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
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Tick t0 = ctx.kernel().eq().now();
            for (int w = 0; w < 64; ++w)
                co_await ctx.store(win + ctx.pageBytes(), w);
            elapsed = ctx.kernel().eq().now() - t0;
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    sim::MachineParams p;
    EXPECT_GE(elapsed, 64 * p.ioAccess());
    EXPECT_LE(elapsed, 64 * p.ioAccess() * 3);
}
