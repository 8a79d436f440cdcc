/**
 * @file
 * Determinism: the simulator must produce bit-identical results and
 * tick counts for identical configurations — the property that makes
 * every experiment in EXPERIMENTS.md exactly reproducible.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "sim/random.hh"
#include "sim/span.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

struct RunRecord
{
    Tick endTick = 0;
    std::uint64_t events = 0;
    std::string stats;
};

RunRecord
runOnce()
{
    // The statistics document carries the process-wide span summary:
    // count this run's spans only.
    span::registry().clear();
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
    } shared;

    auto &recv = sys.node(1);
    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(2 * 4096);
            shared.rxPages =
                co_await sysExportRange(ctx, buf, 2 * 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf + 4096 - 8, 0xF1A6);
        });

    auto &send = sys.node(0);
    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            for (unsigned i = 0; i < 512; ++i)
                co_await ctx.store(buf + i * 8,
                                   i + 1 == 512 ? 0xF1A6 : i);
            while (!shared.exported)
                co_await ctx.compute(500);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), shared.rxPages);
            co_await udmaTransfer(ctx, 0, proxy, buf, 4096, true);
        });

    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run();

    RunRecord rec;
    rec.endTick = sys.simNow();
    rec.events = sys.simEvents();
    std::ostringstream os;
    sys.dumpStatsJson(os);
    rec.stats = os.str();
    return rec;
}

} // namespace

TEST(Determinism, IdenticalRunsProduceIdenticalResults)
{
    RunRecord a = runOnce();
    RunRecord b = runOnce();
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Determinism, SeededWorkloadsRepeat)
{
    auto run = [](std::uint64_t seed) {
        sim::Random rng(seed);
        std::uint64_t acc = 0;
        for (int i = 0; i < 1000; ++i)
            acc ^= rng.next() * (i + 1);
        return acc;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}
