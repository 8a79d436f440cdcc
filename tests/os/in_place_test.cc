/**
 * @file
 * The kernel's in-place completion of CPU references: a reference
 * that no pending event of its node can precede completes without
 * suspending its process (Kernel::issueOp, EventQueue::fireInPlace),
 * and nothing simulated moves.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"

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

TEST(InPlaceKernel, LoadSpinLoopFiresInPlace)
{
    System sys(fbConfig());
    constexpr int loads = 10000;
    std::uint64_t sum = 0;
    sys.node(0).kernel().spawn(
        "spin", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 3);
            for (int i = 0; i < loads; ++i)
                sum += co_await ctx.load(buf);
        });
    sys.runUntilAllDone();
    EXPECT_EQ(sum, 3u * loads);
    // Every load but one in each EventHeap::maxInPlaceRun + 1 fires in
    // place; the counts are pinned so that a change that quietly turns
    // the path off fails here even though nothing simulated moves.
    EXPECT_EQ(sys.simEvents(), 10003u);
    EXPECT_EQ(sys.engine()->firedInPlace(), 9849u);
    EXPECT_EQ(sys.nodeEq(0).firedInPlace(), sys.engine()->firedInPlace());
}

TEST(InPlaceKernel, QuantumExpiryMidChainPreemptsAtTheScheduledTicks)
{
    // Two compute loops share the CPU with a 20 us quantum. Between
    // quantum expiries each loop's references fire in place; the
    // expiry is a pending event, so the reference it interrupts waits
    // in the heap and the switch lands where it always did. Every
    // figure below was read from a kernel that scheduled every
    // reference.
    auto cfg = fbConfig();
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    os::Kernel &k = sys.node(0).kernel();
    std::vector<Tick> preemptedAt, resumedAt;
    int last = -1;
    Tick lastDone = 0;
    std::vector<os::Process *> procs;
    for (int id = 0; id < 2; ++id) {
        procs.push_back(&k.spawn(
            "p" + std::to_string(id),
            [&, id](os::UserContext &ctx) -> sim::ProcTask {
                for (int i = 0; i < 3000; ++i) {
                    co_await ctx.compute(7);
                    const Tick now = ctx.kernel().eq().now();
                    if (last != id) {
                        if (last >= 0)
                            preemptedAt.push_back(lastDone);
                        resumedAt.push_back(now);
                        last = id;
                    }
                    lastDone = now;
                }
            }));
    }
    sys.runUntilAllDone();
    ASSERT_EQ(resumedAt.size(), 36u);
    EXPECT_EQ(preemptedAt.front(), 24182402u);
    EXPECT_EQ(resumedAt[1], 28648926u);
    EXPECT_EQ(preemptedAt.back(), 839267688u);
    EXPECT_EQ(resumedAt.back(), 843500888u);
    EXPECT_EQ(k.contextSwitches(), 36u);
    EXPECT_EQ(procs[0]->preemptions(), 17u);
    EXPECT_EQ(procs[1]->preemptions(), 17u);
    EXPECT_EQ(sys.simNow(), 852367200u);
    EXPECT_EQ(sys.simEvents(), 6070u);
    EXPECT_GT(sys.engine()->firedInPlace(), 5000u);
}

TEST(InPlaceKernel, DmaCompletionDueAtAStatusLoadIsSeenByIt)
{
    // With a proxy cycle that costs no bus time, a status LOAD issued
    // during the transfer's last burst completes exactly when that
    // burst frees the bus: at the tick of the engine's completion
    // event. The completion is a device event, so it fires first and
    // the LOAD sees the transfer finished.
    auto cfg = fbConfig();
    cfg.params.ioAccessNs = 0;
    System sys(cfg);
    os::Kernel &k = sys.node(0).kernel();
    Tick doneAt = 0;
    k.controllers().at(0)->setCompletionObserver(
        [&] { doneAt = sys.nodeEq(0).now(); });
    struct Poll
    {
        Tick at;
        bool inFlight;
    };
    std::vector<Poll> polls;
    k.spawn("poller", [&](os::UserContext &ctx) -> sim::ProcTask {
        Addr buf = co_await ctx.sysAllocMemory(4096);
        co_await ctx.store(buf, 1);
        Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
        const Addr src = ctx.proxyAddr(buf, 0);
        dma::Status st = co_await udmaInitiate(ctx, win, src, 4096);
        EXPECT_FALSE(st.initiationFailed);
        for (;;) {
            // The compute keeps time moving while the engine waits out
            // its start latency and the bus is idle.
            co_await ctx.compute(1);
            const std::uint64_t w = co_await ctx.load(src);
            polls.push_back({ctx.kernel().eq().now(),
                             dma::loadSaysInFlight(w)});
            if (!polls.back().inFlight)
                break;
        }
    });
    sys.runUntilAllDone();
    ASSERT_GT(doneAt, 0u);
    ASSERT_FALSE(polls.empty());
    EXPECT_EQ(polls.back().at, doneAt);
    EXPECT_FALSE(polls.back().inFlight);
    for (std::size_t i = 0; i + 1 < polls.size(); ++i) {
        EXPECT_LT(polls[i].at, doneAt);
        EXPECT_TRUE(polls[i].inFlight);
    }
}
