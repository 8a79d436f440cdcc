/**
 * @file
 * Unit tests for the kernel: processes, scheduling, syscalls, faults,
 * and the backdoor.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

SystemConfig
plainConfig(std::uint64_t mem = 4 << 20)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = mem;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    return cfg;
}

} // namespace

TEST(Kernel, SpawnRunsToCompletion)
{
    System sys(plainConfig());
    int order = 0;
    sys.node(0).kernel().spawn("p", [&](os::UserContext &ctx)
                                        -> sim::ProcTask {
        co_await ctx.compute(100);
        order = 1;
    });
    sys.runUntilAllDone();
    EXPECT_EQ(order, 1);
    EXPECT_TRUE(sys.node(0).kernel().allProcessesDone());
}

TEST(Kernel, RoundRobinInterleavesProcesses)
{
    auto cfg = plainConfig();
    cfg.params.quantumUs = 50.0;
    System sys(cfg);
    std::vector<int> trace;
    for (int id = 0; id < 2; ++id) {
        sys.node(0).kernel().spawn(
            "p" + std::to_string(id),
            [&, id](os::UserContext &ctx) -> sim::ProcTask {
                for (int i = 0; i < 5; ++i) {
                    co_await ctx.compute(6000); // 100 us each
                    trace.push_back(id);
                }
            });
    }
    sys.runUntilAllDone();
    ASSERT_EQ(trace.size(), 10u);
    // With a 50 us quantum and 100 us work items, the processes must
    // interleave rather than run back-to-back.
    bool interleaved = false;
    for (std::size_t i = 1; i < trace.size(); ++i)
        interleaved |= trace[i] != trace[i - 1];
    EXPECT_TRUE(interleaved);
    EXPECT_GT(sys.node(0).kernel().contextSwitches(), 2u);
}

TEST(Kernel, YieldRotatesReadyQueue)
{
    System sys(plainConfig());
    std::vector<int> trace;
    for (int id = 0; id < 3; ++id) {
        sys.node(0).kernel().spawn(
            "p" + std::to_string(id),
            [&, id](os::UserContext &ctx) -> sim::ProcTask {
                for (int i = 0; i < 2; ++i) {
                    trace.push_back(id);
                    co_await ctx.yield();
                }
            });
    }
    sys.runUntilAllDone();
    EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Kernel, PreemptionCountsAreTracked)
{
    auto cfg = plainConfig();
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    auto &hog = sys.node(0).kernel().spawn(
        "hog", [&](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 50; ++i)
                co_await ctx.compute(1000);
        });
    sys.node(0).kernel().spawn(
        "other", [&](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 50; ++i)
                co_await ctx.compute(1000);
        });
    sys.runUntilAllDone();
    EXPECT_GT(hog.preemptions(), 0u);
    EXPECT_GT(hog.cpuTicks(), 0u);
}

TEST(Kernel, SegfaultKillsProcessOnly)
{
    System sys(plainConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "bad", [&](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.store(0x900000, 1); // never allocated
            ADD_FAILURE() << "must not get here";
        });
    bool good_ran = false;
    sys.node(0).kernel().spawn(
        "good", [&](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(10);
            good_ran = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
    EXPECT_EQ(bad.killReason(), "segmentation fault");
    EXPECT_TRUE(good_ran);
    EXPECT_EQ(sys.node(0).kernel().processesKilled(), 1u);
}

TEST(Kernel, WriteToReadOnlyRegionKills)
{
    System sys(plainConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "bad", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr ro = co_await ctx.sysAllocMemory(4096, false);
            (void)co_await ctx.load(ro); // reads are fine
            co_await ctx.store(ro, 1);
            ADD_FAILURE() << "must not get here";
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
    EXPECT_EQ(bad.killReason(), "write to read-only page");
}

TEST(Kernel, RegionsAreIsolatedByGuardPages)
{
    System sys(plainConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "bad", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr a = co_await ctx.sysAllocMemory(4096);
            Addr b = co_await ctx.sysAllocMemory(4096);
            EXPECT_GE(b, a + 2 * 4096) << "guard page between regions";
            co_await ctx.store(a + 4096, 1); // the guard page
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
}

TEST(Kernel, SyscallResultAndLatency)
{
    System sys(plainConfig());
    std::uint64_t got = 0;
    Tick before = 0, after = 0;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            before = ctx.kernel().eq().now();
            got = co_await ctx.syscall([](os::Kernel &k, os::Process &,
                                          os::SyscallControl &sc) {
                sc.result = 0xFEED;
                sc.extraLatency = k.params().instrTicks(6000);
            });
            after = ctx.kernel().eq().now();
        });
    sys.runUntilAllDone();
    EXPECT_EQ(got, 0xFEEDu);
    // 300 trap + 6000 body instructions at 60 MHz > 100 us.
    EXPECT_GT(after - before, 100 * tickUs);
}

TEST(Kernel, BlockingSyscallAndWake)
{
    System sys(plainConfig());
    os::Process *blocked = nullptr;
    std::uint64_t got = 0;
    auto &p = sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            got = co_await ctx.syscall(
                [&](os::Kernel &k, os::Process &proc,
                    os::SyscallControl &sc) {
                    sc.blocks = true;
                    blocked = &proc;
                    k.eq().scheduleIn(50 * tickUs, "wake", [&k, &proc] {
                        k.wakeWithResult(proc, 0xCAFE);
                    });
                });
        });
    sys.runUntilAllDone();
    EXPECT_EQ(blocked, &p);
    EXPECT_EQ(got, 0xCAFEu);
    EXPECT_GT(sys.simNow(), 50 * tickUs);
}

TEST(Kernel, WakeBeforeBlockIsNotLost)
{
    // The classic sleep/wakeup race: the "interrupt" fires while the
    // blocking syscall's kernel latency is still elapsing. The wake
    // must be remembered, not dropped.
    System sys(plainConfig());
    std::uint64_t got = 0;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            got = co_await ctx.syscall(
                [&](os::Kernel &k, os::Process &proc,
                    os::SyscallControl &sc) {
                    sc.blocks = true;
                    // Lots of kernel work before the block lands...
                    sc.extraLatency = k.params().instrTicks(60000);
                    // ...while the completion fires almost at once.
                    k.eq().scheduleIn(1 * tickUs, "early-wake",
                                      [&k, &proc] {
                                          k.wakeWithResult(proc,
                                                           0xFA57);
                                      });
                });
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_EQ(got, 0xFA57u);
    EXPECT_TRUE(sys.node(0).kernel().allProcessesDone())
        << "a lost wakeup would leave the process blocked forever";
}

TEST(Kernel, MapDeviceProxyValidatesExtent)
{
    System sys(plainConfig());
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            // The 640x480 frame buffer is 1.2 MB = 300 pages.
            Addr ok = co_await ctx.sysMapDeviceProxy(0, 0, 10, true);
            EXPECT_NE(ok, 0u);
            Addr beyond =
                co_await ctx.sysMapDeviceProxy(0, 299, 10, true);
            EXPECT_EQ(beyond, 0u) << "mapping past the device extent";
            Addr nodev = co_await ctx.sysMapDeviceProxy(7, 0, 1, true);
            EXPECT_EQ(nodev, 0u) << "no such device slot";
        });
    sys.runUntilAllDone();
}

TEST(Kernel, PokePeekBackdoorRoundTrip)
{
    System sys(plainConfig());
    Addr buf = 0;
    auto &p = sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            buf = co_await ctx.sysAllocMemory(3 * 4096);
        });
    sys.runUntilAllDone();
    std::vector<std::uint8_t> in(5000);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = std::uint8_t(i * 3);
    auto &kernel = sys.node(0).kernel();
    kernel.pokeBytes(p, buf + 100, in.data(), in.size());
    std::vector<std::uint8_t> out(in.size());
    kernel.peekBytes(p, buf + 100, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(Kernel, ProcessBodyExceptionSurfacesViaRethrow)
{
    System sys(plainConfig());
    sys.node(0).kernel().spawn(
        "thrower", [&](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(10);
            throw std::runtime_error("user bug");
        });
    EXPECT_THROW(sys.runUntilAllDone(), std::runtime_error);
}

TEST(Kernel, FindProcessAndPids)
{
    System sys(plainConfig());
    auto &a = sys.node(0).kernel().spawn(
        "a", [](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(1);
        });
    auto &b = sys.node(0).kernel().spawn(
        "b", [](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(1);
        });
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(sys.node(0).kernel().findProcess(a.pid()), &a);
    EXPECT_EQ(sys.node(0).kernel().findProcess(999), nullptr);
    sys.runUntilAllDone();
    EXPECT_EQ(a.state(), os::ProcState::Zombie);
}

namespace
{

/** What a quantum-expiry probe reads once both processes are done. */
struct ExpiryProbe
{
    std::uint64_t bPreemptions = 0;
    std::uint64_t switches = 0;
    Tick end = 0;
};

/**
 * One node with a 20 us quantum. Process A computes @p n instructions
 * and then yields, 40 times; process B loops 4,000 x compute(7). For
 * n = 1195-1200, A's yield is still pending when the quantum expires.
 */
ExpiryProbe
yieldProbe(std::uint64_t n)
{
    SystemConfig cfg;
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    sys.node(0).kernel().spawn(
        "a", [n](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 40; ++i) {
                co_await ctx.compute(n);
                co_await ctx.yield();
            }
        });
    auto &b = sys.node(0).kernel().spawn(
        "b", [](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 4000; ++i)
                co_await ctx.compute(7);
        });
    sys.runUntilAllDone();
    return {b.preemptions(), sys.node(0).kernel().contextSwitches(),
            sys.simNow()};
}

/**
 * As yieldProbe, but A's pending op at the expiry is a blocking
 * syscall (10 us of kernel time) whose wake comes 100 us later, 20
 * times; B loops 4,000 x compute(7).
 */
ExpiryProbe
blockProbe(std::uint64_t n)
{
    SystemConfig cfg;
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    sys.node(0).kernel().spawn(
        "a", [n](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 20; ++i) {
                co_await ctx.compute(n);
                co_await ctx.syscall([](os::Kernel &k, os::Process &proc,
                                        os::SyscallControl &sc) {
                    sc.blocks = true;
                    sc.extraLatency = k.params().instrTicks(600);
                    k.eq().scheduleIn(100 * tickUs, "test.wake",
                                      [&k, &proc] { k.wake(proc); });
                });
            }
        });
    auto &b = sys.node(0).kernel().spawn(
        "b", [](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 4000; ++i)
                co_await ctx.compute(7);
        });
    sys.runUntilAllDone();
    return {b.preemptions(), sys.node(0).kernel().contextSwitches(),
            sys.simNow()};
}

/**
 * Five processes each compute @p n instructions and then store to an
 * address they never allocated, so each is killed by a fault that is
 * still pending when the quantum expires; B, spawned last, loops
 * 4,000 x compute(7).
 */
ExpiryProbe
killProbe(std::uint64_t n)
{
    SystemConfig cfg;
    cfg.params.quantumUs = 20.0;
    System sys(cfg);
    for (int i = 0; i < 5; ++i) {
        sys.node(0).kernel().spawn(
            "k" + std::to_string(i),
            [n](os::UserContext &ctx) -> sim::ProcTask {
                co_await ctx.compute(n);
                co_await ctx.store(0x900000, 1);
            });
    }
    auto &b = sys.node(0).kernel().spawn(
        "b", [](os::UserContext &ctx) -> sim::ProcTask {
            for (int i = 0; i < 4000; ++i)
                co_await ctx.compute(7);
        });
    sys.runUntilAllDone();
    EXPECT_EQ(sys.node(0).kernel().processesKilled(), 5u);
    return {b.preemptions(), sys.node(0).kernel().contextSwitches(),
            sys.simNow()};
}

} // namespace

// A quantum that expires while a yield, block or kill is pending
// preempts nobody: the process dispatched next gets a full quantum.
// Before the kernel cleared the stale flag at dispatch, it was
// preempted at its first reference instead; the figures that kernel
// read are in each test's comment.

TEST(Kernel, YieldPendingAtExpiryLeavesTheNextProcessAFullQuantum)
{
    // At N = 1195 A's yield straddles the expiry; at 1190 it does not,
    // and both kernels agree there. The stale flag read 40 preemptions
    // of B, 82 switches and an end at tick 1,543,271,600.
    const ExpiryProbe straddle = yieldProbe(1195);
    EXPECT_EQ(straddle.bPreemptions, 23u);
    EXPECT_EQ(straddle.switches, 65u);
    EXPECT_EQ(straddle.end, 1'486'607'200u);
    const ExpiryProbe before = yieldProbe(1190);
    EXPECT_EQ(before.bPreemptions, 23u);
    EXPECT_EQ(before.switches, 65u);
    EXPECT_EQ(before.end, 1'483'274'000u);
}

TEST(Kernel, BlockPendingAtExpiryLeavesTheNextProcessAFullQuantum)
{
    // The stale flag read 11 preemptions of B, 33 switches and an end
    // at tick 2,412,380,170.
    const ExpiryProbe p = blockProbe(1000);
    EXPECT_EQ(p.bPreemptions, 4u);
    EXPECT_EQ(p.switches, 26u);
    EXPECT_EQ(p.end, 2'477'031'584u);
}

TEST(Kernel, KillPendingAtExpiryLeavesTheNextProcessAFullQuantum)
{
    // The stale flag read 1 preemption of B, 9 switches and an end at
    // tick 611,142,220.
    const ExpiryProbe p = killProbe(1000);
    EXPECT_EQ(p.bPreemptions, 0u);
    EXPECT_EQ(p.switches, 6u);
    EXPECT_EQ(p.end, 601'142'620u);
}
