/**
 * @file
 * Unit tests for the user-level UDMA library recipes (Section 5).
 */

#include <gtest/gtest.h>

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
    fb.fbWidth = 512;
    fb.fbHeight = 512;
    cfg.node.devices.push_back(fb);
    return cfg;
}

} // namespace

TEST(UdmaLib, InitiateReturnsDecodedStatus)
{
    System sys(fbConfig());
    dma::Status st;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            st = co_await udmaInitiate(ctx, win,
                                       ctx.proxyAddr(buf, 0), 512);
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
        });
    sys.runUntilAllDone();
    EXPECT_FALSE(st.initiationFailed);
    EXPECT_EQ(st.remainingBytes, 512u);
}

TEST(UdmaLib, StartRetriesWhileEngineBusy)
{
    System sys(fbConfig());
    std::uint64_t status_loads = 0;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(2 * 4096);
            co_await ctx.store(buf, 1);
            co_await ctx.store(buf + 4096, 2);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            // Start a 4 KB transfer, then immediately try another:
            // udmaStart must spin on TRANSFERRING and then succeed.
            dma::Status st1 = co_await udmaStart(
                ctx, win, ctx.proxyAddr(buf, 0), 4096);
            EXPECT_FALSE(st1.initiationFailed);
            dma::Status st2 = co_await udmaStart(
                ctx, win + 4096, ctx.proxyAddr(buf + 4096, 0), 4096);
            EXPECT_FALSE(st2.initiationFailed);
            co_await udmaWait(ctx, ctx.proxyAddr(buf + 4096, 0));
        });
    sys.runUntilAllDone();
    auto *ctrl = sys.node(0).controller(0);
    status_loads = ctrl->statusLoads();
    EXPECT_EQ(ctrl->transfersStarted(), 2u);
    EXPECT_GT(status_loads, 4u) << "busy retries must have polled";
}

TEST(UdmaLib, StartReturnsRealErrorsWithoutRetrying)
{
    System sys(fbConfig());
    dma::Status st;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            // Unaligned transfer: alignment error, no infinite spin.
            st = co_await udmaStart(ctx, win + 4,
                                    ctx.proxyAddr(buf, 0), 6);
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_TRUE(st.initiationFailed);
    EXPECT_EQ(st.deviceError, dma::device_error::alignment);
}

TEST(UdmaLib, WrongSpaceSurfacesToCaller)
{
    System sys(fbConfig());
    dma::Status st;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(2 * 4096);
            co_await ctx.store(buf, 1);
            co_await ctx.store(buf + 4096, 1);
            // memory -> memory: BadLoad.
            st = co_await udmaStart(ctx, ctx.proxyAddr(buf, 0),
                                    ctx.proxyAddr(buf + 4096, 0), 64);
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_TRUE(st.initiationFailed);
    EXPECT_TRUE(st.wrongSpace);
}

TEST(UdmaLib, TransferSplitsUnalignedSpans)
{
    System sys(fbConfig());
    std::uint64_t transfers = 0;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(3 * 4096);
            for (Addr off = 0; off < 3 * 4096; off += 4096)
                co_await ctx.store(buf + off, off);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 3, true);
            // Source starts 1 KB into a page; span covers 2 pages of
            // source and lands at dev offset 512: pieces are clamped
            // by both sides.
            transfers = co_await udmaTransfer(ctx, 0, win + 512,
                                              buf + 1024, 6144, true);
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    // Pieces: src page-end 3072, then dest page-end limits, etc.
    EXPECT_GE(transfers, 2u);
    auto *ctrl = sys.node(0).controller(0);
    EXPECT_EQ(ctrl->transfersStarted(), transfers);
}

TEST(UdmaLib, TransferMovesExactBytes)
{
    System sys(fbConfig());
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            for (unsigned i = 0; i < 128; ++i)
                co_await ctx.store(buf + i * 8, 0x0101010101010101ull
                                                    * (i & 0x7f));
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await udmaTransfer(ctx, 0, win, buf, 1024, true);
        });
    sys.runUntilAllDone();
    auto *fb = sys.node(0).frameBuffer();
    for (unsigned i = 0; i < 128; ++i) {
        EXPECT_EQ(fb->pixel((i * 2) % 512, (i * 2) / 512),
                  0x01010101u * (i & 0x7f));
    }
}

TEST(UdmaLib, PollWordSpinsUntilValue)
{
    System sys(fbConfig());
    std::uint64_t polls = 0;
    sys.node(0).kernel().spawn(
        "writer", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            // Another "thread" of the same program: delayed flag.
            ctx.kernel().eq().scheduleIn(
                200 * tickUs, "flag", [&ctx, buf] {
                    std::uint64_t v = 0x600D;
                    ctx.kernel().pokeBytes(ctx.process(), buf, &v, 8);
                });
            polls = co_await pollWord(ctx, buf, 0x600D);
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_GT(polls, 10u) << "a 200 us delay needs many polls";
    // Read from a kernel that issued every load of the spin as its own
    // reference: the flag event wakes the parked spin at its tick.
    EXPECT_EQ(polls, 1283u);
    EXPECT_EQ(sys.simNow(), 211382612u);
    EXPECT_EQ(sys.simEvents(), 1286u);
    EXPECT_EQ(sys.node(0).mmu().tlb().hits(), 1282u);
}
