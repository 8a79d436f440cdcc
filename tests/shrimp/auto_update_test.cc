/**
 * @file
 * Tests for the automatic-update strategy (paper Section 9): stores
 * to a bound page are snooped by the NI and propagate to the remote
 * node; unbound pages are unaffected; contiguous stores combine.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

SystemConfig
niConfig()
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    return cfg;
}

} // namespace

TEST(AutoUpdate, SnoopedStoresReachRemoteMemory)
{
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        Addr rxVa = 0;
    } shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxVa = buf;
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
            // Wait for the last update to arrive.
            co_await pollWord(ctx, buf + 64, 0xAA03);
        });

    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            while (!shared.exported)
                co_await ctx.compute(500);
            bool ok = co_await sysMapAutoUpdate(
                ctx, *send.ni(), buf, recv.id(), shared.rxPages[0]);
            EXPECT_TRUE(ok);
            // Ordinary stores; no explicit send of any kind.
            co_await ctx.store(buf + 0, 0xAA01);
            co_await ctx.store(buf + 8, 0xAA02);
            co_await ctx.store(buf + 64, 0xAA03);
        });

    sys.runUntilAllDone(Tick(30) * tickSec);
    sys.run();

    auto *proc = recv.kernel().findProcess(1);
    std::uint64_t v = 0;
    recv.kernel().peekBytes(*proc, shared.rxVa + 0, &v, 8);
    EXPECT_EQ(v, 0xAA01u);
    recv.kernel().peekBytes(*proc, shared.rxVa + 8, &v, 8);
    EXPECT_EQ(v, 0xAA02u);
    EXPECT_GE(send.ni()->autoUpdatesSent(), 1u);
    // The store to +8 lands right behind the store to +0: combined.
    EXPECT_GE(send.ni()->autoUpdatesCombined(), 1u);
}

TEST(AutoUpdate, UnboundPagesAreNotSnooped)
{
    System sys(niConfig());
    auto &send = sys.node(0);
    send.kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0x1234);
        });
    sys.runUntilAllDone();
    EXPECT_EQ(send.ni()->autoUpdatesSent(), 0u);
    EXPECT_EQ(send.ni()->messagesSent(), 0u);
}

TEST(AutoUpdate, UnmapStopsPropagation)
{
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
    } shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
        });

    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            while (!shared.exported)
                co_await ctx.compute(500);
            co_await sysMapAutoUpdate(ctx, *send.ni(), buf, recv.id(),
                                      shared.rxPages[0]);
            co_await ctx.store(buf, 1);
            // Kernel revokes the binding.
            co_await ctx.syscall([&](os::Kernel &k, os::Process &p,
                                     os::SyscallControl &sc) {
                (void)sc;
                auto *pte = p.pageTable().lookup(
                    k.layout().pageOf(buf));
                Addr page =
                    pte->frameAddr
                    - pte->frameAddr % k.layout().pageBytes();
                send.ni()->unmapAutoUpdate(page);
            });
            co_await ctx.store(buf + 8, 2); // must NOT propagate
        });

    sys.runUntilAllDone(Tick(30) * tickSec);
    sys.run();
    EXPECT_EQ(send.ni()->autoUpdatesSent(), 1u);
}

TEST(AutoUpdate, ExitRevokesTheBinding)
{
    // A binding names a physical page, so it has to die with the
    // process that made it: the frame's next owner stores into its own
    // private page, and nothing may reach the remote node.
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        bool binderDone = false;
        // Distinct and never page-aligned until the syscalls fill in
        // real frame addresses.
        Addr binderFrame = 1;
        Addr reuserFrame = 2;
    } shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
        });

    send.kernel().spawn(
        "binder", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            while (!shared.exported)
                co_await ctx.compute(500);
            bool ok = co_await sysMapAutoUpdate(
                ctx, *send.ni(), buf, recv.id(), shared.rxPages[0]);
            EXPECT_TRUE(ok);
            co_await ctx.store(buf, 1); // the one update that is due
            co_await ctx.syscall([&](os::Kernel &k, os::Process &p,
                                     os::SyscallControl &) {
                shared.binderFrame =
                    p.pageTable().lookup(k.layout().pageOf(buf))
                        ->frameAddr;
            });
            // Exits right here, with the binding still in place.
            shared.binderDone = true;
        });

    send.kernel().spawn(
        "reuser", [&](os::UserContext &ctx) -> sim::ProcTask {
            while (!shared.binderDone)
                co_await ctx.compute(500);
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0x5EC2E7); // private: must NOT leave
            co_await ctx.syscall([&](os::Kernel &k, os::Process &p,
                                     os::SyscallControl &) {
                shared.reuserFrame =
                    p.pageTable().lookup(k.layout().pageOf(buf))
                        ->frameAddr;
            });
        });

    sys.runUntilAllDone(Tick(30) * tickSec);
    sys.run();
    ASSERT_EQ(shared.reuserFrame, shared.binderFrame)
        << "precondition: the reuser got the exited binder's frame";
    EXPECT_EQ(send.ni()->autoUpdatesSent(), 1u);
}

TEST(AutoUpdate, SnoopDuringRunningTransferDoesNotCorruptIt)
{
    // Regression test: while the UDMA engine is mid-transfer (its
    // message open in the NI), a second process's snooped store
    // appends an automatic-update packet to the same outgoing queue.
    // The engine must keep filling *its* message and both payloads
    // must arrive intact.
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);
    sys.node(0).kernel(); // (silence unused warnings in some builds)

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        Addr rxVa = 0;
    } shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(2 * 4096);
            shared.rxVa = buf;
            shared.rxPages =
                co_await sysExportRange(ctx, buf, 2 * 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf + 4096 - 8, 0xD0D0);
            co_await pollWord(ctx, buf + 4096, 0xA0A0);
        });

    bool dma_started = false;
    send.kernel().spawn(
        "dma-proc", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            for (unsigned i = 0; i < 512; ++i)
                co_await ctx.store(buf + i * 8,
                                   i == 511 ? 0xD0D0 : i);
            while (!shared.exported)
                co_await ctx.compute(500);
            std::vector<Addr> page0(1, shared.rxPages[0]);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), std::move(page0));
            dma::Status st = co_await udmaStart(
                ctx, proxy, ctx.proxyAddr(buf, 0), 4096);
            EXPECT_FALSE(st.initiationFailed);
            dma_started = true;
            co_await ctx.yield(); // let the snooping process run NOW
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
        });

    send.kernel().spawn(
        "auto-proc", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr mine = co_await ctx.sysAllocMemory(4096);
            while (!shared.exported)
                co_await ctx.compute(500);
            co_await sysMapAutoUpdate(ctx, *send.ni(), mine,
                                      recv.id(), shared.rxPages[1]);
            while (!dma_started)
                co_await ctx.compute(200);
            // The 4 KB transfer is in flight right now.
            co_await ctx.store(mine, 0xA0A0);
        });

    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run();

    auto *proc = recv.kernel().findProcess(1);
    std::uint64_t w = 0;
    recv.kernel().peekBytes(*proc, shared.rxVa + 80, &w, 8);
    EXPECT_EQ(w, 10u) << "DMA payload intact";
    recv.kernel().peekBytes(*proc, shared.rxVa + 4096, &w, 8);
    EXPECT_EQ(w, 0xA0A0u) << "auto update landed on its own page";
}

TEST(AutoUpdate, CoexistsWithDeliberateUpdate)
{
    // Both strategies on the same NI: an auto-update binding plus a
    // deliberate-update (UDMA) send; both arrive.
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        Addr rxVa = 0;
    } shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(2 * 4096);
            shared.rxVa = buf;
            shared.rxPages =
                co_await sysExportRange(ctx, buf, 2 * 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf, 0x11);        // auto page
            co_await pollWord(ctx, buf + 4096, 0x22); // deliberate page
        });

    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr abuf = co_await ctx.sysAllocMemory(4096);
            Addr dbuf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(dbuf, 0x22);
            while (!shared.exported)
                co_await ctx.compute(500);
            co_await sysMapAutoUpdate(ctx, *send.ni(), abuf, recv.id(),
                                      shared.rxPages[0]);
            std::vector<Addr> page2(1, shared.rxPages[1]);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), std::move(page2));
            co_await ctx.store(abuf, 0x11); // automatic
            co_await udmaTransfer(ctx, 0, proxy, dbuf, 64, true);
        });

    sys.runUntilAllDone(Tick(30) * tickSec);
    sys.run();
    EXPECT_GE(send.ni()->autoUpdatesSent(), 1u);
    EXPECT_GE(recv.ni()->messagesDelivered(), 2u);
}
