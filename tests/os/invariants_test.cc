/**
 * @file
 * The four Section 6 invariants, each forced deterministically:
 *
 *  I1 (atomicity): a context switch between the initiating STORE and
 *     LOAD invalidates the sequence; another process can never
 *     complete it, and the victim retries successfully.
 *  I2 (mapping consistency): evicting a real page removes its proxy
 *     mapping; a stale proxy access refaults and is re-created only
 *     against the valid mapping.
 *  I3 (content consistency): a proxy page is writable only while its
 *     real page is dirty; cleaning write-protects it; the next proxy
 *     write upgrades it again and re-dirties the page.
 *  I4 (register consistency): pages involved in a running or queued
 *     transfer are never evicted; a latched-but-unfired DESTINATION is
 *     cleared with an Inval and may then be evicted; a process that
 *     exits mid-transfer keeps the frame until the transfer lets go.
 */

#include <gtest/gtest.h>

#include "check/audit.hh"
#include "check/monitor.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

SystemConfig
fbConfig(std::uint64_t mem = 4 << 20)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = mem;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    fb.fbWidth = 512;
    fb.fbHeight = 512;
    cfg.node.devices.push_back(fb);
    return cfg;
}

} // namespace

// ------------------------------------------------------------------ I1

TEST(InvariantI1, SwitchBetweenStoreAndLoadForcesRetry)
{
    System sys(fbConfig());
    auto &node = sys.node(0);

    Addr victim_buf = 0;
    dma::Status first_load_status;
    bool victim_retried_ok = false;
    bool interloper_saw_clean_hw = false;

    // The victim STOREs its destination, then voluntarily yields —
    // modelling a context switch landing exactly inside the
    // two-reference window.
    node.kernel().spawn(
        "victim", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            victim_buf = buf;
            co_await ctx.store(buf, 0x42);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await ctx.store(win, 4096); // STORE: DestLoaded
            co_await ctx.yield();          // context switch here!
            std::uint64_t w =
                co_await ctx.load(ctx.proxyAddr(buf, 0)); // LOAD
            first_load_status = dma::Status::unpack(w);
            // Per Section 5: seeing a failure, re-try the sequence.
            dma::Status st = co_await udmaStart(
                ctx, win, ctx.proxyAddr(buf, 0), 4096);
            victim_retried_ok = !st.initiationFailed;
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
        });

    // The interloper runs during the victim's window. Its status LOAD
    // must NOT fire the victim's latched destination.
    node.kernel().spawn(
        "interloper", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            std::uint64_t w =
                co_await ctx.load(ctx.proxyAddr(buf, 0));
            auto st = dma::Status::unpack(w);
            interloper_saw_clean_hw =
                st.initiationFailed && st.invalid;
            co_await ctx.yield();
        });

    sys.runUntilAllDone();

    EXPECT_TRUE(first_load_status.initiationFailed)
        << "the Inval must have wiped the half-initiated sequence";
    EXPECT_TRUE(victim_retried_ok);
    EXPECT_TRUE(interloper_saw_clean_hw)
        << "no cross-process completion of a STORE/LOAD pair";
    EXPECT_GE(node.controller(0)->invalsApplied(), 1u);
    EXPECT_EQ(node.controller(0)->transfersStarted(), 1u);
}

TEST(InvariantI1, TransferSurvivesDescheduling)
{
    // "Once started, a UDMA transfer continues regardless of whether
    // the process that started it is de-scheduled."
    System sys(fbConfig());
    auto &node = sys.node(0);
    bool other_ran_during = false;

    node.kernel().spawn(
        "starter", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0x99);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            dma::Status st = co_await udmaStart(
                ctx, win, ctx.proxyAddr(buf, 0), 4096);
            EXPECT_FALSE(st.initiationFailed);
            co_await ctx.yield(); // deschedule mid-transfer
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
        });
    node.kernel().spawn(
        "other", [&](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(600); // 10 us while transfer runs
            other_ran_during = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(other_ran_during);
    EXPECT_EQ(node.frameBuffer()->pixel(0, 0), 0x99u)
        << "the transfer completed despite the descheduling";
}

// ------------------------------------------------------------------ I2

TEST(InvariantI2, EvictionInvalidatesProxyMapping)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    bool checked = false;

    node.kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0xAA);
            // Touch the proxy page so the mapping exists.
            (void)co_await ctx.load(ctx.proxyAddr(buf, 0));
            auto &pt = ctx.process().pageTable();
            std::uint64_t proxy_vpn =
                k.layout().pageOf(ctx.proxyAddr(buf, 0));
            EXPECT_NE(pt.lookup(proxy_vpn), nullptr);

            // Force the real page out.
            Tick lat = 0;
            int guard = 0;
            while (pt.lookup(k.layout().pageOf(buf)) != nullptr
                   && guard++ < 64) {
                EXPECT_TRUE(k.evictOneFrame(lat));
            }
            // I2: the proxy mapping died with the real one.
            EXPECT_EQ(pt.lookup(proxy_vpn), nullptr);

            // A fresh proxy access refaults both back in, correctly.
            (void)co_await ctx.load(ctx.proxyAddr(buf, 0));
            EXPECT_NE(pt.lookup(proxy_vpn), nullptr);
            std::uint64_t v = co_await ctx.load(buf);
            EXPECT_EQ(v, 0xAAu);
            checked = true;
        });
    sys.runUntilAllDone(Tick(60) * tickSec);
    EXPECT_TRUE(checked);
    EXPECT_GT(node.kernel().proxyFaults(), 1u);
}

TEST(InvariantI2, ProxyFaultPagesInTheRealPageFirst)
{
    // Section 6, case 2: "vmem_page is valid but is not currently in
    // core. The kernel first pages in vmem_page."
    System sys(fbConfig());
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0x77);
            auto &pt = ctx.process().pageTable();
            Tick lat = 0;
            int guard = 0;
            while (pt.lookup(k.layout().pageOf(buf)) != nullptr
                   && guard++ < 64) {
                EXPECT_TRUE(k.evictOneFrame(lat));
            }
            std::uint64_t swap_reads_before =
                k.backingStore().pageReads();
            // Proxy access with the real page swapped out.
            (void)co_await ctx.load(ctx.proxyAddr(buf, 0));
            EXPECT_GT(k.backingStore().pageReads(), swap_reads_before)
                << "the fault handler must swap the real page in";
            EXPECT_NE(pt.lookup(k.layout().pageOf(buf)), nullptr);
            checked = true;
        });
    sys.runUntilAllDone(Tick(60) * tickSec);
    EXPECT_TRUE(checked);
}

// ------------------------------------------------------------------ I3

TEST(InvariantI3, ProxyWritableImpliesDirty)
{
    System sys(fbConfig());
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            auto &pt = ctx.process().pageTable();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            // Touch read-only-ish: a load faults the page in clean.
            (void)co_await ctx.load(buf);
            std::uint64_t real_vpn = k.layout().pageOf(buf);
            std::uint64_t proxy_vpn =
                k.layout().pageOf(ctx.proxyAddr(buf, 0));

            // Create the proxy mapping with a read access: the page
            // is clean, so the proxy must be read-only.
            (void)co_await ctx.load(ctx.proxyAddr(buf, 0));
            EXPECT_NE(pt.lookup(proxy_vpn), nullptr);
            EXPECT_FALSE(pt.lookup(proxy_vpn)->writable);
            EXPECT_FALSE(pt.lookup(real_vpn)->dirty);

            // A proxy STORE takes the upgrade path: real page dirty,
            // proxy writable.
            std::uint64_t upgrades = k.proxyWriteUpgrades();
            co_await ctx.store(ctx.proxyAddr(buf, 0), -1); // Inval, harmless
            EXPECT_EQ(k.proxyWriteUpgrades(), upgrades + 1);
            EXPECT_TRUE(pt.lookup(proxy_vpn)->writable);
            EXPECT_TRUE(pt.lookup(real_vpn)->dirty);
            checked = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(checked);
}

TEST(InvariantI3, CleaningWriteProtectsProxy)
{
    System sys(fbConfig());
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            auto &pt = ctx.process().pageTable();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1); // dirty
            co_await ctx.store(ctx.proxyAddr(buf, 0), -1); // writable proxy
            std::uint64_t real_vpn = k.layout().pageOf(buf);
            std::uint64_t proxy_vpn =
                k.layout().pageOf(ctx.proxyAddr(buf, 0));
            EXPECT_TRUE(pt.lookup(proxy_vpn)->writable);

            // The daemon cleans the page.
            Tick lat = 0;
            EXPECT_TRUE(k.cleanPage(ctx.process(), buf, lat));
            EXPECT_FALSE(pt.lookup(real_vpn)->dirty);
            EXPECT_FALSE(pt.lookup(proxy_vpn)->writable)
                << "I3: clean page => write-protected proxy";

            // The next proxy write re-upgrades.
            co_await ctx.store(ctx.proxyAddr(buf, 0), -1);
            EXPECT_TRUE(pt.lookup(real_vpn)->dirty);
            EXPECT_TRUE(pt.lookup(proxy_vpn)->writable);
            checked = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(checked);
}

TEST(InvariantI3, ReadOnlyRegionCannotBeDmaDestination)
{
    // "a read-only page can be used as the source of a transfer but
    // not as the destination."
    System sys(fbConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr ro = co_await ctx.sysAllocMemory(4096, false);
            (void)co_await ctx.load(ro); // page it in
            // Proxy STORE names it as a destination: kill.
            co_await ctx.store(ctx.proxyAddr(ro, 0), 256);
            ADD_FAILURE() << "unreachable";
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
    EXPECT_EQ(bad.killReason(), "proxy write to read-only memory");
}

TEST(InvariantI3, ReadOnlyPageWorksAsDmaSource)
{
    System sys(fbConfig());
    bool sent = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr ro = co_await ctx.sysAllocMemory(4096, false);
            (void)co_await ctx.load(ro);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            dma::Status st = co_await udmaStart(
                ctx, win, ctx.proxyAddr(ro, 0), 512);
            EXPECT_FALSE(st.initiationFailed);
            co_await udmaWait(ctx, ctx.proxyAddr(ro, 0));
            sent = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(sent);
}

TEST(InvariantI3, CleanRefusedWhileDmaInProgress)
{
    // The Section 6 race rule: never clear the dirty bit while a DMA
    // to the page is in progress.
    System sys(fbConfig());
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 5);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            dma::Status st = co_await udmaStart(
                ctx, win, ctx.proxyAddr(buf, 0), 4096);
            EXPECT_FALSE(st.initiationFailed);
            // Transfer in flight: cleaning must refuse.
            Tick lat = 0;
            EXPECT_FALSE(k.cleanPage(ctx.process(), buf, lat));
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
            // Idle again: cleaning succeeds.
            EXPECT_TRUE(k.cleanPage(ctx.process(), buf, lat));
            checked = true;
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(checked);
}

// ------------------------------------------------------------------ I4

TEST(InvariantI4, BusyPagesAreNeverEvicted)
{
    System sys(fbConfig(64 << 10)); // 16 frames
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            auto &pt = ctx.process().pageTable();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 0xD00D);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            dma::Status st = co_await udmaStart(
                ctx, win, ctx.proxyAddr(buf, 0), 4096);
            EXPECT_FALSE(st.initiationFailed);

            // Try hard to evict while the transfer runs: the source
            // page must survive every attempt.
            std::uint64_t vpn = k.layout().pageOf(buf);
            Addr frame = pt.lookup(vpn)->frameAddr;
            std::uint64_t skips_before = k.evictionI4Skips();
            Tick lat = 0;
            for (int i = 0; i < 8; ++i)
                (void)k.evictOneFrame(lat);
            EXPECT_NE(pt.lookup(vpn), nullptr);
            EXPECT_EQ(pt.lookup(vpn)->frameAddr, frame);
            EXPECT_GT(k.evictionI4Skips(), skips_before)
                << "the daemon must have skipped the busy page";
            co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
            checked = true;
        });
    sys.runUntilAllDone(Tick(60) * tickSec);
    EXPECT_TRUE(checked);
    EXPECT_EQ(sys.node(0).frameBuffer()->pixel(0, 0), 0xD00Du);
}

TEST(InvariantI4, DestLoadedPageClearedWithInvalThenEvictable)
{
    System sys(fbConfig(64 << 10));
    bool checked = false;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            auto &k = ctx.kernel();
            auto *ctrl = k.controllers().front();
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
            // Latch the page as a DMA *destination* (device-to-memory)
            // without firing the transfer.
            co_await ctx.store(ctx.proxyAddr(buf, 0), 4096);
            Addr page;
            EXPECT_TRUE(ctrl->destLoadedPage(page));

            // Eviction may clear the latched DESTINATION with an
            // Inval (Section 6) and then treat the page as free.
            std::uint64_t invals = ctrl->invalsApplied();
            Tick lat = 0;
            int guard = 0;
            auto &pt = ctx.process().pageTable();
            while (pt.lookup(k.layout().pageOf(buf)) && guard++ < 64)
                EXPECT_TRUE(k.evictOneFrame(lat));
            EXPECT_GT(ctrl->invalsApplied(), invals);
            EXPECT_FALSE(ctrl->destLoadedPage(page));
            checked = true;
        });
    sys.runUntilAllDone(Tick(60) * tickSec);
    EXPECT_TRUE(checked);
}

TEST(InvariantI4, ExitMidTransferKeepsTheFrameUntilItDrains)
{
    // A starts a 4 KiB frame-buffer -> memory transfer into its only
    // page and exits without waiting. B then faults in a page, stores
    // a pattern, computes while the transfer would land, and reloads.
    // Handing A's frame to B at exit would let the DMA overwrite B's
    // page; the frame must stay off the free list until no controller
    // names it, and only then be recycled.
    System sys(fbConfig(64 << 10)); // 16 frames
    auto &k = sys.node(0).kernel();
    constexpr std::uint32_t pb = 4096;
    constexpr unsigned words = pb / 8;
    Addr a_frame = ~Addr(0);
    os::Process &a = k.spawn(
        "a", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(pb);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await udmaTransferFromDevice(ctx, 0, buf, win, pb,
                                            /*wait_completion=*/false);
            a_frame = ctx.process()
                          .pageTable()
                          .lookup(k.layout().pageOf(buf))
                          ->frameAddr;
        });
    unsigned clobbered = words;
    bool a_gone_while_busy = false;
    Addr b_first = ~Addr(0), b_second = ~Addr(0);
    k.spawn("b", [&](os::UserContext &ctx) -> sim::ProcTask {
        auto &pt = ctx.process().pageTable();
        Addr buf = co_await ctx.sysAllocMemory(2 * pb);
        a_gone_while_busy = a.state() == os::ProcState::Zombie
                            && k.controllers().front()->pageBusy(a_frame);
        for (unsigned w = 0; w < words; ++w)
            co_await ctx.store(buf + 8 * w, 0xB0B0000 + w);
        b_first = pt.lookup(k.layout().pageOf(buf))->frameAddr;
        co_await ctx.compute(200000);
        clobbered = 0;
        for (unsigned w = 0; w < words; ++w) {
            if (co_await ctx.load(buf + 8 * w) != 0xB0B0000 + w)
                ++clobbered;
        }
        // The transfer has drained: the next allocation recycles A's
        // frame.
        co_await ctx.store(buf + pb, 1);
        b_second = pt.lookup(k.layout().pageOf(buf + pb))->frameAddr;
    });
    audit::Monitor monitor(sys, audit::Mode::EveryEvent);
    sys.runUntilAllDone(Tick(60) * tickSec);

    ASSERT_TRUE(a_gone_while_busy)
        << "the scenario needs A to exit while its transfer runs";
    EXPECT_NE(b_first, a_frame);
    EXPECT_EQ(clobbered, 0u) << "the DMA overwrote words of B's page";
    EXPECT_EQ(b_second, a_frame);
    EXPECT_EQ(monitor.violationCount(), 0u);
    for (const auto &v : monitor.violations())
        ADD_FAILURE() << audit::describe(v);
}
