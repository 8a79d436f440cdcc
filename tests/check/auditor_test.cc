/**
 * @file
 * Adversarial tests for the invariant auditor: each test disables
 * exactly one invariant-maintaining kernel action (os::MutationKnobs),
 * forces the corrupting sequence, and asserts the auditor flags the
 * violation with the correct invariant ID — plus clean-state and
 * plumbing tests (parseRunOptions, enableAudit, fail-fast monitor).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

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

bool
hasInvariant(const std::vector<audit::Violation> &vs,
             audit::Invariant inv)
{
    for (const auto &v : vs) {
        if (v.invariant == inv)
            return true;
    }
    return false;
}

/** Park a process that owns a dirty buffer and a mapped window, with
 *  a live proxy mapping for the buffer (it did one proxy access). */
os::Process &
spawnParked(Node &node, Addr &buf_out, Addr &win_out)
{
    struct Setup
    {
        Addr buf = 0;
        Addr win = 0;
    };
    auto setup = std::make_shared<Setup>();
    os::Process &pr = node.kernel().spawn(
        "victim", [setup](os::UserContext &ctx) -> sim::ProcTask {
            setup->buf = co_await ctx.sysAllocMemory(ctx.pageBytes());
            co_await ctx.store(setup->buf, 0xD1);
            setup->win =
                co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            // Touch the memory-proxy page so a proxy PTE exists
            // (a status LOAD through PROXY(buf)).
            co_await ctx.load(ctx.proxyAddr(setup->buf, 0));
            co_await ctx.syscall([](os::Kernel &, os::Process &,
                                    os::SyscallControl &sc) {
                sc.blocks = true;
            });
        });
    node.kernel().eq().run();
    EXPECT_EQ(pr.state(), os::ProcState::Blocked);
    buf_out = setup->buf;
    win_out = setup->win;
    return pr;
}

} // namespace

TEST(Auditor, CleanSystemHasNoViolations)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf = 0, win = 0;
    spawnParked(node, buf, win);
    auto violations = audit::checkAll(sys);
    for (const auto &v : violations)
        ADD_FAILURE() << audit::describe(v);
    EXPECT_TRUE(violations.empty());
}

TEST(Auditor, StaleProxyPteAfterRemapIsI2)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf = 0, win = 0;
    os::Process &pr = spawnParked(node, buf, win);

    // Corrupt: page the buffer out while leaving the proxy mapping
    // standing (the I2 shootdown is mutated away).
    os::MutationKnobs m;
    m.skipProxyShootdown = true;
    node.kernel().setMutations(m);
    Tick lat = 0;
    ASSERT_TRUE(node.kernel().evictPage(pr, buf, lat));

    auto violations = audit::checkAll(sys);
    EXPECT_TRUE(hasInvariant(violations, audit::Invariant::I2Mapping))
        << "a valid proxy PTE shadowing an evicted real page must "
           "be flagged as I2";
}

TEST(Auditor, WritableProxyOverCleanPageIsI3)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf = 0, win = 0;
    os::Process &pr = spawnParked(node, buf, win);

    // Upgrade the proxy mapping to writable via a proxy STORE (an
    // Inval store: value 0 latches nothing but dirties the path).
    node.kernel().modelSwitchTo(pr);
    auto res = node.kernel().performUserAccess(
        pr, node.kernel().layout().proxy(buf, 0), true, 0);
    ASSERT_TRUE(res.ok);
    ASSERT_TRUE(audit::checkAll(sys).empty());

    // Corrupt: clean the page without write-protecting the proxy.
    os::MutationKnobs m;
    m.skipProxyWriteProtect = true;
    node.kernel().setMutations(m);
    Tick lat = 0;
    ASSERT_TRUE(node.kernel().cleanPage(pr, buf, lat));

    auto violations = audit::checkAll(sys);
    EXPECT_TRUE(hasInvariant(violations, audit::Invariant::I3Content))
        << "a writable proxy PTE over a clean real page must be "
           "flagged as I3";
}

TEST(Auditor, CrossProcessLatchAfterSwitchWithoutInvalIsI1)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf_a = 0, win_a = 0, buf_b = 0, win_b = 0;
    os::Process &a = spawnParked(node, buf_a, win_a);
    os::Process &b = spawnParked(node, buf_b, win_b);

    // Process A latches a destination (STORE without the LOAD)...
    node.kernel().modelSwitchTo(a);
    auto res = node.kernel().performUserAccess(
        a, win_a, true, node.kernel().layout().pageBytes());
    ASSERT_TRUE(res.ok);
    ASSERT_NE(node.controller(0)->latchOwnerPid(), invalidPid);
    ASSERT_TRUE(audit::checkAll(sys).empty());

    // ...and a context switch to B "forgets" the I1 Inval.
    os::MutationKnobs m;
    m.skipInvalOnSwitch = true;
    node.kernel().setMutations(m);
    node.kernel().modelSwitchTo(b);

    auto violations = audit::checkAll(sys);
    EXPECT_TRUE(
        hasInvariant(violations, audit::Invariant::I1Atomicity))
        << "a latch surviving a switch to another process must be "
           "flagged as I1";

    // The honest switch clears it.
    node.kernel().setMutations(os::MutationKnobs{});
    node.kernel().modelSwitchTo(a);
    node.kernel().modelSwitchTo(b);
    EXPECT_TRUE(audit::checkAll(sys).empty());
}

TEST(Auditor, EvictedTransferPageIsI4)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf = 0, win = 0;
    os::Process &pr = spawnParked(node, buf, win);

    // Fire a transfer (STORE dest, LOAD source) but do not run the
    // event queue: the transfer stays in flight.
    node.kernel().modelSwitchTo(pr);
    auto st = node.kernel().performUserAccess(
        pr, win, true, node.kernel().layout().pageBytes());
    ASSERT_TRUE(st.ok);
    auto ld = node.kernel().performUserAccess(
        pr, node.kernel().layout().proxy(buf, 0), false);
    ASSERT_TRUE(ld.ok);
    ASSERT_EQ(node.controller(0)->state(),
              dma::UdmaController::State::Transferring);
    ASSERT_TRUE(audit::checkAll(sys).empty());

    // Corrupt: evict the page under the running transfer.
    os::MutationKnobs m;
    m.ignoreI4PageBusy = true;
    node.kernel().setMutations(m);
    Tick lat = 0;
    ASSERT_TRUE(node.kernel().evictPage(pr, buf, lat));

    auto violations = audit::checkAll(sys);
    EXPECT_TRUE(
        hasInvariant(violations, audit::Invariant::I4Registers))
        << "an in-flight transfer referencing an evicted page must "
           "be flagged as I4";
}

TEST(Auditor, DescribeMentionsInvariantAndNode)
{
    audit::Violation v;
    v.invariant = audit::Invariant::I3Content;
    v.node = 2;
    v.pid = 7;
    v.device = 1;
    v.addr = 0x1000;
    v.detail = "writable proxy over clean page";
    std::string s = audit::describe(v);
    EXPECT_NE(s.find("I3"), std::string::npos);
    EXPECT_NE(s.find("node2"), std::string::npos);
    EXPECT_NE(s.find("pid7"), std::string::npos);
    EXPECT_NE(s.find("writable proxy"), std::string::npos);
}

// ------------------------------------------------------------- monitor

TEST(Monitor, FailFastThrowsViolationError)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf_a = 0, win_a = 0, buf_b = 0, win_b = 0;
    os::Process &a = spawnParked(node, buf_a, win_a);
    os::Process &b = spawnParked(node, buf_b, win_b);

    ASSERT_TRUE(sys.enableAudit("on-switch", /*fail_fast=*/true));
    ASSERT_NE(sys.auditMonitor(), nullptr);
    EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::OnSwitch);

    node.kernel().modelSwitchTo(a);
    auto res = node.kernel().performUserAccess(
        a, win_a, true, node.kernel().layout().pageBytes());
    ASSERT_TRUE(res.ok);

    os::MutationKnobs m;
    m.skipInvalOnSwitch = true;
    node.kernel().setMutations(m);
    // The monitor audits inside the switch and throws on the I1 hole.
    EXPECT_THROW(node.kernel().modelSwitchTo(b),
                 audit::ViolationError);

    try {
        node.kernel().modelSwitchTo(a);
        node.kernel().modelSwitchTo(b);
    } catch (const audit::ViolationError &e) {
        ASSERT_FALSE(e.violations().empty());
        EXPECT_EQ(e.violations().front().invariant,
                  audit::Invariant::I1Atomicity);
    }
}

TEST(Monitor, RecordingMonitorCountsViolations)
{
    System sys(fbConfig());
    auto &node = sys.node(0);
    Addr buf_a = 0, win_a = 0, buf_b = 0, win_b = 0;
    os::Process &a = spawnParked(node, buf_a, win_a);
    os::Process &b = spawnParked(node, buf_b, win_b);

    ASSERT_TRUE(sys.enableAudit("on-switch"));
    audit::Monitor *mon = sys.auditMonitor();
    ASSERT_NE(mon, nullptr);

    node.kernel().modelSwitchTo(a);
    auto res = node.kernel().performUserAccess(
        a, win_a, true, node.kernel().layout().pageBytes());
    ASSERT_TRUE(res.ok);

    os::MutationKnobs m;
    m.skipInvalOnSwitch = true;
    node.kernel().setMutations(m);
    node.kernel().modelSwitchTo(b);

    EXPECT_GE(mon->audits(), 1u);
    EXPECT_GE(mon->violationCount(), 1u);
    ASSERT_FALSE(mon->violations().empty());
    EXPECT_EQ(mon->violations().front().invariant,
              audit::Invariant::I1Atomicity);

    // Turning auditing off detaches the hooks.
    ASSERT_TRUE(sys.enableAudit("off"));
    EXPECT_EQ(sys.auditMonitor(), nullptr);
}

TEST(Monitor, MonitoredSimulationStaysClean)
{
    // A full scheduled run (spawn / transfer / switch / complete)
    // under every-event fail-fast auditing: the real kernel must
    // never trip the auditor.
    System sys(fbConfig());
    ASSERT_TRUE(sys.enableAudit("every-event", /*fail_fast=*/true));
    auto &node = sys.node(0);

    for (int p = 0; p < 2; ++p) {
        node.kernel().spawn(
            "worker" + std::to_string(p),
            [](os::UserContext &ctx) -> sim::ProcTask {
                Addr buf = co_await ctx.sysAllocMemory(4096);
                co_await ctx.store(buf, 0xAB);
                Addr win =
                    co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
                dma::Status st = co_await udmaStart(
                    ctx, win, ctx.proxyAddr(buf, 0), 4096);
                if (!st.initiationFailed)
                    co_await udmaWait(ctx, ctx.proxyAddr(buf, 0));
                co_await ctx.yield();
            });
    }
    EXPECT_NO_THROW(sys.runUntilAllDone());
    ASSERT_NE(sys.auditMonitor(), nullptr);
    EXPECT_GE(sys.auditMonitor()->audits(), 1u);
    EXPECT_EQ(sys.auditMonitor()->violationCount(), 0u);
}

TEST(Monitor, OneShardKeepsTheRequestedMode)
{
    // One shard runs every event on one thread, so the per-event
    // hooks are safe and every mode stays as requested; at-barrier
    // audits from the engine's barrier hook.
    System sys(fbConfig());
    ASSERT_EQ(sys.engine()->shardCount(), 1u);
    ASSERT_TRUE(sys.enableAudit("every-event"));
    ASSERT_NE(sys.auditMonitor(), nullptr);
    EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::EveryEvent);
    ASSERT_TRUE(sys.enableAudit("on-switch"));
    EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::OnSwitch);

    ASSERT_TRUE(sys.enableAudit("at-barrier", /*fail_fast=*/true));
    EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::AtBarrier);
    sys.node(0).kernel().spawn(
        "worker", [](os::UserContext &ctx) -> sim::ProcTask {
            co_await ctx.compute(1000);
        });
    EXPECT_NO_THROW(sys.runUntilAllDone());
    EXPECT_GE(sys.auditMonitor()->audits(), 1u);
    EXPECT_EQ(sys.auditMonitor()->violationCount(), 0u);
}

TEST(Monitor, SeveralShardsAuditOnlyAtBarriers)
{
    // Per-event hooks would race across worker threads: every
    // non-off mode is coerced to at-barrier.
    SystemConfig cfg = fbConfig();
    cfg.nodes = 4;
    cfg.shards = 4;
    System sys(cfg);
    ASSERT_EQ(sys.engine()->shardCount(), 4u);
    for (const char *spec : {"every-event", "on-switch", "at-barrier"}) {
        ASSERT_TRUE(sys.enableAudit(spec));
        ASSERT_NE(sys.auditMonitor(), nullptr) << spec;
        EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::AtBarrier)
            << spec;
    }
    ASSERT_TRUE(sys.enableAudit("off"));
    EXPECT_EQ(sys.auditMonitor(), nullptr);
}

// --------------------------------------------------------- run options

TEST(RunOptions, AuditSpecParsedAndStripped)
{
    const char *argv_in[] = {"prog", "--audit=on-switch", "keep"};
    int argc = 3;
    char *argv[3];
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);

    RunOptions opts = parseRunOptions(argc, argv);
    EXPECT_TRUE(opts.ok);
    EXPECT_EQ(opts.auditSpec, "on-switch");
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "keep");

    // The spec applies to the next System constructed.
    {
        System sys(fbConfig());
        ASSERT_NE(sys.auditMonitor(), nullptr);
        EXPECT_EQ(sys.auditMonitor()->mode(), audit::Mode::OnSwitch);
    }

    // Reset the process-global pending spec for later tests.
    const char *off[] = {"prog", "--audit=off"};
    int argc2 = 2;
    char *argv2[2];
    for (int i = 0; i < argc2; ++i)
        argv2[i] = const_cast<char *>(off[i]);
    parseRunOptions(argc2, argv2);
    System sys2(fbConfig());
    EXPECT_EQ(sys2.auditMonitor(), nullptr);
}

TEST(RunOptions, BadAuditSpecIsRejected)
{
    const char *argv_in[] = {"prog", "--audit=sometimes"};
    int argc = 2;
    char *argv[2];
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    RunOptions opts = parseRunOptions(argc, argv);
    EXPECT_FALSE(opts.ok);
}

TEST(AuditMode, ParseModeRoundTrips)
{
    audit::Mode m;
    ASSERT_TRUE(audit::parseMode("off", m));
    EXPECT_EQ(m, audit::Mode::Off);
    ASSERT_TRUE(audit::parseMode("on-switch", m));
    EXPECT_EQ(m, audit::Mode::OnSwitch);
    ASSERT_TRUE(audit::parseMode("every-event", m));
    EXPECT_EQ(m, audit::Mode::EveryEvent);
    EXPECT_FALSE(audit::parseMode("", m));
    EXPECT_FALSE(audit::parseMode("always", m));
    EXPECT_STREQ(audit::modeName(audit::Mode::EveryEvent),
                 "every-event");
}
