/**
 * @file
 * Tests for the proxy-translation cache on the UDMA initiation path:
 * repeat proxy references hit the cache, the I2 shootdown
 * (remap/page-out) drops the cached entry, the I3 write-protect is
 * observed through the cache without explicit invalidation, and a
 * missed shootdown (seeded mutation) is flagged by the auditor as a
 * stale-cache I2 violation while the stale entry itself reads the
 * cleared PTE slot and misses. The clean paths run under an
 * every-event fail-fast monitor, so coherence holds at every kernel
 * event, not just at the test's checkpoints.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/audit.hh"
#include "check/monitor.hh"
#include "core/system.hh"

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
    fb.fbWidth = 256;
    fb.fbHeight = 256;
    cfg.node.devices.push_back(fb);
    return cfg;
}

/** A parked process owning one dirty buffer page and a device window,
 *  with the scheduler drained — the test drives the kernel directly
 *  through the model-check CPU (performUserAccess). */
os::Process &
spawnParked(Node &node, Addr &buf_out)
{
    auto buf = std::make_shared<Addr>(0);
    os::Process &pr = node.kernel().spawn(
        "puppet", [buf](os::UserContext &ctx) -> sim::ProcTask {
            *buf = co_await ctx.sysAllocMemory(ctx.pageBytes());
            co_await ctx.store(*buf, 0xD1);
            co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await ctx.syscall([](os::Kernel &, os::Process &,
                                    os::SyscallControl &sc) {
                sc.blocks = true;
            });
        });
    node.kernel().eq().run();
    EXPECT_EQ(pr.state(), os::ProcState::Blocked);
    buf_out = *buf;
    return pr;
}

void
expectClean(System &sys, const char *when)
{
    for (const auto &v : audit::checkAll(sys))
        ADD_FAILURE() << when << ": " << audit::describe(v);
}

} // namespace

TEST(ProxyTcache, RepeatProxyAccessHitsCache)
{
    System sys(fbConfig());
    Node &node = sys.node(0);
    os::Kernel &kernel = node.kernel();
    Addr buf = 0;
    os::Process &pr = spawnParked(node, buf);
    kernel.modelSwitchTo(pr);

    Addr proxy_va = kernel.layout().proxy(buf, 0);
    const auto &tc = kernel.proxyTcache();

    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    std::uint64_t misses_after_first = tc.misses();
    std::uint64_t hits_after_first = tc.hits();
    EXPECT_GE(misses_after_first, 1u)
        << "the first proxy reference must populate the cache";

    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    EXPECT_EQ(tc.misses(), misses_after_first)
        << "repeat references must not miss";
    EXPECT_EQ(tc.hits(), hits_after_first + 2);
    expectClean(sys, "after cached proxy loads");
}

TEST(ProxyTcache, EvictionDropsCachedEntryAndStaysClean)
{
    System sys(fbConfig());
    Node &node = sys.node(0);
    os::Kernel &kernel = node.kernel();
    Addr buf = 0;
    os::Process &pr = spawnParked(node, buf);
    kernel.modelSwitchTo(pr);

    // Fail fast on any invariant break at any kernel event while the
    // remap cycle runs — the I2 guarantee the cache must preserve.
    audit::Monitor monitor(sys, audit::Mode::EveryEvent,
                           /*fail_fast=*/true);

    Addr proxy_va = kernel.layout().proxy(buf, 0);
    const auto &tc = kernel.proxyTcache();
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    std::uint64_t misses_before = tc.misses();

    // Page the real page out: the I2 shootdown removes the proxy PTE
    // and must drop the cached translation with it.
    Tick lat = 0;
    ASSERT_TRUE(kernel.evictPage(pr, buf, lat));
    expectClean(sys, "after page-out");

    // The next proxy reference re-faults and repopulates: a miss, not
    // a (stale) hit.
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    EXPECT_GT(tc.misses(), misses_before)
        << "the shot-down translation must not be served from cache";
    expectClean(sys, "after re-fault");
}

TEST(ProxyTcache, CleanPageWriteProtectIsSeenThroughCache)
{
    System sys(fbConfig());
    Node &node = sys.node(0);
    os::Kernel &kernel = node.kernel();
    Addr buf = 0;
    os::Process &pr = spawnParked(node, buf);
    kernel.modelSwitchTo(pr);

    Addr proxy_va = kernel.layout().proxy(buf, 0);

    // A proxy STORE (a DESTINATION latch) caches a writable proxy
    // translation; the real page is dirty so this is I3-legal.
    ASSERT_TRUE(
        kernel.performUserAccess(pr, proxy_va, true,
                                 kernel.layout().pageBytes())
            .ok);
    expectClean(sys, "after proxy store");

    // cleanPage write-protects the proxy PTE *in place*. The cache
    // holds a pointer to that PTE, so no invalidation is needed —
    // but the next cached write must see writable == false and take
    // the slow upgrade path instead of a stale writable hit.
    Tick lat = 0;
    ASSERT_TRUE(kernel.cleanPage(pr, buf, lat));
    expectClean(sys, "after cleanPage");

    std::uint64_t upgrades_before = kernel.proxyWriteUpgrades();
    ASSERT_TRUE(
        kernel.performUserAccess(pr, proxy_va, true,
                                 kernel.layout().pageBytes())
            .ok);
    EXPECT_GT(kernel.proxyWriteUpgrades(), upgrades_before)
        << "a write after cleaning must re-fault to mark the page "
           "dirty (I3), not hit a stale writable cache entry";
    expectClean(sys, "after write upgrade");
}

TEST(ProxyTcache, MissedShootdownIsFlaggedAsI2)
{
    System sys(fbConfig());
    Node &node = sys.node(0);
    os::Kernel &kernel = node.kernel();
    Addr buf = 0;
    os::Process &pr = spawnParked(node, buf);
    kernel.modelSwitchTo(pr);

    Addr proxy_va = kernel.layout().proxy(buf, 0);
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    expectClean(sys, "before the seeded mutation");

    // Corrupt: shoot down the proxy PTE but leave the cache standing.
    os::MutationKnobs m;
    m.skipTcacheShootdown = true;
    kernel.setMutations(m);
    Tick lat = 0;
    ASSERT_TRUE(kernel.evictPage(pr, buf, lat));

    bool found = false;
    for (const auto &v : audit::checkAll(sys)) {
        if (v.invariant == audit::Invariant::I2Mapping
                && v.detail.find("translation-cache")
                       != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found)
        << "a cached translation surviving the I2 shootdown must be "
           "flagged as a stale-cache I2 violation";
}

TEST(ProxyTcache, MissedShootdownIsAMemorySafeMiss)
{
    System sys(fbConfig());
    Node &node = sys.node(0);
    os::Kernel &kernel = node.kernel();
    Addr buf = 0;
    os::Process &pr = spawnParked(node, buf);
    kernel.modelSwitchTo(pr);

    Addr proxy_va = kernel.layout().proxy(buf, 0);
    const auto &tc = kernel.proxyTcache();
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    const std::uint64_t hits_before = tc.hits();
    const std::uint64_t faults_before = kernel.proxyFaults();

    os::MutationKnobs m;
    m.skipTcacheShootdown = true;
    kernel.setMutations(m);
    Tick lat = 0;
    ASSERT_TRUE(kernel.evictPage(pr, buf, lat));

    // The auditor still sees the stale entry: it names a PTE the page
    // table no longer holds for that vpn.
    bool flagged = false;
    for (const auto &v : audit::checkAll(sys)) {
        if (v.invariant == audit::Invariant::I2Mapping
                && v.detail.find("translation-cache")
                       != std::string::npos)
            flagged = true;
    }
    EXPECT_TRUE(flagged);

    // The entry points at the cleared slot, which reads invalid: the
    // next proxy reference misses and re-faults instead of reaching
    // the evicted frame through a stale translation.
    ASSERT_TRUE(kernel.performUserAccess(pr, proxy_va, false).ok);
    EXPECT_EQ(tc.hits(), hits_before);
    EXPECT_GT(kernel.proxyFaults(), faults_before)
        << "the access after the missed shootdown must re-fault";
}
