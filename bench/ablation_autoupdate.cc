/**
 * @file
 * Automatic update vs deliberate update (paper Section 9 / [5]).
 *
 * Automatic update propagates individual snooped stores with no
 * initiation at all — ideal for fine-grain producer-consumer updates;
 * deliberate update amortizes one initiation over a whole block. This
 * bench measures, for N 8-byte updates scattered into a remote page:
 *
 *   - automatic: N ordinary stores (the board snoops and combines);
 *   - deliberate: N stores into a local buffer, then one UDMA send of
 *     the containing span.
 *
 * The crossover mirrors the PIO-vs-DMA one: word-granular wins small,
 * block DMA wins big — with the twist that automatic update needs no
 * second copy of the data and no explicit send at all.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Each node writes its own field: the sender when its first store
 *  issues, the receiver when it sees the last word. */
struct Result
{
    Tick t0 = 0;
    Tick arrived = 0;

    double us() const { return ticksToUs(arrived - t0); }
};

SystemConfig
niConfig()
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    return cfg;
}

/** Time until the receiver observes the last of @p words updates. */
Result
runAuto(unsigned words)
{
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);
    Result res;

    bench::Rendezvous shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf + (words - 1) * 8, words);
            res.arrived = ctx.kernel().eq().now();
        });

    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            while (!shared.exported)
                co_await ctx.compute(500);
            shared.imported = true;
            co_await sysMapAutoUpdate(ctx, *send.ni(), buf, recv.id(),
                                      shared.rxPages[0]);
            res.t0 = ctx.kernel().eq().now();
            for (unsigned i = 0; i < words; ++i)
                co_await ctx.store(buf + i * 8, i + 1 == words
                                                    ? words
                                                    : i + 1);
        });

    sys.runSetup([&] { return shared.imported; }, Tick(60) * tickSec);
    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run();
    bench::captureSystem(sys);
    if (auto *r = bench::BenchReport::active())
        r->recordLatencyUs(res.us());
    return res;
}

Result
runDeliberate(unsigned words)
{
    System sys(niConfig());
    auto &send = sys.node(0);
    auto &recv = sys.node(1);
    Result res;

    bench::Rendezvous shared;

    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf + (words - 1) * 8, words);
            res.arrived = ctx.kernel().eq().now();
        });

    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1); // warm/dirty
            while (!shared.exported)
                co_await ctx.compute(500);
            shared.imported = true;
            Addr proxy = co_await sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), shared.rxPages);
            co_await ctx.load(ctx.proxyAddr(buf, 0));
            res.t0 = ctx.kernel().eq().now();
            for (unsigned i = 0; i < words; ++i)
                co_await ctx.store(buf + i * 8, i + 1 == words
                                                    ? words
                                                    : i + 1);
            co_await udmaTransfer(ctx, 0, proxy, buf, words * 8,
                                  true);
        });

    sys.runSetup([&] { return shared.imported; }, Tick(60) * tickSec);
    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run();
    bench::captureSystem(sys);
    if (auto *r = bench::BenchReport::active())
        r->recordLatencyUs(res.us());
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;
    bench::BenchReport report("ablation_autoupdate", opts);

    std::printf("# Automatic update vs deliberate update: N 8-byte "
                "words to a remote page, time to last-word visibility "
                "at the receiver\n");
    std::printf("%8s %14s %16s\n", "words", "auto_us", "deliberate_us");
    for (unsigned words : {1u, 2u, 4u, 8u, 16u, 64u, 256u, 512u}) {
        auto a = runAuto(words);
        auto d = runDeliberate(words);
        std::printf("%8u %14.2f %16.2f\n", words, a.us(), d.us());
    }
    std::printf("\n# Reading: automatic update wins up to 64 scattered "
                "words (no initiation, no second copy); deliberate "
                "update wins from 256 words (2 KB), where one engine "
                "burst beats per-word packets. This is why SHRIMP kept "
                "both strategies (Section 9).\n");
    report.write();
    return 0;
}
