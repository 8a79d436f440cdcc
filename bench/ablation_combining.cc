/**
 * @file
 * Automatic-update write-combining window sweep.
 *
 * The snooper holds an open update packet for a short window so that
 * contiguous stores share one packet (header, NI processing, rx DMA
 * start). Too short a window degenerates to one packet per store;
 * too long adds latency to the *last* store's visibility. This
 * sweep shows both effects for a contiguous 64-word update burst.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** The sender writes t0 when its first store issues, the receiver
 *  `arrived` when it sees the last word. */
struct Result
{
    Tick t0 = 0;
    Tick arrived = 0;
    std::uint64_t packets = 0;
    std::uint64_t combined = 0;

    double usToLastVisible() const { return ticksToUs(arrived - t0); }
};

Result
run(double window_ns, unsigned words)
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.params.autoCombineWindowNs = window_ns;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);
    auto &send = sys.node(0);
    auto &recv = sys.node(1);

    bench::Rendezvous shared;
    Result res;

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
            co_await sysMapAutoUpdate(ctx, *send.ni(), buf,
                                      recv.id(), shared.rxPages[0]);
            res.t0 = ctx.kernel().eq().now();
            for (unsigned i = 0; i < words; ++i)
                co_await ctx.store(buf + i * 8,
                                   i + 1 == words ? words : i + 1);
        });

    sys.runSetup([&] { return shared.imported; }, Tick(60) * tickSec);
    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run();
    res.packets = send.ni()->autoUpdatesSent();
    res.combined = send.ni()->autoUpdatesCombined();
    bench::captureSystem(sys);
    if (auto *r = bench::BenchReport::active())
        r->recordLatencyUs(res.usToLastVisible());
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;
    bench::BenchReport report("ablation_combining", opts);

    constexpr unsigned words = 64;
    std::printf("# Automatic-update combining-window sweep: %u "
                "contiguous 8-byte stores\n",
                words);
    std::printf("%12s %14s %10s %10s\n", "window_ns", "visible_us",
                "packets", "combined");
    for (double w : {0.0, 100.0, 500.0, 1500.0, 5000.0, 20000.0}) {
        auto r = run(w, words);
        std::printf("%12.0f %14.2f %10llu %10llu\n", w,
                    r.usToLastVisible(),
                    (unsigned long long)r.packets,
                    (unsigned long long)r.combined);
    }
    std::printf("\n# Reading: a sub-microsecond window already folds "
                "the burst into 16 packets and cuts last-word latency "
                "by two thirds (the stores arrive ~0.15 us apart); ~5 "
                "us reaches the 2-packet floor, and a very long window "
                "defers the final flush and shows up directly as "
                "last-word latency.\n");
    report.setParam("words", double(words));
    report.write();
    return 0;
}
