/**
 * @file
 * Traffic patterns on the prototype machine (default 4 nodes,
 * `--nodes=N` to scale): every node streams UDMA messages to
 * destinations drawn from a synthetic pattern, and the table shows
 * where the bottleneck sits. `--shards=N|auto` spreads each pattern
 * over N engine shards — page export and remote mapping happen under
 * `System::runSetup` (sequential canonical order, the only phase
 * that reads host state across nodes), so results are bit-identical
 * to the one-shard run.
 *
 * Expected architecture story (and the reason hotspot collapses):
 * each SHRIMP node's *receive path* is one EISA-class DMA engine at
 * ~23 MB/s. Permutation patterns (neighbor, transpose) keep every
 * receiver busy and scale; hotspot funnels most traffic into one
 * receiver whose bus then rate-limits the whole machine.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"
#include "workload/traffic.hh"

using namespace shrimp;
using namespace shrimp::core;
using namespace shrimp::workload;

namespace
{

struct PatternResult
{
    double wallUs = 0;
    double aggregateMBs = 0;
    std::uint64_t hotDelivered = 0;
};

PatternResult
runPattern(const TrafficConfig &tc, unsigned shards,
           const sim::TopologyConfig &topo)
{
    SystemConfig cfg;
    cfg.nodes = tc.nodes;
    cfg.shards = shards;
    cfg.node.memBytes = 8 << 20;
    cfg.params.quantumUs = 500.0;
    cfg.node.devices.push_back(DeviceConfig{});
    cfg.topology = topo;
    cfg.topology.specified = true;
    System sys(cfg);

    const std::uint32_t pb = cfg.params.pageBytes;
    const unsigned n = tc.nodes;

    // Every node exports one landing page per possible sender.
    // Host-shared, but written only under runSetup (sequential), then
    // read-only during the parallel data phase — race-free under
    // shards.
    struct NodeShare
    {
        std::vector<Addr> pagePerSender; // indexed by sender id
        bool exported = false;
    };
    std::vector<NodeShare> shares(n);
    unsigned exported_count = 0;
    unsigned mapped_count = 0;

    for (unsigned r = 0; r < n; ++r) {
        auto *node = &sys.node(r);
        node->kernel().spawn(
            "host" + std::to_string(r),
            [&, r, node](os::UserContext &ctx) -> sim::ProcTask {
                Addr buf = co_await ctx.sysAllocMemory(n * pb);
                auto pages =
                    co_await sysExportRange(ctx, buf, n * pb);
                shares[r].pagePerSender = pages;
                shares[r].exported = true;
                ++exported_count;

                // Sender phase: wait for everyone, map each
                // destination's landing page, then stream.
                while (exported_count < n)
                    co_await ctx.compute(500);
                std::vector<Addr> window(n, 0);
                for (unsigned d = 0; d < n; ++d) {
                    if (d == r)
                        continue;
                    std::vector<Addr> one(
                        1, shares[d].pagePerSender[r]);
                    window[d] = co_await sysMapRemoteRange(
                        ctx, 0, *node->ni(), d, std::move(one));
                    if (window[d] == 0)
                        fatal("map failed ", r, "->", d);
                }
                Addr src = co_await ctx.sysAllocMemory(pb);
                co_await ctx.store(src, r);
                co_await ctx.load(ctx.proxyAddr(src, 0)); // warm
                ++mapped_count;

                TrafficGenerator gen(tc, r);
                for (unsigned m = 0; m < tc.messagesPerNode; ++m) {
                    if (!gen.sendNow())
                        co_await ctx.compute(
                            tc.messageBytes / 4); // idle slot
                    NodeId d = gen.nextDestination();
                    co_await udmaTransfer(ctx, 0, window[d], src,
                                          tc.messageBytes, true);
                }
            });
    }

    // Export + remote mapping read host state across nodes: run them
    // sequentially in the canonical global order so the shard count
    // is invisible; the streaming phase that follows is node-local.
    sys.runSetup([&] { return mapped_count == n; },
                 Tick(600) * tickSec);

    Tick t0 = 0;
    sys.runUntilAllDone(Tick(600) * tickSec);
    sys.run();

    PatternResult res;
    res.wallUs = ticksToUs(sys.simNow() - t0);
    std::uint64_t total_bytes = 0;
    for (unsigned r = 0; r < n; ++r)
        total_bytes += sys.node(r).ni()->bytesDelivered();
    res.aggregateMBs =
        total_bytes / res.wallUs * 1e6 / (1 << 20);
    res.hotDelivered =
        sys.node(tc.hotspotNode).ni()->messagesDelivered();
    bench::captureSystem(sys);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;
    bench::BenchReport report("multinode_patterns", opts);

    TrafficConfig base;
    base.nodes = 4;
    base.messageBytes = 4096;
    base.messagesPerNode = 24;
    base.seed = 7;

    // --check-hotspot=FRAC gates the funnel pattern against the
    // machine's permutation throughput: hotspot aggregate bandwidth
    // must reach (1 - FRAC) of the mean of nearest-neighbor and
    // transpose, or the run fails. The gate is meaningful only where
    // the receiver, not the shared bus, is the structural bottleneck:
    // on the crossbar that means small node counts (at 4+ nodes every
    // pattern is bus-bound and the ratio says nothing about the
    // transport); on a mesh/torus the hot node's own links and drain
    // are the bottleneck again at any scale, so the gate re-enables.
    double check_hotspot = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--nodes=", 0) == 0) {
            base.nodes =
                unsigned(std::strtoul(arg.c_str() + 8, nullptr, 10));
        } else if (arg.rfind("--check-hotspot=", 0) == 0) {
            check_hotspot = std::strtod(arg.c_str() + 16, nullptr);
            if (check_hotspot <= 0.0 || check_hotspot >= 1.0) {
                std::fprintf(stderr,
                             "--check-hotspot wants a fraction in "
                             "(0,1), got '%s'\n",
                             arg.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (base.nodes < 2) {
        std::fprintf(stderr, "want --nodes>=2\n");
        return 2;
    }
    const unsigned shards = resolveShards(opts, base.nodes);
    const sim::TopologyConfig topo = opts.topology;
    if (!topo.flat() && topo.gridNodes() != base.nodes) {
        std::fprintf(stderr,
                     "--topo=%s wires %u nodes but --nodes=%u\n",
                     topo.describe().c_str(), topo.gridNodes(),
                     base.nodes);
        return 2;
    }

    std::printf(
        "# Traffic patterns, %u nodes on %s, %u x %u B per node, "
        "%u shards\n",
        base.nodes, topo.describe().c_str(), base.messagesPerNode,
        base.messageBytes, shards);
    std::printf("%-18s %12s %14s %18s\n", "pattern", "wall_us",
                "aggregate_MB_s", "hot_node_msgs");

    double permutation_sum = 0;
    unsigned permutation_count = 0;
    double hotspot_mbs = 0;
    for (Pattern p :
         {Pattern::NearestNeighbor, Pattern::Transpose,
          Pattern::UniformRandom, Pattern::Hotspot, Pattern::Bursty,
          Pattern::Incast, Pattern::Bisection}) {
        TrafficConfig tc = base;
        tc.pattern = p;
        auto r = runPattern(tc, shards, topo);
        std::printf("%-18s %12.0f %14.2f %18llu\n", patternName(p),
                    r.wallUs, r.aggregateMBs,
                    (unsigned long long)r.hotDelivered);
        // Per-pattern bandwidth as a first-class metric so regression
        // tooling can diff BENCH JSONs pattern by pattern.
        std::string key = patternName(p);
        for (char &c : key)
            if (c == '-')
                c = '_';
        report.addMetric(key + "_mb_s", r.aggregateMBs);
        if (p == Pattern::NearestNeighbor || p == Pattern::Transpose) {
            permutation_sum += r.aggregateMBs;
            ++permutation_count;
        } else if (p == Pattern::Hotspot) {
            hotspot_mbs = r.aggregateMBs;
        }
    }

    std::printf("\n# Reading: permutation patterns scale with the "
                "node count (every receiver's EISA engine busy); "
                "hotspot serializes on the hot receiver's bus and "
                "drags aggregate bandwidth toward the single-link "
                "rate.\n");
    report.setParam("nodes", double(base.nodes));
    report.setParam("topology", topo.describe());
    report.setParam("message_bytes", double(base.messageBytes));
    report.setParam("messages_per_node", double(base.messagesPerNode));

    int rc = 0;
    // Topology-aware gate eligibility: the crossbar ratio is only a
    // transport signal while the hot receiver is the bottleneck
    // (nodes <= 3); on a mesh/torus it always is.
    const bool hotspot_gate_meaningful =
        !topo.flat() || base.nodes <= 3;
    if (check_hotspot > 0 && !hotspot_gate_meaningful) {
        std::printf(
            "\nhotspot gate: SKIPPED — %u-node crossbar is bus-bound "
            "on every pattern, so the hotspot/permutation ratio "
            "carries no transport signal (use --nodes=3 or a mesh "
            "topology)\n",
            base.nodes);
        check_hotspot = -1.0;
    }
    if (check_hotspot > 0 && permutation_count > 0) {
        const double permutation_mean =
            permutation_sum / permutation_count;
        // The reference the funnel is held against. On the small
        // crossbar the hot receiver carries a share comparable to
        // each permutation receiver, so the aggregate compares
        // directly. On a mesh/torus the hotspot aggregate is
        // structurally *one* receiver's drain while the permutation
        // aggregate is N receivers' — the honest floor is the
        // per-receiver permutation rate, which a congestion-collapsed
        // transport (retransmit storm crushing goodput) still falls
        // below while a healthy funnel clears it easily.
        const bool per_receiver = !topo.flat();
        const double reference =
            per_receiver ? permutation_mean / base.nodes
                         : permutation_mean;
        const double floor = (1.0 - check_hotspot) * reference;
        const double ratio =
            reference > 0 ? hotspot_mbs / reference : 0;
        report.addMetric("hotspot_vs_permutation", ratio);
        const char *ref_name = per_receiver
                                   ? "per-receiver permutation rate"
                                   : "permutation mean";
        if (hotspot_mbs < floor) {
            std::printf("\nNETPERF REGRESSION: hotspot %.2f MB/s is "
                        "below %.2f MB/s (%.0f%% of the %.2f MB/s "
                        "%s)\n",
                        hotspot_mbs, floor, 100 * (1 - check_hotspot),
                        reference, ref_name);
            rc = 1;
        } else {
            std::printf("\nhotspot gate: %.2f MB/s >= %.2f MB/s "
                        "(%.0f%% of the %.2f MB/s %s) -- ok\n",
                        hotspot_mbs, floor, 100 * (1 - check_hotspot),
                        reference, ref_name);
        }
    }
    report.write();
    return rc;
}
