/**
 * @file
 * Multi-node traffic (generalizing the paper's four-processor
 * prototype run): N nodes streaming records through user-level
 * msg::Channels — by default a ring (every node to its right
 * neighbour, demonstrating that each node's EISA bus, not the shared
 * backplane, is the bottleneck), or with --pattern=hotspot every
 * node streaming into node 0 (N-1 credit windows converging on one
 * receive FIFO — the congestion-control stress case).
 *
 * Doubles as the sharded-simulation-core benchmark. The same
 * configuration is run twice, on one shard and on --shards=N (default
 * 1, or auto); the run fails loudly unless both produce bit-identical
 * simulated time and counters (workload::RingResult::digest), and the
 * host wall-clock ratio is reported as the parallel speedup.
 *
 * Output: BENCH_multinode.json via --stats-json=<path>. With
 * --check-against=<committed.json> the simulated-time metrics must
 * match the committed baseline exactly (they are deterministic), and
 * on hosts with >= 4 hardware threads the sharded speedup must clear
 * the 2x floor — the CI gate in tools/run_checks.sh.
 *
 * With --faults=<spec> (e.g. drop=0.05,corrupt=0.02) the same ring
 * runs over an unreliable backplane and becomes a goodput-under-loss
 * experiment: an in-process fault-free reference run must agree on
 * the payload data digest and delivery counts (every record delivered
 * exactly once despite drops/corruption), and the report grows
 * goodput, retransmit, and per-fault-kind metrics — including
 * retransmit_ratio, retransmits over actual wire losses, the
 * efficiency number the selective-repeat transport is gated on
 * (EXPERIMENTS.md). --min-goodput= and --max-retransmit-ratio= turn
 * those metrics into hard exit-code gates (tools/run_checks.sh's
 * netperf step).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hh"
#include "core/system.hh"
#include "sim/flight_recorder.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"
#include "workload/ring.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/**
 * Extract "key": <number> from a flat JSON file with a crude scan —
 * enough for the committed-baseline gate without a JSON parser
 * dependency in bench/. Tolerates a quoted value ("key": "4"), which
 * is how the report writes params.
 */
bool
scanJsonNumber(const std::string &text, const std::string &key,
               double &out)
{
    std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t'))
        ++pos;
    if (pos < text.size() && text[pos] == '"')
        ++pos;
    char *end = nullptr;
    out = std::strtod(text.c_str() + pos, &end);
    return end != text.c_str() + pos;
}

void
printRun(const char *label, const workload::RingResult &r)
{
    std::printf("%-10s %.2f MB/s aggregate, sim %.3f ms, "
                "%llu events, %llu bytes routed, %.3f s host",
                label, r.aggregateMbS, double(r.simTicks) / tickMs,
                (unsigned long long)r.simEvents,
                (unsigned long long)r.bytesRouted, r.hostSec);
    if (r.windows > 0) {
        std::printf(", %llu windows, %llu sub-windows, %llu cross-posts",
                    (unsigned long long)r.windows,
                    (unsigned long long)r.subWindows,
                    (unsigned long long)r.crossPosts);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;

    workload::RingConfig cfg;
    std::string check_against;
    double tolerance = 0.20;
    double min_goodput = -1;
    double max_retransmit_ratio = -1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--nodes=", 0) == 0) {
            cfg.nodes =
                unsigned(std::strtoul(arg.c_str() + 8, nullptr, 10));
        } else if (arg.rfind("--pattern=", 0) == 0) {
            std::string p = arg.substr(10);
            if (p == "hotspot") {
                cfg.hotspot = true;
            } else if (p != "ring") {
                std::fprintf(stderr,
                             "--pattern: want ring or hotspot, got "
                             "'%s'\n",
                             p.c_str());
                return 2;
            }
        } else if (arg.rfind("--min-goodput=", 0) == 0) {
            min_goodput = std::strtod(arg.c_str() + 14, nullptr);
        } else if (arg.rfind("--max-retransmit-ratio=", 0) == 0) {
            max_retransmit_ratio =
                std::strtod(arg.c_str() + 23, nullptr);
        } else if (arg.rfind("--records=", 0) == 0) {
            cfg.records =
                unsigned(std::strtoul(arg.c_str() + 10, nullptr, 10));
        } else if (arg.rfind("--record-bytes=", 0) == 0) {
            // Parse wide and range-check before narrowing: a value
            // past 2^32 must be rejected, not silently truncated into
            // a small (and wrong) record size.
            char *end = nullptr;
            unsigned long long v =
                std::strtoull(arg.c_str() + 15, &end, 10);
            if (end == arg.c_str() + 15 || *end != '\0' || v == 0
                || v > 4080) {
                std::fprintf(stderr,
                             "--record-bytes: want 1..4080 (one "
                             "channel slot), got '%s'\n",
                             arg.c_str() + 15);
                return 2;
            }
            cfg.recordBytes = std::uint32_t(v);
        } else if (arg.rfind("--check-against=", 0) == 0) {
            check_against = arg.substr(16);
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            tolerance = std::strtod(arg.c_str() + 12, nullptr);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (cfg.nodes < 2 || cfg.records == 0 || cfg.recordBytes == 0
        || cfg.recordBytes > 4080) {
        std::fprintf(stderr,
                     "want --nodes>=2, --records>=1, and "
                     "0 < --record-bytes <= 4080\n");
        return 2;
    }

    const unsigned shards = resolveShards(opts, cfg.nodes);
    // Honest parallelism accounting: the affinity mask (what this
    // process may actually use), not the machine's thread count.
    const unsigned host_cores = sim::hostCoreCount();
    const unsigned host_hw_threads =
        std::max(1u, std::thread::hardware_concurrency());

    // Faults ride in from --faults= (parseRunOptions): the same spec
    // is applied to every timed run below, while the goodput
    // reference run further down explicitly clears it.
    cfg.faults = opts.faults;
    const bool faulty =
        opts.faults.specified && opts.faults.anyActive();

    // The wiring rides in from --topo= the same way (crossbar when
    // absent); the fault-free goodput reference keeps it too, so the
    // comparison isolates the faults, not the topology.
    cfg.topology = opts.topology;
    if (!cfg.topology.flat()
        && cfg.topology.gridNodes() != cfg.nodes) {
        std::fprintf(stderr,
                     "--topo=%s wires %u nodes but --nodes=%u\n",
                     cfg.topology.describe().c_str(),
                     cfg.topology.gridNodes(), cfg.nodes);
        return 2;
    }

    if ((min_goodput >= 0 || max_retransmit_ratio >= 0) && !faulty) {
        std::fprintf(stderr,
                     "--min-goodput/--max-retransmit-ratio need a "
                     "faulty run (--faults=...)\n");
        return 2;
    }

    bench::BenchReport report("multinode_traffic", opts);
    report.setParam("nodes", double(cfg.nodes));
    report.setParam("pattern", cfg.hotspot ? "hotspot" : "ring");
    report.setParam("records", double(cfg.records));
    report.setParam("record_bytes", double(cfg.recordBytes));
    report.setParam("topology", cfg.topology.describe());
    report.setParam("shards", double(shards));
    report.setParam("host_cores", double(host_cores));
    report.setParam("host_hw_threads", double(host_hw_threads));
    report.setParam("faulty", faulty ? 1 : 0);

    // --profile=FILE: time-budget profiler + Perfetto trace sink on
    // the measured (parallel) run. Observational only — the digests
    // below must not notice it.
    std::unique_ptr<sim::ShardProfiler> profiler;
    std::unique_ptr<sim::TraceSink> sink;
    if (!opts.profilePath.empty()) {
        profiler = std::make_unique<sim::ShardProfiler>(shards);
        sink = std::make_unique<sim::TraceSink>(shards);
        profiler->setTraceSink(sink.get());
        // Keep enough finished spans for useful sim-time tracks (the
        // default retention is sized for summaries, not traces).
        span::registry().setRetainLimit(1u << 16);
    }

    std::printf("# %u-node %s on %s, %u x %u B per link, user-level "
                "channels\n",
                cfg.nodes, cfg.hotspot ? "hotspot (all -> node 0)"
                                       : "ring",
                cfg.topology.describe().c_str(), cfg.records,
                cfg.recordBytes);
    if (faulty) {
        std::printf("# unreliable backplane: drop=%.3f corrupt=%.3f "
                    "dup=%.3f delay=%.3f (seed %llu)\n",
                    cfg.faults.dropProb, cfg.faults.corruptProb,
                    cfg.faults.dupProb, cfg.faults.delayProb,
                    (unsigned long long)cfg.faults.seed);
    }

    // Reference run on one shard: same engine, same canonical
    // ordering, no parallelism.
    workload::RingConfig seq = cfg;
    seq.shards = 1;
    workload::RingResult r1 = workload::runRing(seq);
    printRun("shards=1:", r1);

    workload::RingConfig par = cfg;
    par.shards = shards;
    par.profiler = profiler.get();
    par.onSystemDone = [](core::System &sys) {
        bench::captureSystem(sys);
    };
    if (sink) {
        // Only the measured run's spans and fault events belong
        // in the trace.
        span::registry().clear();
        sim::TraceSink::setGlobal(sink.get());
    }
    workload::RingResult result = workload::runRing(par);
    sim::TraceSink::setGlobal(nullptr);
    char label[32];
    std::snprintf(label, sizeof label, "shards=%u:", shards);
    printRun(label, result);

    const bool identical = r1.digest == result.digest
                           && r1.simTicks == result.simTicks
                           && r1.simEvents == result.simEvents
                           && r1.bytesRouted == result.bytesRouted
                           && r1.bytesDelivered == result.bytesDelivered
                           && r1.retransmits == result.retransmits
                           && r1.timeouts == result.timeouts
                           && r1.dataDigest == result.dataDigest;
    if (!identical) {
        std::fprintf(
            stderr,
            "DETERMINISM VIOLATION: shards=1 vs shards=%u "
            "diverged:\n"
            "  digest        %016llx vs %016llx\n"
            "  sim_ticks     %llu vs %llu\n"
            "  sim_events    %llu vs %llu\n"
            "  bytes_routed  %llu vs %llu\n"
            "  bytes_deliv   %llu vs %llu\n"
            "  retransmits   %llu vs %llu\n"
            "  timeouts      %llu vs %llu\n"
            "  data_digest   %016llx vs %016llx\n",
            shards, (unsigned long long)r1.digest,
            (unsigned long long)result.digest,
            (unsigned long long)r1.simTicks,
            (unsigned long long)result.simTicks,
            (unsigned long long)r1.simEvents,
            (unsigned long long)result.simEvents,
            (unsigned long long)r1.bytesRouted,
            (unsigned long long)result.bytesRouted,
            (unsigned long long)r1.bytesDelivered,
            (unsigned long long)result.bytesDelivered,
            (unsigned long long)r1.retransmits,
            (unsigned long long)result.retransmits,
            (unsigned long long)r1.timeouts,
            (unsigned long long)result.timeouts,
            (unsigned long long)r1.dataDigest,
            (unsigned long long)result.dataDigest);
        // Post-mortem: the graveyard still holds both runs' last
        // events even though their Systems are gone.
        sim::FlightRecorder::dumpAll(std::cerr);
        return 1;
    }
    std::printf("determinism: shards=1 and shards=%u bit-identical "
                "(digest %016llx)\n",
                shards, (unsigned long long)result.digest);

    const double speedup =
        result.hostSec > 0 ? r1.hostSec / result.hostSec : 0;
    std::printf("speedup: %.2fx on %u shards (%u host cores)\n",
                speedup, shards, host_cores);
    report.addMetric("wall_s_seq", r1.hostSec);
    report.addMetric("wall_s_shards", result.hostSec);
    report.addMetric("speedup", speedup);

    std::printf("aggregate: %.2f MB/s across %u concurrent links "
                "(backplane moved %llu bytes)\n",
                result.aggregateMbS, result.linksTotal,
                (unsigned long long)result.bytesRouted);
    if (cfg.hotspot) {
        std::printf("# All links share node 0's EISA drain: the "
                    "congestion window, not the wire, sets the "
                    "per-link rate.\n");
    } else {
        std::printf("# Each link runs near the single-link EISA-bound "
                    "rate: the backplane is not the bottleneck.\n");
    }

    if (faulty) {
        // Goodput under loss: re-run the identical configuration on a
        // healthy backplane and demand the faulty run delivered the
        // exact same bytes, exactly once.
        workload::RingConfig clean = cfg;
        clean.faults = net::FaultConfig{}; // runRing marks it specified
        clean.shards = shards;
        workload::RingResult ref = workload::runRing(clean);
        printRun("fault-free:", ref);

        bool recovered = result.dataDigest == ref.dataDigest
                         && result.messagesDelivered
                                == ref.messagesDelivered
                         && result.bytesDelivered == ref.bytesDelivered
                         && result.linksDone == result.linksTotal
                         && result.chunksUnacked == 0;
        if (!recovered) {
            std::fprintf(
                stderr,
                "LOSS RECOVERY FAILURE: faulty run did not deliver "
                "every record exactly once:\n"
                "  data_digest   %016llx vs fault-free %016llx\n"
                "  msgs_deliv    %llu vs %llu\n"
                "  bytes_deliv   %llu vs %llu\n"
                "  links_done    %u of %u\n"
                "  chunks_unacked %llu\n",
                (unsigned long long)result.dataDigest,
                (unsigned long long)ref.dataDigest,
                (unsigned long long)result.messagesDelivered,
                (unsigned long long)ref.messagesDelivered,
                (unsigned long long)result.bytesDelivered,
                (unsigned long long)ref.bytesDelivered,
                result.linksDone, result.linksTotal,
                (unsigned long long)result.chunksUnacked);
            for (const auto &f : result.lostFlows)
                std::fprintf(stderr, "  lost: %s\n", f.c_str());
            sim::FlightRecorder::dumpAll(std::cerr);
            return 1;
        }
        double ratio = ref.aggregateMbS > 0
                           ? result.aggregateMbS / ref.aggregateMbS
                           : 0;
        std::printf(
            "loss recovery: all records delivered exactly once "
            "(data digest %016llx)\n",
            (unsigned long long)result.dataDigest);
        // Every drop (data or ack), corruption, and down-window kill
        // costs at least one retransmission to repair; the ratio of
        // retransmits to those actual wire losses is the transport's
        // efficiency number (go-back-N sat near 8, selective repeat
        // should sit near 1).
        std::uint64_t losses = result.faults.dropped
                               + result.faults.corrupted
                               + result.faults.downDropped;
        double rtx_ratio =
            double(result.retransmits) / double(std::max<std::uint64_t>(losses, 1));
        std::printf(
            "goodput under loss: %.2f MB/s vs %.2f MB/s fault-free "
            "(%.1f%%), %llu retransmits (%llu fast) over %llu "
            "timeouts; links dropped %llu, corrupted %llu, duplicated "
            "%llu, delayed %llu -> retransmit ratio %.2fx\n",
            result.aggregateMbS, ref.aggregateMbS, ratio * 100,
            (unsigned long long)result.retransmits,
            (unsigned long long)result.fastRetransmits,
            (unsigned long long)result.timeouts,
            (unsigned long long)result.faults.dropped,
            (unsigned long long)result.faults.corrupted,
            (unsigned long long)result.faults.duplicated,
            (unsigned long long)result.faults.delayed, rtx_ratio);
        report.addMetric("goodput_mb_s", result.aggregateMbS);
        report.addMetric("goodput_fault_free_mb_s", ref.aggregateMbS);
        report.addMetric("goodput_ratio", ratio);
        report.addMetric("retransmits", double(result.retransmits));
        report.addMetric("fast_retransmits",
                         double(result.fastRetransmits));
        report.addMetric("retransmit_ratio", rtx_ratio);
        report.addMetric("timeouts", double(result.timeouts));
        report.addMetric("fault_dropped", double(result.faults.dropped));
        report.addMetric("fault_corrupted",
                         double(result.faults.corrupted));
        report.addMetric("fault_duplicated",
                         double(result.faults.duplicated));
        report.addMetric("fault_delayed", double(result.faults.delayed));
        report.addMetric("rx_dup_dropped", double(result.rxDupDropped));
        report.addMetric("rx_corrupt_dropped",
                         double(result.rxCorruptDropped));
        report.addMetric("rx_ooo_buffered",
                         double(result.rxOooBuffered));
        report.addMetric("ecn_marked", double(result.ecnMarked));
        report.addMetric("cwnd_cuts", double(result.cwndCuts));
        // Rescue resends acked inside a round trip of firing were
        // wasted wire copies: the chunk was late, not lost. Surfaced
        // so the netperf baselines pin the count; drop-only fault
        // mixes (no reordering) should hold it at zero.
        report.addMetric("rescue_spurious",
                         double(result.rescueSpurious));
        if (result.rescueSpurious > 0)
            std::printf("spurious rescues: %llu resends fired for "
                        "chunks that were late, not lost\n",
                        (unsigned long long)result.rescueSpurious);

        // Hard regression gates for the netperf check step.
        if (min_goodput >= 0 && ratio < min_goodput) {
            std::fprintf(stderr,
                         "NETPERF REGRESSION: goodput ratio %.3f is "
                         "below the %.3f floor\n",
                         ratio, min_goodput);
            return 1;
        }
        if (max_retransmit_ratio >= 0
            && rtx_ratio > max_retransmit_ratio) {
            std::fprintf(stderr,
                         "NETPERF REGRESSION: retransmit ratio %.2fx "
                         "exceeds the %.2fx ceiling (%llu retransmits "
                         "for %llu wire losses)\n",
                         rtx_ratio, max_retransmit_ratio,
                         (unsigned long long)result.retransmits,
                         (unsigned long long)losses);
            return 1;
        }
    }

    char digest_hex[20];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)result.digest);
    report.setParam("digest", std::string(digest_hex));
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)result.dataDigest);
    report.setParam("data_digest", std::string(digest_hex));
    report.addMetric("aggregate_mb_s", result.aggregateMbS);
    report.addMetric("sim_ticks", double(result.simTicks));
    report.addMetric("sim_events", double(result.simEvents));
    report.addMetric("bytes_routed", double(result.bytesRouted));
    report.addMetric("bytes_delivered", double(result.bytesDelivered));
    report.addMetric("messages_delivered",
                     double(result.messagesDelivered));
    report.addMetric("events_per_sec",
                     result.hostSec > 0
                         ? double(result.simEvents) / result.hostSec
                         : 0);
    report.addMetric("identical", identical ? 1 : 0);

    if (profiler) {
        profiler->writeTable(std::cout);
        const double acct = profiler->accountedFraction();
        report.addMetric("profile_accounted_frac", acct);
        report.attachProfiler(profiler.get());
        if (acct < 0.95) {
            std::fprintf(stderr,
                         "PROFILE WARNING: buckets account for only "
                         "%.1f%% of parallel wall time\n",
                         acct * 100);
        }
        sink->addSpanTracks();
        if (!sink->writeFile(opts.profilePath))
            return 3;
        std::printf(
            "profile: %llu trace events -> %s (load in "
            "ui.perfetto.dev)\n",
            (unsigned long long)sink->eventCount(),
            opts.profilePath.c_str());
        if (sink->droppedSlices() > 0) {
            std::fprintf(stderr,
                         "PROFILE WARNING: %llu wall slices dropped "
                         "(per-shard cap)\n",
                         (unsigned long long)sink->droppedSlices());
        }
    }
    report.write();

    if (!check_against.empty()) {
        std::ifstream in(check_against);
        if (!in) {
            std::fprintf(stderr,
                         "MULTINODE GATE ERROR: cannot read baseline "
                         "%s\n",
                         check_against.c_str());
            return 3;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();

        // Simulated-time outputs are deterministic: they must match
        // the committed baseline exactly, not within a tolerance.
        struct ExactKey
        {
            const char *key;
            double have;
        } exact[] = {
            {"sim_ticks", double(result.simTicks)},
            {"sim_events", double(result.simEvents)},
            {"bytes_routed", double(result.bytesRouted)},
            {"bytes_delivered", double(result.bytesDelivered)},
            {"messages_delivered", double(result.messagesDelivered)},
        };
        for (const auto &e : exact) {
            double base = 0;
            if (!scanJsonNumber(text, e.key, base)) {
                std::fprintf(stderr,
                             "MULTINODE GATE ERROR: no %s in %s\n",
                             e.key, check_against.c_str());
                return 3;
            }
            if (base != e.have) {
                std::fprintf(stderr,
                             "MULTINODE REGRESSION: %s = %.0f differs "
                             "from committed baseline %.0f (%s)\n",
                             e.key, e.have, base,
                             check_against.c_str());
                return 1;
            }
        }
        std::printf("multinode gate: simulated-time metrics match the "
                    "committed baseline exactly\n");

        // The wall-clock speedup floor only means something with real
        // parallelism underneath (the determinism check above runs
        // everywhere regardless).
        if (shards >= 2 && host_cores >= 4) {
            double floor = 2.0 * (1.0 - tolerance);
            std::printf("multinode gate: speedup %.2fx vs floor "
                        "%.2fx on %u cores\n",
                        speedup, floor, host_cores);
            if (speedup < floor) {
                std::fprintf(stderr,
                             "MULTINODE REGRESSION: %.2fx speedup on "
                             "%u shards is below the %.2fx floor\n",
                             speedup, shards, floor);
                return 1;
            }
        } else if (shards >= 2) {
            // Not silent: a skipped floor means this gate proved
            // nothing about parallel performance.
            std::fprintf(stderr,
                         "MULTINODE GATE WARNING: speedup floor "
                         "SKIPPED — only %u host core(s) available "
                         "(need >= 4); parallel performance was NOT "
                         "verified\n",
                         host_cores);
        }
        double base_cores = 0;
        if (scanJsonNumber(text, "host_cores", base_cores)
            && base_cores < 4) {
            std::fprintf(stderr,
                         "MULTINODE GATE WARNING: committed baseline "
                         "was recorded on %.0f core(s); its wall-clock "
                         "numbers carry no speedup signal\n",
                         base_cores);
        }
    }
    return 0;
}
