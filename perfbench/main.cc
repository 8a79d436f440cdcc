/**
 * @file
 * The repository benchmark's command line:
 *
 *   perfbench --workload <ring64|mesh16-lossy|multiprog-paging>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--size full|tiny] [--trace-out <file>]
 *
 * Untraced (--trace 0): repeats whole iterations (set-up + timed data
 * phase) until --seconds have passed, checks that every iteration
 * produced the same simulated result, and reports the end-to-end
 * metrics, host times as medians over the iterations scaled to a fixed
 * host speed measured by a reference loop timed after each iteration.
 *
 * Traced (--trace 1): one untraced iteration, one traced iteration
 * (host spans, per-operation sim-time spans, the shard profiler) and,
 * for a sharded workload, a shards=1 reference. Reports the per-layer
 * metrics, the tracing overhead, and fails unless every simulated
 * metric and the digest match between the runs. The spans go to
 * --trace-out as a Chrome/Perfetto trace.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit code is 1 when any operation failed or a check did not hold.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool tiny = false;
    std::string traceOut;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <ring64|mesh16-lossy|"
                 "multiprog-paging> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size full|tiny] [--trace-out <file>]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    if (!*s || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0';
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of raw samples, in simulated us. */
double
percentileUs(const std::vector<Tick> &v, double pct)
{
    return double(percentile(v, pct)) / double(shrimp::tickUs);
}

/** Clock ticks the hypervisor stole from this machine's CPUs so far
 *  (0 if unknown): noise in every host figure, printed beside them. */
std::uint64_t
stolenJiffies()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7]);
    std::fclose(f);
    return got == 8 ? v[7] : 0;
}

/**
 * A fixed piece of host work, shaped like a discrete-event loop but
 * sharing no code with the simulator: a binary heap of 32 Ki pending
 * events, each popped event dispatched through a table of handlers
 * that update a 512 KiB state array and schedule the next event. It
 * allocates nothing, so the simulator's heap cannot change its speed.
 *
 * On a shared host the speed of this kind of code drifts by a third
 * over minutes, with no steal time: the neighbours contend for the
 * caches and cores underneath. Timed after every iteration, this loop
 * slows with the host; the code under test slows only the simulator.
 * Host times scaled by (nominalS / measured time of this loop) are
 * what they would have been at a fixed host speed.
 */
class SpeedReference
{
  public:
    /** Seconds one pass takes at the reference host speed (about what
     *  it takes on the 4-vCPU virtual machine the benchmark was tuned
     *  on). */
    static constexpr double nominalS = 0.020;

    SpeedReference() : state_(std::size_t(1) << 16) {}

    /** Host seconds one pass of the fixed work takes now. */
    double
    measure()
    {
        queue_.clear();
        for (std::uint32_t i = 0; i < pending; ++i)
            queue_.push_back(Event{i, i});
        const std::uint64_t t0 = hostNowNs();
        for (int step = 0; step < steps; ++step) {
            std::pop_heap(queue_.begin(), queue_.end(), later);
            Event &e = queue_.back();
            const std::uint64_t v = handlers[e.node & 3](*this, e);
            e.when += 1 + (v & 0x3ff);
            e.node = std::uint32_t(v >> 20) & mask;
            std::push_heap(queue_.begin(), queue_.end(), later);
        }
        const std::uint64_t t1 = hostNowNs();
        sink_ += queue_.front().when;
        return double(t1 - t0) * 1e-9;
    }

    /** Folded results, printed so the work cannot be optimised away. */
    std::uint64_t sink() const { return sink_; }

  private:
    struct Event
    {
        std::uint64_t when;
        std::uint32_t node;
    };
    using Handler = std::uint64_t (*)(SpeedReference &, const Event &);

    static constexpr std::uint32_t pending = 1u << 15;
    static constexpr std::uint32_t mask = (1u << 16) - 1;
    static constexpr int steps = 1 << 17;

    static bool
    later(const Event &a, const Event &b)
    {
        return a.when > b.when || (a.when == b.when && a.node > b.node);
    }

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 31;
        x *= 0x9E3779B97F4A7C15ull;
        return x ^ (x >> 29);
    }

    static std::uint64_t
    add(SpeedReference &r, const Event &e)
    {
        return r.state_[e.node] += mix(e.when);
    }

    static std::uint64_t
    swap(SpeedReference &r, const Event &e)
    {
        std::uint64_t &a = r.state_[e.node];
        std::uint64_t &b = r.state_[(e.node * 7 + 1) & mask];
        std::swap(a, b);
        return mix(a ^ e.when);
    }

    static std::uint64_t
    scan(SpeedReference &r, const Event &e)
    {
        std::uint64_t acc = e.when;
        for (std::uint32_t i = 0; i < 8; ++i)
            acc += r.state_[(e.node + i * 64) & mask];
        return mix(acc);
    }

    static std::uint64_t
    branch(SpeedReference &r, const Event &e)
    {
        const std::uint64_t v = r.state_[e.node];
        return mix(v & 1 ? v + e.when : v % 13 == 0 ? ~e.when : v ^ 0x5bd1e995);
    }

    static constexpr Handler handlers[4] = {add, swap, scan, branch};

    std::vector<std::uint64_t> state_;
    std::vector<Event> queue_;
    std::uint64_t sink_ = 0;
};

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** One report line; a percentile carries its sample count. */
void
printMetric(const Metric &m, long long samples = -1)
{
    std::printf("  %-36s %.6g %s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (samples >= 0)
        std::printf("  (n=%lld)", samples);
    std::printf("\n");
}

void
printResultLine(bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Do two iterations agree on every simulated figure? */
bool
sameSimulation(const IterationResult &a, const IterationResult &b)
{
    if (a.digest != b.digest || a.opLatency != b.opLatency
        || a.simLayer.size() != b.simLayer.size()
        || a.attempted != b.attempted || a.failed != b.failed)
        return false;
    for (std::size_t i = 0; i < a.simLayer.size(); ++i) {
        if (a.simLayer[i].name != b.simLayer[i].name
            || a.simLayer[i].value != b.simLayer[i].value)
            return false;
    }
    return true;
}

void
printOutcome(const IterationResult &r)
{
    const double ratio =
        r.attempted ? double(r.failed) / double(r.attempted) : 1.0;
    std::printf("op_fail_ratio = %.6g (%" PRIu64 " failed of %" PRIu64
                " attempted)\n",
                ratio, r.failed, r.attempted);
    std::printf("simulated time: %.6f s\n", r.simSeconds);
    std::printf("identity: sim_events=%" PRIu64 " digest=%016" PRIx64
                "\n",
                r.simEvents, r.digest);
}

/** Sim spans written per lane: bounds the trace file (the paging
 *  workload records 50,000 per process) while keeping whole records. */
constexpr std::size_t spansPerLane = 2048;

/** Write the traced iteration's spans as a Chrome/Perfetto trace. */
bool
writeTrace(const std::string &path, const Options &opt,
           const IterationResult &traced, double overhead)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\"metadata\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"digest\": \"%016" PRIx64
                 "\", \"trace_overhead\": %.6g},\n"
                 "\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n",
                 opt.workload.c_str(), opt.seed, traced.digest, overhead);
    std::fprintf(f, "{\"ph\": \"M\", \"name\": \"process_name\", "
                    "\"pid\": 0, \"args\": {\"name\": \"host (wall)\"}},\n"
                    "{\"ph\": \"M\", \"name\": \"process_name\", "
                    "\"pid\": 1, \"args\": {\"name\": \"simulated\"}}");
    for (const HostSpan &s : traced.hostSpans) {
        std::fprintf(f,
                     ",\n{\"ph\": \"X\", \"cat\": \"host\", \"name\": "
                     "\"%s\", \"pid\": 0, \"tid\": 0, \"ts\": %.3f, "
                     "\"dur\": %.3f}",
                     s.name.c_str(), double(s.startNs) / 1e3,
                     double(s.endNs - s.startNs) / 1e3);
    }
    for (std::size_t lane = 0; lane < traced.simSpans.size(); ++lane) {
        std::fprintf(f,
                     ",\n{\"ph\": \"M\", \"name\": \"thread_name\", "
                     "\"pid\": 1, \"tid\": %zu, \"args\": {\"name\": "
                     "\"%s\"}}",
                     lane, traced.laneNames[lane].c_str());
        const auto &spans = traced.simSpans[lane];
        for (std::size_t i = 0; i < std::min(spans.size(), spansPerLane);
             ++i) {
            const SimSpan &s = spans[i];
            std::fprintf(f,
                         ",\n{\"ph\": \"X\", \"cat\": \"sim\", \"name\": "
                         "\"%s\", \"pid\": 1, \"tid\": %zu, \"ts\": "
                         "%.6f, \"dur\": %.6f, \"args\": {\"op\": "
                         "\"%016" PRIx64 "\", \"parent\": "
                         "\"core.runUntilAllDone\"}}",
                         s.name, lane,
                         double(s.start) / double(shrimp::tickUs),
                         double(s.end - s.start) / double(shrimp::tickUs),
                         s.id);
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

int
runUntraced(const Options &opt)
{
    IterationControl ctl;
    ctl.workload = opt.workload;
    ctl.tiny = opt.tiny;
    ctl.seed = opt.seed;

    // Whole iterations until the time is used up; at least three, so
    // the host figures are medians.
    std::vector<IterationResult> runs;
    SpeedReference ref;
    std::vector<double> refs;
    const std::uint64_t stolen0 = stolenJiffies();
    const std::uint64_t t0 = hostNowNs();
    // Peak RSS of one workload run: later iterations only add the
    // allocator's fragmentation from repeating it.
    double peak_rss = 0;
    while (runs.size() < 3
           || double(hostNowNs() - t0) * 1e-9 < opt.seconds) {
        runs.push_back(runIteration(ctl));
        if (runs.size() == 1)
            peak_rss = peakRssMiB();
        refs.push_back(ref.measure());
    }

    const IterationResult &first = runs.front();
    bool deterministic = true;
    for (const IterationResult &r : runs)
        deterministic = deterministic && sameSimulation(first, r);

    std::vector<double> wall, setup, allocs;
    for (const IterationResult &r : runs) {
        wall.push_back(r.wallS);
        setup.push_back(r.buildS + r.setupPhaseS);
        allocs.push_back(double(r.heapAllocs));
    }
    // Set-up is short next to the data phase, so it gets extra
    // set-up-only samples: up to 200 in all, within 5% more time.
    ctl.setupOnly = true;
    const std::uint64_t t1 = hostNowNs();
    while (setup.size() < 200
           && double(hostNowNs() - t1) * 1e-9 < 0.05 * opt.seconds) {
        const IterationResult r = runIteration(ctl);
        setup.push_back(r.buildS + r.setupPhaseS);
    }

    const std::size_t n = first.opLatency.size();
    const std::uint64_t attempted = first.attempted * runs.size();
    std::uint64_t failed = 0;
    for (const IterationResult &r : runs)
        failed += r.failed;
    const double ok_ratio =
        attempted ? 1.0 - double(failed) / double(attempted) : 0.0;

    // Host times at the reference speed (see SpeedReference).
    const double speed = SpeedReference::nominalS / median(refs);
    const std::vector<Metric> e2e = {
        {"wall_s", median(wall) * speed, "s"},
        {"setup_s", median(setup) * speed, "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"heap_allocs", median(allocs), "count"},
        {"sim_mb_s", first.simMbS, "MB/s"},
        {"sim_op_us_p50", percentileUs(first.opLatency, 50), "us"},
        {"sim_op_us_p99", percentileUs(first.opLatency, 99), "us"},
        {"op_ok_ratio", ok_ratio, "ratio"},
    };

    std::printf("# %s seed %" PRIu64 "%s: %zu iterations in %.1f s\n",
                opt.workload.c_str(), opt.seed, opt.tiny ? " (tiny)" : "",
                runs.size(), double(hostNowNs() - t0) * 1e-9);
    std::printf("end-to-end (host metrics are medians over iterations, "
                "setup_s over %zu set-ups; wall_s and setup_s at the "
                "reference host speed):\n",
                setup.size());
    for (const Metric &m : e2e) {
        const bool pct = m.name.rfind("sim_op_us_p", 0) == 0;
        printMetric(m, pct ? (long long)n : -1);
    }
    std::printf("host speed: reference loop %.5f s (median; %.5f s at the "
                "reference speed), scale %.4f; measured wall_s %.4f s, "
                "setup_s %.6f s\n",
                median(refs), SpeedReference::nominalS, speed, median(wall),
                median(setup));
    std::printf("host steal time during the run: %.2f CPU-s\n",
                double(stolenJiffies() - stolen0)
                    / double(sysconf(_SC_CLK_TCK)));
    std::printf("measured wall_s per iteration:");
    for (double w : wall)
        std::printf(" %.4f", w);
    std::printf("\nreference loop s after each iteration:");
    for (double r : refs)
        std::printf(" %.5f", r);
    std::printf(" (sink %" PRIu64 ")\n", ref.sink() & 0xff);
    printOutcome(first);
    std::printf("determinism: %s across %zu iterations\n",
                deterministic ? "identical" : "DIVERGED", runs.size());

    const bool correct = deterministic && failed == 0;
    printResultLine(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
}

int
runTraced(const Options &opt)
{
    IterationControl ctl;
    ctl.workload = opt.workload;
    ctl.tiny = opt.tiny;
    ctl.seed = opt.seed;

    const IterationResult plain = runIteration(ctl);
    ctl.trace = true;
    const IterationResult traced = runIteration(ctl);
    ctl.trace = false;

    const bool identical = sameSimulation(plain, traced);
    const double overhead =
        plain.wallS > 0 ? traced.wallS / plain.wallS : 0.0;

    // A sharded workload also runs on one shard: the speedup reference,
    // and a check that sharding changes no simulated figure.
    double speedup = 1.0;
    bool shard_invariant = true;
    if (workloadShards(opt.workload) > 1) {
        ctl.shardsOverride = 1;
        const IterationResult seq = runIteration(ctl);
        speedup = plain.wallS > 0 ? seq.wallS / plain.wallS : 0.0;
        shard_invariant =
            seq.digest == plain.digest && seq.opLatency == plain.opLatency;
    }

    std::vector<Metric> layers = plain.simLayer;
    for (const Metric &m : plain.hostLayer) {
        if (m.name.find("_frac") == std::string::npos)
            layers.push_back(m);
    }
    for (const Metric &m : traced.hostLayer) {
        if (m.name.find("_frac") != std::string::npos)
            layers.push_back(m);
    }
    layers.push_back({"sim.speedup_vs_seq", speedup, "ratio"});
    layers.push_back({"trace.overhead", overhead, "ratio"});

    std::printf("# %s seed %" PRIu64 "%s: traced run\n",
                opt.workload.c_str(), opt.seed, opt.tiny ? " (tiny)" : "");
    std::printf("per-layer:\n");
    for (const Metric &m : layers) {
        const bool pct = m.name.rfind("msg.send_wait_us_p", 0) == 0;
        printMetric(m, pct ? (long long)plain.sendWait.size() : -1);
    }
    std::printf("end-to-end of the untraced iteration:\n");
    printMetric({"sim_op_us_p50", percentileUs(plain.opLatency, 50), "us"},
                (long long)plain.opLatency.size());
    printMetric({"sim_op_us_p99", percentileUs(plain.opLatency, 99), "us"},
                (long long)plain.opLatency.size());
    printOutcome(plain);
    std::printf("tracing: %zu host spans, %zu sim spans; overhead %.3fx "
                "wall (traced %.3f s / untraced %.3f s)\n",
                traced.hostSpans.size(),
                [&] {
                    std::size_t k = 0;
                    for (const auto &v : traced.simSpans)
                        k += v.size();
                    return k;
                }(),
                overhead, traced.wallS, plain.wallS);
    std::printf("traced vs untraced: %s\n",
                identical ? "identical simulated metrics and digest"
                          : "SIMULATED METRICS DIFFER");
    if (workloadShards(opt.workload) > 1) {
        std::printf("shards=1 reference: %s, speedup %.3fx\n",
                    shard_invariant ? "identical digest" : "DIGEST DIFFERS",
                    speedup);
    }

    bool wrote = true;
    if (!opt.traceOut.empty()) {
        wrote = writeTrace(opt.traceOut, opt, traced, overhead);
        std::printf("trace: %s %s\n", opt.traceOut.c_str(),
                    wrote ? "written" : "NOT WRITTEN");
    }

    const std::uint64_t attempted = plain.attempted + traced.attempted;
    const std::uint64_t failed = plain.failed + traced.failed;
    const bool correct =
        identical && shard_invariant && wrote && failed == 0;
    printResultLine(correct, attempted, failed, layers);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Keep freed memory in the process, so repeated iterations reuse
    // pages instead of faulting fresh ones in: with glibc's adaptive
    // thresholds, whether a set-up got recycled or fresh pages varied
    // from run to run and made set-up times bimodal.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    // Timed runs never audit or trace inside the simulator, whatever
    // the environment says.
    for (const char *var :
         {"SHRIMP_AUDIT", "SHRIMP_TRACE", "SHRIMP_FAULTS", "SHRIMP_TOPO"})
        unsetenv(var);

    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        std::uint64_t u = 0;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            if (!parseUnsigned(val, opt.seed))
                return usage("--seed wants a non-negative integer");
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(val, u) || u == 0 || u > 3600)
                return usage("--seconds wants an integer in 1..3600");
            opt.seconds = double(u);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                return usage("--trace wants 0 or 1");
            opt.trace = val[0] == '1';
            have_trace = true;
        } else if (arg == "--size") {
            if (std::strcmp(val, "full") && std::strcmp(val, "tiny"))
                return usage("--size wants full or tiny");
            opt.tiny = std::strcmp(val, "tiny") == 0;
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    try {
        return opt.trace ? runTraced(opt) : runUntraced(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: simulation failed: %s\n",
                     e.what());
        return 1;
    }
}
