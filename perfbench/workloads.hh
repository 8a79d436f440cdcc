/**
 * @file
 * The benchmark's three workloads, driven through the simulator's
 * public API only (core::System, os::Kernel::spawn, the msg channels,
 * core::udmaTransfer, the component statistics accessors and
 * ShardedEngine::setProfiler). Each call the benchmark makes into a
 * layer is timed from outside; nothing under src/ is instrumented.
 *
 * Host time and simulated time are kept apart by name: every metric
 * in IterationResult::simLayer (and the sim_ end-to-end figures) is a
 * pure function of the workload, its size and the seed; host figures
 * are wall-clock and vary run to run.
 */

#ifndef SHRIMP_PERFBENCH_WORKLOADS_HH
#define SHRIMP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace perfbench
{

using shrimp::Tick;

/** A named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** A host-time span around one call into a layer (traced runs). */
struct HostSpan
{
    std::string name;
    std::uint64_t startNs = 0; ///< since process start
    std::uint64_t endNs = 0;
};

/**
 * A simulated-time span around one operation (traced runs). The two
 * halves of one record (send, receive) share its id.
 */
struct SimSpan
{
    const char *name = nullptr;
    std::uint64_t id = 0;
    Tick start = 0;
    Tick end = 0;
};

/** How to run one iteration. */
struct IterationControl
{
    std::string workload;      ///< ring64 | mesh16-lossy | multiprog-paging
    bool tiny = false;         ///< smoke-test size
    std::uint64_t seed = 1;
    bool trace = false;        ///< record spans, attach the profiler
    bool setupOnly = false;    ///< stop after runSetup: a set-up sample
    unsigned shardsOverride = 0; ///< 0: the workload's own shard count
};

/** Everything one iteration (set-up + timed data phase) produced. */
struct IterationResult
{
    // Host time.
    double buildS = 0;      ///< System construction
    double setupPhaseS = 0; ///< spawns + runSetup rendezvous
    double wallS = 0;       ///< runUntilAllDone + drain
    std::uint64_t heapAllocs = 0; ///< operator new calls, data phase

    // Outcome.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Tick> opLatency; ///< one sample per completed operation
    std::vector<Tick> sendWait;  ///< sim time waiting for a slot + send()
    double simMbS = 0;
    std::uint64_t dataEvents = 0; ///< events executed in the data phase
    /** FNV-1a over simulated time, event count, every simulated
     *  counter except the engine's window shape, and the latency
     *  samples: identical for any shard count and with tracing. */
    std::uint64_t digest = 0;
    std::uint64_t simEvents = 0;
    double simSeconds = 0; ///< simulated time at the end of the run

    std::vector<Metric> simLayer;  ///< deterministic per-layer figures
    std::vector<Metric> hostLayer; ///< wall-clock per-layer figures

    // Traced runs only.
    std::vector<HostSpan> hostSpans;
    std::vector<std::vector<SimSpan>> simSpans; ///< one buffer per lane
    std::vector<std::string> laneNames;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The workload's shard count at full size. */
unsigned workloadShards(const std::string &workload);

/** Build, set up, run and verify one iteration. Throws on a
 *  simulator failure (a process body that died). */
IterationResult runIteration(const IterationControl &ctl);

/** Nearest-rank percentile @p pct (0..100] of raw samples (0 if none). */
Tick percentile(std::vector<Tick> samples, double pct);

/** Nanoseconds of steady-clock time since the process started. */
std::uint64_t hostNowNs();

} // namespace perfbench

#endif // SHRIMP_PERFBENCH_WORKLOADS_HH
