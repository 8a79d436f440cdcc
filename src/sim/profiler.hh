/**
 * @file
 * Wall-clock time-budget profiler for the sharded engine.
 *
 * Answers the question the ROADMAP's scaling work is blocked on: where
 * does parallel wall time actually go? Each worker's window lifecycle
 * is split into six buckets —
 *
 *   execute       running a window's events (>=1 event fired)
 *   idle          an execute phase that fired zero events on this
 *                 shard (the wall cost of conservative window skew)
 *   barrier_plan  the round boundary: the worker's per-node hook and
 *                 stop predicate, publishing its promise line,
 *                 waiting for its peers' lines and planning its own
 *                 window. The engine has one boundary per round, so
 *                 barrier_sync is retained only for schema stability
 *                 and reads ~0.
 *   barrier_sync  legacy post-execute sync barrier (see above)
 *   drain         draining cross-shard mailboxes into the queues
 *   spawn         worker start-up and join around each run: from the
 *                 engine's entry to the worker's first clock read
 *                 (inbox drain, thread creation and scheduling), and
 *                 from its last clock read to the engine's exit
 *
 * — accumulated lock-free in one cache-line-aligned slot per worker
 * (worker == shard in the current engine). The engine notes phase
 * boundaries with a single chained clock read per transition, so the
 * buckets tile the worker's wall time gap-free; the accounted
 * fraction (bucket sum / shards x run wall) is itself a health check
 * the bench asserts at >= 95%.
 *
 * Occupancy counters ride along: events executed per window (an idle
 * window is one that executed none), messages drained per round and
 * the max drain batch, skipped-window runs noted by worker 0's plan
 * when consecutive windows are not adjacent in sim time, a log2 histogram
 * of planned per-shard window widths (bucket 0 = rounds where the
 * shard had nothing to run — the direct readout of how much the
 * promise-based horizons widen windows beyond the static lookahead),
 * and the engine's round-boundary waits (resolved by spinning vs.
 * futex sleeps). Every note comes from the worker that owns the slot.
 *
 * The profiler only observes: attaching it changes no sim-visible
 * state, so digests and sim-time metrics are identical with and
 * without --profile (the overhead gate in run_checks.sh bounds the
 * wall-clock cost instead).
 *
 * When a TraceSink is attached, every noted phase also becomes a
 * wall-clock slice on the worker's Perfetto track.
 */

#ifndef SHRIMP_SIM_PROFILER_HH
#define SHRIMP_SIM_PROFILER_HH

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

namespace shrimp::sim
{

class JsonWriter;
class TraceSink;

class ShardProfiler
{
  public:
    /** Per-worker bucket totals (nanoseconds) and occupancy. */
    struct Slot
    {
        std::uint64_t executeNs = 0;
        std::uint64_t idleNs = 0;
        std::uint64_t planNs = 0;
        std::uint64_t syncNs = 0;
        std::uint64_t drainNs = 0;
        std::uint64_t spawnNs = 0;
        std::uint64_t windows = 0;      ///< execute phases entered
        std::uint64_t idleWindows = 0;  ///< ... that fired no events
        std::uint64_t events = 0;       ///< events fired in windows
        std::uint64_t drained = 0;      ///< cross-shard msgs drained
        std::uint64_t maxDrainBatch = 0;

        std::uint64_t
        accountedNs() const
        {
            return executeNs + idleNs + planNs + syncNs + drainNs
                   + spawnNs;
        }
    };

    explicit ShardProfiler(unsigned shards);

    ShardProfiler(const ShardProfiler &) = delete;
    ShardProfiler &operator=(const ShardProfiler &) = delete;

    unsigned shards() const { return unsigned(slots_.size()); }

    /** Nanoseconds since beginRun (monotonic). */
    std::uint64_t
    nowNs() const
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - origin_)
                .count());
    }

    /**
     * Start the measured region: zero the slots and the clock. The
     * engine only records while running, so setup phases outside
     * beginRun/endRun never pollute the budget.
     */
    void beginRun();

    /** End the measured region, fixing the run's wall time. */
    void endRun();

    bool running() const { return running_; }

    /** Run wall time (beginRun -> endRun), nanoseconds. */
    std::uint64_t wallNs() const { return wallNs_; }

    // ------------------------------------------ engine note points
    // All notes take profiler-relative timestamps from nowNs() so the
    // caller can chain one clock read across phase boundaries. Each
    // slot is written only by its own worker thread; the joins at the
    // end of runWindows publish the slots to the reader.
    void notePlan(unsigned worker, std::uint64_t t0, std::uint64_t t1);
    void noteExecute(unsigned worker, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t events_fired);
    void noteSync(unsigned worker, std::uint64_t t0, std::uint64_t t1);
    void noteDrain(unsigned worker, std::uint64_t t0, std::uint64_t t1,
                   std::uint64_t drained);
    /** Worker start-up or join (see the spawn bucket); the join
     *  interval is noted by the engine's thread after the join. */
    void noteSpawn(unsigned worker, std::uint64_t t0, std::uint64_t t1);

    /** Worker @p worker's plan hopped over simulated time: the next
     *  event lies beyond the previous round's widest window end + 1
     *  (every shard plans the same rounds; the engine notes this from
     *  worker 0 only). */
    void
    noteWindowSkip(unsigned worker)
    {
        ++slots_[worker].skippedRuns;
    }

    /** Log2 window-width histogram buckets: [0] counts rounds where a
     *  shard had nothing to run; bucket k >= 1 counts planned widths
     *  in [2^(k-1), 2^k) ticks; the last bucket absorbs the rest. */
    static constexpr unsigned widthBuckets = 65;

    /** Worker @p worker planned a window of @p width ticks for its
     *  shard (0 = the shard was idle this round). */
    void
    noteWindowWidth(unsigned worker, Tick width)
    {
        const unsigned b =
            width == 0
                ? 0u
                : std::min<unsigned>(widthBuckets - 1,
                                     std::bit_width(std::uint64_t(width)));
        ++slots_[worker].widthHist[b];
    }

    /** Accumulate the engine's barrier outcomes for a run (called
     *  once per runWindows, after the joins). */
    void
    addBarrierWaits(std::uint64_t spin_wakes, std::uint64_t futex_sleeps)
    {
        barSpinWakes_.fetch_add(spin_wakes, std::memory_order_relaxed);
        barSleeps_.fetch_add(futex_sleeps, std::memory_order_relaxed);
    }

    /** Mirror every noted phase into @p sink as wall slices. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    // ------------------------------------------------------ results
    const Slot &slot(unsigned worker) const { return slots_[worker].s; }

    /** Sum of all workers' buckets and occupancy counters. */
    Slot totals() const;

    std::uint64_t skippedWindowRuns() const;

    /** Count in window-width histogram bucket @p i (see widthBuckets),
     *  summed over workers. */
    std::uint64_t windowWidthBucket(unsigned i) const;

    /** Barrier waits resolved while spinning, this run. */
    std::uint64_t
    barrierSpinWakes() const
    {
        return barSpinWakes_.load(std::memory_order_relaxed);
    }

    /** Barrier waits that fell back to a futex sleep, this run. */
    std::uint64_t
    barrierFutexSleeps() const
    {
        return barSleeps_.load(std::memory_order_relaxed);
    }

    /**
     * Fraction of total parallel wall time (shards x wallNs) the six
     * buckets account for; the profiler's own self-check. 0 when the
     * run had no measured wall time.
     */
    double accountedFraction() const;

    /** Human-readable per-shard time-budget table. */
    void writeTable(std::ostream &os) const;

    /** The bench-JSON `profile` block (one complete JSON object). */
    void dumpJson(JsonWriter &w) const;

  private:
    /** Cache-line isolation: each worker owns one padded slot. */
    struct alignas(64) PaddedSlot
    {
        Slot s;
        std::uint64_t skippedRuns = 0;
        std::array<std::uint64_t, widthBuckets> widthHist{};
    };

    std::vector<PaddedSlot> slots_;
    std::chrono::steady_clock::time_point origin_;
    std::uint64_t wallNs_ = 0;
    bool running_ = false;
    std::atomic<std::uint64_t> barSpinWakes_{0};
    std::atomic<std::uint64_t> barSleeps_{0};
    TraceSink *sink_ = nullptr;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_PROFILER_HH
