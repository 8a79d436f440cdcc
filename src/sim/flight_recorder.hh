/**
 * @file
 * A bounded flight recorder of recently fired sim events.
 *
 * Every EventQueue owns one FlightRecorder; fire() records (tick,
 * label, priority) into a fixed 128-entry ring — four plain stores and
 * one relaxed atomic load per event, cheap enough to stay on by
 * default. When an invariant gate trips (panic/assert, audit
 * violation, model-check counterexample, bench digest mismatch), the
 * process can dump every recorder's recent history and turn a bare
 * exit code into a post-mortem: the last ~128 events each node
 * executed, in order.
 *
 * Recorders register themselves in a process-global registry. Because
 * post-mortems often outlive the System that produced them (the bench
 * detects a digest mismatch after its runRing helper has destroyed
 * the System), a destroyed recorder snapshots its ring into a bounded
 * graveyard (newest 64 snapshots) that dumpAll() also prints.
 *
 * Thread-safety: record() is called only by the shard thread that owns
 * the queue. dumpAll() takes the registry mutex, but reading a live
 * ring while its owner is still executing is intentionally racy — the
 * dump paths run on failure, when the interesting threads have either
 * thrown or joined, and a best-effort tail beats no tail. dumpOnPanic
 * defaults to off so tests that assert on panics stay quiet; the CLI
 * front-ends opt in.
 */

#ifndef SHRIMP_SIM_FLIGHT_RECORDER_HH
#define SHRIMP_SIM_FLIGHT_RECORDER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace shrimp::sim
{

class FlightRecorder
{
  public:
    static constexpr std::uint64_t capacity = 128;

    FlightRecorder();
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Identifies this recorder in dumps (e.g. "node3"). */
    void setLabel(std::string label);
    const std::string &label() const { return label_; }

    /** Record one fired event. Owner-thread only; ~4 stores. */
    void
    record(Tick when, const char *name, std::int32_t prio)
    {
        if (!enabled_.load(std::memory_order_relaxed))
            return;
        Entry &e = ring_[head_ % capacity];
        e.when = when;
        e.name = name;
        e.prio = prio;
        ++head_;
    }

    /**
     * Record @p n fired events of one label and priority, the first
     * at @p first and then one every @p period ticks: the ring ends
     * as n record() calls would leave it, but only the events that
     * stay in it are written.
     */
    void
    recordEvery(Tick first, Tick period, std::uint64_t n,
                const char *name, std::int32_t prio)
    {
        if (!enabled_.load(std::memory_order_relaxed))
            return;
        const std::uint64_t skipped = n > capacity ? n - capacity : 0;
        head_ += skipped;
        for (std::uint64_t k = skipped; k < n; ++k) {
            Entry &e = ring_[head_ % capacity];
            e.when = first + k * period;
            e.name = name;
            e.prio = prio;
            ++head_;
        }
    }

    /** Events recorded over this recorder's lifetime. */
    std::uint64_t recorded() const { return head_; }

    // ------------------------------------------------ process-global
    /** Recording on/off (default on). */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Should panic() dump the recorders? Default off (tests that
     *  assert on panics stay quiet); CLI front-ends opt in. */
    static bool
    dumpOnPanic()
    {
        return dumpOnPanic_.load(std::memory_order_relaxed);
    }

    static void
    setDumpOnPanic(bool on)
    {
        dumpOnPanic_.store(on, std::memory_order_relaxed);
    }

    /**
     * Dump every live recorder's ring (oldest first) plus the
     * graveyard snapshots of recently destroyed recorders. Best
     * effort: see the file comment on the benign race.
     */
    static void dumpAll(std::ostream &os);

    /** Forget all history: graveyard and live rings. Call between
     *  independent runs in one process (e.g. model-check restarts). */
    static void clearAll();

  private:
    struct Entry
    {
        Tick when = 0;
        const char *name = nullptr;
        std::int32_t prio = 0;
    };

    void dumpRing(std::ostream &os) const;

    std::string label_ = "queue";
    std::array<Entry, capacity> ring_{};
    std::uint64_t head_ = 0;

    // shrimp-lint: shard-safe(process-wide enable flags, atomic, never feed sim state or digests)
    inline static std::atomic<bool> enabled_{true};
    // shrimp-lint: shard-safe(process-wide enable flags, atomic, never feed sim state or digests)
    inline static std::atomic<bool> dumpOnPanic_{false};
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_FLIGHT_RECORDER_HH
