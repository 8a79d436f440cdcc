/**
 * @file
 * Transfer-lifecycle spans.
 *
 * Every UDMA transfer attempt gets a monotonically increasing id at
 * the moment its destination is latched (the DestLoaded STORE); the
 * span then records the tick of each phase transition — latch, start
 * of transfer (the initiating LOAD), and terminal outcome (completion,
 * Inval abort, BadLoad, device error, engine abort, or replacement by
 * a later latch). Spans live in a process-global registry, mirroring
 * the trace facility's rationale: one simulator process runs one
 * experiment. Each transition also emits a trace point under
 * trace::Category::Xfer.
 *
 * The registry retains a bounded window of closed spans for
 * inspection and keeps aggregate counts for the full run; tests and
 * benches call clear() between experiments.
 */

#ifndef SHRIMP_SIM_SPAN_HH
#define SHRIMP_SIM_SPAN_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace shrimp::sim { class JsonWriter; }

namespace shrimp::span
{

/** Terminal (or current) state of a transfer span. */
enum class Outcome : unsigned
{
    Active = 0,     ///< latched or transferring, not yet closed
    Completed,      ///< engine finished moving every byte
    Inval,          ///< latched destination cleared by an Inval event
    BadLoad,        ///< initiating LOAD from the same proxy space
    DeviceError,    ///< controller rejected the transfer at validation
    Aborted,        ///< in-flight transfer cancelled (engine abort)
    Replaced,       ///< latch overwritten by a newer DestLoaded STORE
    NumOutcomes,
};

const char *outcomeName(Outcome o);

struct Span
{
    std::uint64_t id = 0;
    std::string owner;              ///< e.g. "node0.udma0"
    std::uint64_t bytes = 0;        ///< latched byte count
    bool toDevice = false;          ///< direction, known once started
    Tick latched = 0;               ///< DestLoaded STORE tick
    Tick started = 0;               ///< initiating LOAD tick (0: never)
    Tick ended = 0;                 ///< close tick (0: still active)
    Outcome outcome = Outcome::Active;

    bool active() const { return outcome == Outcome::Active; }

    /** Latch-to-close latency in microseconds (0 while active). */
    double
    totalUs() const
    {
        return active() ? 0.0 : ticksToUs(ended - latched);
    }
};

/** Aggregate per-run span accounting. */
struct Summary
{
    std::uint64_t opened = 0;
    std::uint64_t active = 0;
    std::uint64_t bytesCompleted = 0;
    std::uint64_t outcomes[unsigned(Outcome::NumOutcomes)] = {};

    std::uint64_t
    count(Outcome o) const
    {
        return outcomes[unsigned(o)];
    }
};

class Registry
{
  public:
    static Registry &instance();

    /** Open a span at the DestLoaded latch; returns its id (>= 1). */
    std::uint64_t open(Tick now, const std::string &owner,
                       std::uint64_t bytes);

    /**
     * Mark the initiating LOAD: the span enters Transferring. A
     * non-zero @p bytes updates the byte count (the hardware clamps
     * the latched count at page/device boundaries at initiation).
     */
    void start(Tick now, std::uint64_t id, bool toDevice,
               std::uint64_t bytes = 0);

    /** Close a span with its terminal outcome. Unknown ids ignored. */
    void close(Tick now, std::uint64_t id, Outcome outcome);

    /** Find a span (active or retained); nullptr if evicted/unknown. */
    const Span *find(std::uint64_t id) const;

    Summary summary() const;

    /** Closed spans, oldest first, bounded by the retain limit.
     *  Call only while no simulation is running. */
    std::vector<Span> retained() const;

    std::size_t
    activeCount() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return active_.size();
    }

    /** Cap on retained closed spans (aggregates are unaffected). */
    void setRetainLimit(std::size_t n);

    /** Drop all spans and aggregates (tests / between experiments). */
    void clear();

    /**
     * Write `{ "opened": ..., "outcomes": {...}, "spans": [...] }`.
     * With includeSpans false only the aggregate summary is written
     * (the shape benches embed in their result files).
     */
    void dumpJson(sim::JsonWriter &w, bool includeSpans = true) const;

  private:
    using ActiveMap = std::unordered_map<std::uint64_t, Span>;

    Registry() = default;

    /** retained_ in age order (caller holds mu_). */
    std::vector<Span> ordered() const;

    /**
     * The registry is process-global while sharded workers open and
     * close spans concurrently; the mutex keeps the aggregates exact.
     * Span *ids* are still assigned in thread arrival order, so they
     * are not part of the bit-identical determinism contract (the
     * summary counts are).
     */
    mutable std::mutex mu_;
    std::uint64_t nextId_ = 1;
    Summary summary_;
    // Keyed lookups and size() only — never iterated (shrimp_lint D3:
    // hash order must not reach dumpJson; retained_ is the ordered
    // view that does).
    ActiveMap active_;
    /** Map nodes of closed spans, reused by open(), so opening and
     *  closing spans in steady state allocates nothing. */
    std::vector<ActiveMap::node_type> spare_;
    /** Closed spans: a ring once it holds retainLimit_ entries, with
     *  the oldest at oldest_. */
    std::vector<Span> retained_;
    std::size_t oldest_ = 0;
    std::size_t retainLimit_ = 256;
};

/** Shorthand for Registry::instance(). */
Registry &registry();

} // namespace shrimp::span

#endif // SHRIMP_SIM_SPAN_HH
