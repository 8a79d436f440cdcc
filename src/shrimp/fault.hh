/**
 * @file
 * Per-link fault injection for the SHRIMP backplane.
 *
 * The interconnect itself never loses data in the prototype, but the
 * protection argument (Section 6) and the recovery machinery layered
 * on the NI (shrimp/network_interface.hh) are only interesting against
 * a network that misbehaves. The FaultModel decides, per transmitted
 * chunk, whether the link delivers, drops, corrupts, duplicates, or
 * delays it — plus scheduled link-down and link-degraded windows.
 *
 * Determinism: every *physical link* owns its own SplitMix64 stream
 * seeded from (seed, linkSrc, linkDst) — the NI calls decide() with
 * the endpoints of the link actually being traversed, which on the
 * crossbar is the (src, dst) endpoint pair and on a mesh/torus is each
 * (node, nextHop) leg of the dimension-order route. A decision for a
 * link is drawn only by the shard executing the link's owner
 * (transmitting node), in that node's event order — which the sharded
 * engine already keeps shard-count invariant — so `--shards=1` and
 * `--shards=N` see the same fault sequence and stay bit-identical.
 *
 * Thread-safety mirrors Interconnect's counters: the per-source slots
 * are sized at attach time (single-threaded System construction) and
 * each is only ever touched by the shard executing that source node;
 * totals() merges them when the world is quiescent.
 */

#ifndef SHRIMP_SHRIMP_FAULT_HH
#define SHRIMP_SHRIMP_FAULT_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/params.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace shrimp::net
{

/** A scheduled per-link state window (ticks, inclusive start). On a
 *  mesh/torus the pair names a *physical link* (adjacent nodes); a
 *  non-adjacent pair only matches crossbar traffic. */
struct LinkWindow
{
    NodeId src = 0;
    NodeId dst = 0;
    Tick from = 0;
    Tick to = maxTick;
};

/** Everything `--faults=<spec>` can say. */
struct FaultConfig
{
    /**
     * True once a spec (even "off") was parsed or a caller filled the
     * struct deliberately; lets an explicit config override a
     * `--faults=` flag in core::System.
     */
    bool specified = false;

    // Per-chunk probabilities, evaluated in this order from a single
    // uniform draw (so their sum must stay <= 1).
    double dropProb = 0;
    double corruptProb = 0;
    double dupProb = 0;
    double delayProb = 0;

    /** Extra latency a Delay outcome adds (microseconds). */
    double delayUs = 20.0;

    /** Additional drop probability inside a degraded window. */
    double degradedDropProb = 0.25;

    /** Stream seed (`seed=` in the spec). */
    std::uint64_t seed = 1;

    /**
     * Model-checker mutation: the NI never arms its retransmit timer,
     * so any dropped chunk becomes a lost completion.
     */
    bool disableRetransmit = false;

    /**
     * Model-checker mutation: the sender's SACK scoreboard never fires
     * fast retransmit, so every loss must wait out the full RTO — with
     * a tight run deadline this manifests as a lost completion.
     */
    bool disableFastRetransmit = false;

    /**
     * Model-checker mutation: the sender discards the SACK bitmap
     * (and the dup-ack signal derived from it), so selective repeat
     * degrades to pure cumulative-ack + RTO recovery.
     */
    bool ignoreSack = false;

    /** Links that are dead for a window (`down=S-D@FROM-TOus`). */
    std::vector<LinkWindow> downWindows;
    /** Links with boosted drop for a window (`degrade=S-D@FROM-TO`). */
    std::vector<LinkWindow> degradedWindows;

    bool
    anyActive() const
    {
        return dropProb > 0 || corruptProb > 0 || dupProb > 0
               || delayProb > 0 || !downWindows.empty()
               || !degradedWindows.empty();
    }
};

/**
 * Parse a comma-separated fault spec into @p out:
 *
 *   drop=P,corrupt=P,dup=P,delay=P   per-chunk probabilities
 *   delay-us=N                       extra latency per Delay outcome
 *   degrade-drop=P                   extra drop inside degraded windows
 *   seed=N                           PRNG stream seed
 *   down=S-D@F-T                     link S->D down from F to T (us)
 *   degrade=S-D@F-T                  link S->D degraded from F to T
 *   no-retransmit                    disable NI retransmission
 *   no-fast-retransmit               disable SACK fast retransmit
 *   sack-ignore                      sender discards SACK bitmaps
 *   off                              explicitly no faults
 *
 * Returns false (diagnostic on @p err, @p out untouched) on a
 * malformed spec.
 */
bool parseFaultSpec(const std::string &spec, FaultConfig &out,
                    std::ostream *err);

/** What the link does to one chunk. */
enum class FaultAction
{
    Deliver,
    Drop,
    Corrupt,
    Duplicate,
    Delay,
};

struct FaultDecision
{
    FaultAction action = FaultAction::Deliver;
    /** Extra arrival latency (Delay only). */
    Tick extraDelay = 0;
    /** Extra raw draw (Corrupt only: picks the flipped byte). */
    std::uint64_t aux = 0;
};

/** Per-source fault counters (shard-local, merged on read). */
struct FaultCounters
{
    std::uint64_t decisions = 0;
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t downDropped = 0;

    void
    add(const FaultCounters &o)
    {
        decisions += o.decisions;
        dropped += o.dropped;
        corrupted += o.corrupted;
        duplicated += o.duplicated;
        delayed += o.delayed;
        downDropped += o.downDropped;
    }
};

/** The per-link fault model hanging off shrimp::Interconnect. */
class FaultModel
{
  public:
    /** Install a configuration (single-threaded, before the run). */
    void
    configure(const FaultConfig &cfg)
    {
        cfg_ = cfg;
        active_ = cfg.anyActive();
        for (auto &s : perSrc_) {
            if (s)
                *s = PerSrc();
        }
    }

    const FaultConfig &config() const { return cfg_; }

    /** Anything to do at all? (The NI fast path checks this once.) */
    bool active() const { return active_; }

    /** Size the per-source slot (Interconnect::attach time). */
    void
    grow(NodeId src)
    {
        if (src >= perSrc_.size())
            perSrc_.resize(src + 1);
        if (!perSrc_[src])
            perSrc_[src] = std::make_unique<PerSrc>();
    }

    /**
     * Decide the fate of one chunk node @p src transmits onto its
     * physical link toward @p dst at @p now — @p dst is the *next
     * hop*, not the final destination, so multi-hop routes draw one
     * decision per traversed link. Control messages (acks) only see
     * Drop and Delay: corrupting an ack is indistinguishable from
     * dropping it, and duplicating one is a no-op, so the model keeps
     * their stream consumption minimal. Self-sends are exempt (there
     * is no link). Only the shard executing @p src may call this.
     */
    FaultDecision decide(NodeId src, NodeId dst, Tick now,
                         bool control);

    /** Merged counters; exact when the shards are quiescent. */
    FaultCounters
    totals() const
    {
        FaultCounters t;
        for (const auto &s : perSrc_) {
            if (s)
                t.add(s->counters);
        }
        return t;
    }

  private:
    struct PerSrc
    {
        /** One stream per destination, grown by the owning shard. */
        std::vector<sim::Random> perDst;
        std::vector<bool> seeded;
        FaultCounters counters;
    };

    sim::Random &streamFor(NodeId src, NodeId dst);
    bool inWindow(const std::vector<LinkWindow> &ws, NodeId src,
                  NodeId dst, Tick now) const;

    FaultConfig cfg_;
    bool active_ = false;
    std::vector<std::unique_ptr<PerSrc>> perSrc_;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_FAULT_HH
