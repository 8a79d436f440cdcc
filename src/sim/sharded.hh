/**
 * @file
 * The sharded simulation core: one EventQueue per node, executed in
 * distance-aware conservative time windows (Chandy-Misra-style) by a
 * pool of worker threads, one shard of nodes per worker.
 *
 * Synchronization is driven by two inputs instead of one global
 * horizon:
 *
 *  - A per-(source shard, destination shard) *lookahead matrix*,
 *    derived from the interconnect's minimum real delivery latency
 *    (`Interconnect::minDeliveryLatency`: header serialization on the
 *    injection link plus the routing hop — see DESIGN.md §10). Any
 *    event node s schedules on node d lands at least
 *    `pairLookahead(shard(s), shard(d))` ticks past s's clock.
 *
 *  - Per-round *promises*: at every barrier each shard publishes its
 *    earliest possible next event (its queues' minimum pending tick,
 *    plus a per-destination minimum over the cross-posts it staged
 *    this round). The planner computes each shard's safe horizon as
 *
 *        H[d] = min over s != d of (nextEvent[s] + pairLookahead[s][d])
 *
 *    and shard d executes the inclusive window [.., H[d] - 1]. A
 *    shard whose peers are idle or far in the future runs a huge
 *    window — up to the limit in one hop — instead of lock-stepping
 *    at the static lookahead like the original global-window scheme.
 *
 * One barrier per round: the plan runs in the barrier's completion
 * step (every worker parked), and each worker then drains its inbox
 * and executes its window — there is no separate post-execute sync
 * barrier. A shard holding several nodes executes them with a merged
 * (tick, priority, node) selection loop over a tournament tree of its
 * queues' next-event keys, so same-shard cross-node posts are
 * delivered directly into the destination queue without clamping
 * anyone's horizon, and picking an event costs O(log nodes).
 *
 * Cross-shard messages travel through per-(source shard, destination
 * shard) SPSC mailboxes and carry a canonical *stamp* allocated from
 * the originating node's queue at post() time
 * (see EventQueue::allocStamp). Queues order ties by that stamp, so
 * the execution order at equal (tick, priority) is (source node,
 * per-source order) no matter when a message was drained — which is
 * what makes `--shards=1` and `--shards=N` bit-identical in sim time.
 *
 * Barriers are also where the world is quiescent, so the invariant
 * auditor's hook and the stop predicate run in the barrier completion
 * step, on exactly one thread, with every worker parked.
 */

#ifndef SHRIMP_SIM_SHARDED_HH
#define SHRIMP_SIM_SHARDED_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/spsc.hh"
#include "sim/types.hh"

namespace shrimp::sim
{

class ShardProfiler;

/**
 * Where a component posts an event destined for (possibly) another
 * node. The sharded engine implements this with mailboxes and direct
 * same-shard delivery; unit tests that put several components on one
 * queue supply a router that schedules there.
 */
class NodeRouter
{
  public:
    virtual ~NodeRouter() = default;

    /**
     * Schedule @p fn at absolute tick @p when on node @p dst's queue.
     * Must be called from the shard currently executing @p src, and —
     * when src != dst — with
     * `when >= now(src) + pairLookahead(shard(src), shard(dst))` so
     * the event cannot land inside any window the destination may be
     * executing.
     */
    virtual void post(NodeId src, NodeId dst, Tick when,
                      const char *name, EventCallback fn,
                      EventPriority prio) = 0;
};

/**
 * The number of CPU cores this process may run on: the affinity-mask
 * population on Linux (honest under taskset/cgroup pinning),
 * std::thread::hardware_concurrency elsewhere; at least 1.
 */
unsigned hostCoreCount();

/**
 * A barrier with a completion callback: the last thread to arrive
 * runs the completion (with every other participant parked), then
 * releases the phase.
 *
 * Waiting policy, fixed at construction from the core count: when the
 * process may run on at least as many cores as there are parties, a
 * waiter spins — with a CPU-relax hint — for up to spinBudget of wall
 * time before it sleeps on the futex. The engine's rounds turn over in
 * microseconds and a futex wake-up costs more than that on a
 * virtualized host, so a spinning waiter is released well inside the
 * budget (DESIGN.md §10 has the measured wait distribution). With
 * fewer cores than parties a spinning waiter would only steal the core
 * the straggler needs, so every wait sleeps on the futex at once. Both
 * outcomes are counted — the profiler exports them so barrier
 * behaviour is observable, not guessed.
 */
class SpinBarrier
{
  public:
    /** Wall time a waiter spins before it sleeps on the futex. */
    static constexpr std::chrono::nanoseconds spinBudget =
        std::chrono::milliseconds(2);

    /** @p cores is the core count the policy compares against
     *  @p parties; the default asks the host. */
    explicit SpinBarrier(unsigned parties,
                         std::function<void()> completion = {},
                         unsigned cores = hostCoreCount())
        : parties_(parties), spin_(cores >= parties),
          completion_(std::move(completion))
    {}

    void
    arriveAndWait()
    {
        const std::uint64_t phase =
            phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1
                == parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            if (completion_)
                completion_();
            phase_.store(phase + 1, std::memory_order_release);
            phase_.notify_all();
            return;
        }
        if (spin_ && spinUntilReleased(phase)) {
            spinWakes_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        futexSleeps_.fetch_add(1, std::memory_order_relaxed);
        while (phase_.load(std::memory_order_acquire) == phase)
            phase_.wait(phase, std::memory_order_acquire);
    }

    /** True when waits spin before sleeping (cores >= parties). */
    bool spins() const { return spin_; }

    /** Waits released while still spinning (no futex involved). */
    std::uint64_t
    spinWakes() const
    {
        return spinWakes_.load(std::memory_order_relaxed);
    }

    /** Waits that slept on the futex (spin budget exhausted, or no
     *  spinning at all). */
    std::uint64_t
    futexSleeps() const
    {
        return futexSleeps_.load(std::memory_order_relaxed);
    }

  private:
    /** Spin until the phase moves past @p phase (true) or the wall
     *  budget runs out (false). */
    bool spinUntilReleased(std::uint64_t phase) const;

    const unsigned parties_;
    const bool spin_;
    std::function<void()> completion_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> phase_{0};
    std::atomic<std::uint64_t> spinWakes_{0};
    std::atomic<std::uint64_t> futexSleeps_{0};
};

/**
 * A tournament (winner) tree over a fixed number of cached
 * (tick, priority) keys — the merged in-shard loop's event selection.
 * top() names the leaf holding the smallest key, ties broken by the
 * lowest index, which is exactly the pick of a linear min-scan; it is
 * O(1), and changing one key replays that leaf's path to the root in
 * O(log n).
 *
 * Layout: leaf i lives at position n + i and internal node p
 * (1 <= p < n) holds the winning leaf of its children 2p and 2p + 1,
 * so position 1 is the overall winner for any n >= 1. (Min with an
 * index tie-break is a total order, so it does not matter that for n
 * not a power of two some pairings cross levels.)
 */
class WinnerTree
{
  public:
    using Key = std::pair<Tick, std::int32_t>;

    /** @p n leaves, every key the empty-queue sentinel (maxTick, 0). */
    explicit WinnerTree(std::size_t n = 0) { reset(n); }

    void reset(std::size_t n);

    std::size_t size() const { return keys_.size(); }
    const Key &key(std::size_t i) const { return keys_[i]; }

    /** The leaf holding the smallest key (needs size() >= 1). */
    std::size_t top() const { return win_[1]; }
    const Key &topKey() const { return keys_[win_[1]]; }

    /** Set leaf @p i's key to @p k, up or down. */
    void
    set(std::size_t i, const Key &k)
    {
        keys_[i] = k;
        for (std::size_t p = (size() + i) >> 1; p != 0; p >>= 1)
            win_[p] = winner(win_[2 * p], win_[2 * p + 1]);
    }

    /** Decrease-key: lower leaf @p i's key to @p k if that is
     *  smaller; otherwise leave it. */
    void
    lower(std::size_t i, const Key &k)
    {
        if (!(k < keys_[i]))
            return;
        keys_[i] = k;
        const auto leaf = std::uint32_t(i);
        for (std::size_t p = (size() + i) >> 1; p != 0; p >>= 1) {
            // A lowered key only ever climbs: once a subtree keeps
            // another winner, every enclosing subtree does too.
            if (winner(leaf, win_[p]) != leaf)
                break;
            win_[p] = leaf;
        }
    }

    /** Reload every key from @p keyOf(i) and recompute all matches. */
    template <typename KeyOf>
    void
    rebuild(KeyOf &&keyOf)
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            keys_[i] = keyOf(i);
        for (std::size_t p = n; p > 1;) {
            --p;
            win_[p] = winner(win_[2 * p], win_[2 * p + 1]);
        }
    }

  private:
    std::uint32_t
    winner(std::uint32_t a, std::uint32_t b) const
    {
        if (keys_[b] < keys_[a] || (keys_[b] == keys_[a] && b < a))
            return b;
        return a;
    }

    std::vector<Key> keys_;
    /** [0] unused; [1, n) match winners; [n, 2n) leaf i at n + i. */
    std::vector<std::uint32_t> win_;
};

/**
 * The engine: per-node queues, shard-of-nodes worker partitioning,
 * mailboxes, and the windowed run loop.
 *
 * Two run modes:
 *  - run()/runUntil(): the parallel data-phase loop. Within a window
 *    each node's queue executes independently, so node state must not
 *    be read across nodes except through post(). The stop predicate
 *    is evaluated at window barriers — note that a shard decoupled
 *    from all cross-traffic may execute all the way to the limit in
 *    one window, so the predicate's granularity is the window, not
 *    the event.
 *  - runSetup(): a sequential phase for workload setup that *does*
 *    rendezvous through host-shared state (e.g. msg::Channel's
 *    export/import flags). All queues are interleaved in one global
 *    canonical (tick, priority, node) order on the calling thread, so
 *    cross-node host reads are both race-free and shard-count
 *    independent; the predicate is checked after every event.
 */
class ShardedEngine : public NodeRouter
{
  public:
    /** Minimum delivery latency from node @p src to node @p dst. */
    using PairLookahead = std::function<Tick(NodeId src, NodeId dst)>;

    /** Uniform lookahead (floored at 1 tick) between any node pair. */
    ShardedEngine(unsigned nodes, unsigned shards, Tick lookahead);

    /**
     * Distance-aware lookahead: @p la is queried once per ordered
     * node pair at construction and folded into a per-(src shard,
     * dst shard) matrix of minima.
     */
    ShardedEngine(unsigned nodes, unsigned shards,
                  const PairLookahead &la);

    ~ShardedEngine() override;

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    unsigned nodeCount() const { return unsigned(queues_.size()); }
    unsigned shardCount() const { return shards_; }
    unsigned shardOf(NodeId node) const { return node % shards_; }

    /** The smallest entry of the lookahead matrix (also the uniform
     *  window width runSetup uses). */
    Tick lookahead() const { return minLookahead_; }

    /** The (src shard, dst shard) lookahead floor: no post from a
     *  node of @p src_shard may land on a node of @p dst_shard less
     *  than this far past the poster's clock. */
    Tick
    pairLookahead(unsigned src_shard, unsigned dst_shard) const
    {
        return pairL_[std::size_t(src_shard) * shards_ + dst_shard];
    }

    EventQueue &
    queue(NodeId node)
    {
        return *queues_.at(node);
    }

    // --------------------------------------------- NodeRouter
    void post(NodeId src, NodeId dst, Tick when, const char *name,
              EventCallback fn, EventPriority prio) override;

    // --------------------------------------------- run loop
    /** Parallel windowed run until every queue drains or @p limit. */
    Tick run(Tick limit = maxTick);

    /**
     * Parallel windowed run; @p pred is evaluated in the barrier
     * completion (all workers parked) and stops the run when true.
     */
    Tick runUntil(const std::function<bool()> &pred,
                  Tick limit = maxTick);

    /** Sequential canonical-order run (see class comment). */
    Tick runSetup(const std::function<bool()> &pred,
                  Tick limit = maxTick);

    /**
     * Invoked in the barrier completion step before each window (and
     * once before the run finishes), where every shard is quiescent:
     * the natural audit point.
     */
    void setBarrierHook(std::function<void()> hook)
    {
        barrierHook_ = std::move(hook);
    }

    /**
     * Attach a time-budget profiler. Workers note their window
     * lifecycle phases into it while it is running() (see
     * profiler.hh); detach with nullptr. Observational only — the
     * sim-visible execution is identical with or without it.
     */
    void setProfiler(ShardProfiler *profiler) { profiler_ = profiler; }

    // --------------------------------------------- merged views
    /**
     * Global sim time: the max over per-node *last fired* ticks. The
     * fired tick — unlike EventQueue::now(), which run(limit) parks
     * at the window end even when the stretch was empty — does not
     * depend on how windows were shaped, so this value is canonical
     * across shard counts.
     */
    Tick now() const;

    /** Sum of per-queue executed-event counts. */
    std::uint64_t eventsExecuted() const;

    /**
     * Pending events: the per-queue counts plus any cross-shard
     * messages still staged in mailboxes (posted but not yet drained
     * — a run stopped at a predicate can leave some staged; they are
     * delivered at the next run's entry). Exact when the engine is
     * not running.
     */
    std::uint64_t pendingEvents() const;

    /** Cross-node posts (src != dst): mailbox messages plus
     *  same-shard direct deliveries. Shard-count invariant. */
    std::uint64_t crossPosts() const;

    /** Conservative windows executed (both run modes). */
    std::uint64_t windows() const { return windows_; }

    /** Barrier waits resolved by spinning / by futex sleep, summed
     *  over all runs since construction. */
    std::uint64_t barrierSpinWakes() const { return barSpinWakes_; }
    std::uint64_t barrierFutexSleeps() const { return barSleeps_; }

  private:
    struct CrossMsg
    {
        Tick when = 0;
        std::int32_t prio = 0;
        /** Canonical tie-break key, allocated on the source queue at
         *  post() time (EventQueue::allocStamp). */
        std::uint64_t stamp = 0;
        NodeId src = 0;
        NodeId dst = 0;
        const char *name = nullptr;
        EventCallback fn;
    };

    /**
     * One (source shard -> destination shard) channel. The ring is
     * the lock-free fast path. Overflow spills into one of two plain
     * vectors, selected by the round parity: the producer writes
     * spill[parity] while the consumer drains spill[parity ^ 1] —
     * always the previous round's overflow, published by the barrier
     * in between — so the fused-barrier round (drain concurrent with
     * the producers' execution) never has two threads on one vector.
     * `posted` is owned by the producer, `delivered` by the consumer;
     * both are summed on demand when the world is quiescent.
     */
    struct Mailbox
    {
        SpscRing<CrossMsg> ring{1024};
        std::vector<CrossMsg> spill[2];
        std::uint64_t posted = 0;
        std::uint64_t delivered = 0;
    };

    /**
     * Per-shard working state, one cache line set per shard (the
     * alignment keeps one shard's hot fields — cached keys, promise
     * row, counters — off every other shard's lines; the window loop
     * touches these every event).
     *
     * Ownership: the shard's own worker writes everything during its
     * round; `windowEnd` is written by the barrier completion (all
     * workers parked) and read by the owner; `localNext` and
     * `postedMin` are written by the owner and read by the completion.
     * The barrier provides the happens-before edges in both
     * directions, so none of it needs atomics.
     */
    struct alignas(64) ShardState
    {
        /** Earliest pending tick across this shard's queues,
         *  published at the end of each round. */
        Tick localNext = maxTick;
        /** This round's inclusive execution horizon (completion). */
        Tick windowEnd = 0;
        /** postedMin[d]: earliest cross-post staged toward shard d
         *  this round — the shard's promise to its peers. */
        std::vector<Tick> postedMin;
        /** The nodes this shard executes, ascending. */
        std::vector<NodeId> nodes;
        /** queues[i] == engine queue of nodes[i]. */
        std::vector<EventQueue *> queues;
        /** Cached (tick, prio) next-event keys of queues[i], for the
         *  merged selection loop: rebuilt when executeShard starts,
         *  refreshed after each step, lowered by post() on same-shard
         *  direct delivery. */
        WinnerTree tree;
        /** Drain scratch, reused (capacity persists) across rounds. */
        std::vector<CrossMsg> drainBuf;
        /** Same-shard cross-node posts delivered directly. */
        std::uint64_t directPosts = 0;
        /** The worker's last profiler clock read of the run; the
         *  engine notes the join from there after the threads end. */
        std::uint64_t profEnd = 0;
    };

    struct Control
    {
        Tick limit = maxTick;
        const std::function<bool()> *pred = nullptr;
        bool done = false;
        /** Which spill vector producers write this round. */
        unsigned parity = 0;
        /** True once a first window has been planned this run. */
        bool haveWindow = false;
        /** Max shard horizon of the previous round (skip detection). */
        Tick prevMaxEnd = 0;
        std::exception_ptr error;
    };

    Mailbox &
    box(unsigned src_shard, unsigned dst_shard)
    {
        return *boxes_[src_shard * shards_ + dst_shard];
    }

    /** Uniform runSetup windows: [start, start + lookahead() - 1]. */
    Tick windowEndFor(Tick start, Tick limit) const;

    /**
     * Pop every mailbox bound for @p dst_shard — the ring plus the
     * previous round's spill (both spills when @p both, the
     * sequential entry drain) — and schedule the messages, sorted by
     * their unique (tick, priority, stamp) keys, into the destination
     * queues. @return Number of messages delivered.
     */
    std::size_t drainShard(unsigned dst_shard, bool both);

    /** Sequential full drain (entry to either run mode). */
    void drainAll();

    /** Barrier completion: audit hook, predicate, promise-based
     *  per-shard horizons for the next round. */
    void planRound();

    /** Execute shard @p s's queues up to its windowEnd: the single
     *  queue directly, several via the merged tournament-tree loop. */
    void executeShard(unsigned s);

    /** One worker's round loop. @p prof is the profiler when one is
     *  attached and running (else null); @p t_enter is its clock at
     *  runWindows entry. */
    void workerBody(unsigned worker, ShardProfiler *prof,
                    std::uint64_t t_enter);
    void noteError();

    Tick runWindows(const std::function<bool()> *pred, Tick limit);

    const unsigned shards_;
    /** Min of pairL_ (runSetup window width; lookahead() accessor). */
    Tick minLookahead_ = 1;
    /** Shard-pair lookahead matrix, row-major [src * shards_ + dst]:
     *  min over the member node pairs of the per-node-pair floor. */
    std::vector<Tick> pairL_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    /** Index of each node within its shard's queues and tree. */
    std::vector<std::uint32_t> nodeShardIdx_;
    std::vector<ShardState> shardStates_;
    std::vector<std::unique_ptr<Mailbox>> boxes_;
    /** Completion scratch: per-shard earliest possible next event. */
    std::vector<Tick> nextEvent_;

    std::function<void()> barrierHook_;
    ShardProfiler *profiler_ = nullptr;
    std::uint64_t windows_ = 0;
    std::uint64_t barSpinWakes_ = 0;
    std::uint64_t barSleeps_ = 0;

    Control ctrl_;
    std::mutex errMu_;
    std::unique_ptr<SpinBarrier> barrier_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SHARDED_HH
