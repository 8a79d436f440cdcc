/**
 * @file
 * The sharded simulation core: one event queue (and heap) per node,
 * nodes grouped into shards, each shard executed in distance-aware
 * conservative time windows (Chandy-Misra-style) by a pool of worker
 * threads, one shard per worker.
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
 * and runs its nodes to the window end — there is no separate
 * post-execute sync barrier.
 *
 * Node-major execution: inside its window a shard runs sub-windows
 * [next, min(windowEnd, next + L_diag - 1)], where next is the
 * earliest pending tick over its nodes and L_diag the shard's own
 * diagonal of the lookahead matrix, and fires each node's events to
 * the sub-window end before it moves to the next node. That is legal
 * because nodes interact only through post(), which lands at least
 * L_diag past the poster's clock, so nothing one node does inside a
 * sub-window can reach another node inside it. Each node's own event
 * sequence is the one a global (tick, priority, node) order would
 * produce; the interleaving across nodes is not, and nothing
 * simulated may depend on it. Same-shard cross-node posts go straight
 * into the destination's queue without clamping anyone's horizon.
 *
 * Cross-shard messages travel through per-(source shard, destination
 * shard) mailboxes, one vector per round parity, and are delivered at
 * the start of the round after the one that posted them. Each carries
 * a canonical *stamp* allocated from the originating node's queue at
 * post() time (see EventQueue::allocStamp). A node's heap orders its
 * ties by that stamp, so the execution order at equal (tick, priority,
 * node) is (source node, per-source order) no matter when a message
 * was drained — which is what makes `--shards=1` and `--shards=N`
 * bit-identical in sim time.
 *
 * Barriers are also where the world is quiescent, so the invariant
 * auditor's hook and the stop predicate run in the barrier completion
 * step, on exactly one thread, with every worker parked.
 */

#ifndef SHRIMP_SIM_SHARDED_HH
#define SHRIMP_SIM_SHARDED_HH

#include <algorithm>
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
 * The engine: per-node queues, shard-of-nodes worker partitioning,
 * mailboxes, and the windowed run loop.
 *
 * Two run modes:
 *  - run()/runUntil(): the parallel data-phase loop. Within a window
 *    each shard executes independently and node-major (file
 *    comment), so node state must not be read across nodes except
 *    through post() — not even on one shard. The stop predicate is
 *    evaluated at window barriers — note that a shard decoupled from
 *    all cross-traffic may execute all the way to the limit in one
 *    window, so the predicate's granularity is the window, not the
 *    event.
 *  - runSetup(): a sequential phase for workload setup that *does*
 *    rendezvous through host-shared state (e.g. msg::Channel's
 *    export/import flags). All nodes' events are interleaved in one
 *    global canonical (tick, priority, node) order on the calling
 *    thread, so cross-node host reads are both race-free and
 *    shard-count independent; the predicate is checked after every
 *    event. Each event is picked from the shards' contiguous arrays
 *    of per-node front-key hints, not by reading every queue.
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
     * Global sim time: the max over the node clocks. A node's clock
     * is the tick of its last fired event, which does not depend on
     * how windows were shaped, so this value is canonical across
     * shard counts.
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

    /** Node-major sub-windows executed, summed over shards. Exact when
     *  the engine is not running; on one shard, an event may read it
     *  to learn which sub-window it fires in. */
    std::uint64_t subWindows() const;

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
     * One (source shard -> destination shard) channel: two vectors
     * selected by the round parity. The producer appends to
     * buf[parity] while the consumer drains buf[parity ^ 1] — always
     * the previous round's posts, published by the barrier in between
     * — so the fused-barrier round (drain concurrent with the
     * producers' execution) never has two threads on one vector. The
     * buffers sit on separate cache lines, and `delivered` (consumer
     * owned) on a third; a message is posted when it enters a buffer,
     * so the posted count is `delivered` plus both buffers' sizes,
     * exact when the world is quiescent.
     */
    struct Mailbox
    {
        struct alignas(64) Buffer
        {
            std::vector<CrossMsg> msgs;
        };
        /** Messages the off-diagonal buffers hold without growing. */
        static constexpr std::size_t reserved = 1024;

        Buffer buf[2];
        alignas(64) std::uint64_t delivered = 0;

        std::uint64_t
        staged() const
        {
            return buf[0].msgs.size() + buf[1].msgs.size();
        }
    };

    /**
     * Per-shard working state, one cache line set per shard (the
     * alignment keeps one shard's hot fields — horizons, counters and
     * the headers of its hint and promise arrays — off every other
     * shard's lines; the window loop touches these every sub-window).
     *
     * Ownership: the shard's own worker writes everything during its
     * round, including every push into its nodes' queues (their own
     * events, same-shard posts, its inbox drain) and so every `front`
     * hint; `windowEnd` is written by the barrier completion (all
     * workers parked) and read by the owner; `localNext` and
     * `postedMin` are written by the owner and read by the
     * completion. The barrier provides the happens-before edges in
     * both directions, so none of it needs atomics.
     */
    struct alignas(64) ShardState
    {
        /** Earliest pending tick over this shard's nodes, published
         *  at the end of each round. */
        Tick localNext = maxTick;
        /** This round's inclusive execution horizon (completion). */
        Tick windowEnd = 0;
        /** postedMin[d]: earliest cross-post staged toward shard d
         *  this round — the shard's promise to its peers. */
        std::vector<Tick> postedMin;
        /** The shard's nodes' queues, in ascending node order. */
        std::vector<EventQueue *> queues;
        /** front[i]: queues[i]'s front-key hint (EventQueue), exact
         *  after the node runs. Sized once, before the queues that
         *  point into it are built. */
        std::vector<EventHeap::Key> front;

        /** The earliest tick over the front hints. */
        Tick
        nextTick() const
        {
            Tick t = maxTick;
            for (const EventHeap::Key &k : front)
                t = std::min(t, k.first);
            return t;
        }
        /** Same-shard cross-node posts delivered directly. */
        std::uint64_t directPosts = 0;
        /** Node-major sub-windows run. */
        std::uint64_t subWindows = 0;
        /** The worker's last profiler clock read of the run; the
         *  engine notes the join from there after the threads end. */
        std::uint64_t profEnd = 0;
    };

    struct Control
    {
        Tick limit = maxTick;
        const std::function<bool()> *pred = nullptr;
        bool done = false;
        /** Which mailbox buffer producers write this round. */
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
        return boxes_[src_shard * shards_ + dst_shard];
    }

    /** Uniform runSetup windows: [start, start + lookahead() - 1]. */
    Tick windowEndFor(Tick start, Tick limit) const;

    /** Re-read every node's front key into its hint (run entry). */
    void refreshFronts();

    /**
     * The globally earliest pending event by (tick, priority, node):
     * the smallest front hint, re-read from its queue until the two
     * agree (a cancel can leave a hint low). @return Its queue and
     * hint, or {nullptr, nullptr} when every queue is empty.
     */
    std::pair<EventQueue *, EventHeap::Key *> earliestFront();

    /** Fire the globally earliest event if it lies at or before
     *  @p limit. @return Whether one fired. */
    bool stepCanonical(Tick limit);

    /** Fire shard @p shard's events at or before @p end node-major,
     *  one sub-window at a time; publish its localNext. @return
     *  Events fired. */
    std::uint64_t runNodeMajor(unsigned shard, Tick end);

    /**
     * Empty every mailbox bound for @p dst_shard — the previous
     * round's buffer (both buffers when @p both, the sequential entry
     * drain) — and schedule the messages into the destination queues.
     * @return Number of messages delivered.
     */
    std::size_t drainShard(unsigned dst_shard, bool both);

    /** Sequential full drain (entry to either run mode). */
    void drainAll();

    /** Barrier completion: audit hook, predicate, promise-based
     *  per-shard horizons for the next round. */
    void planRound();

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
    /** Sized once at construction (front hints never move);
     *  declared before queues_, which point into it, so the queues go
     *  first on destruction. */
    std::vector<ShardState> shardStates_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<Mailbox> boxes_;
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
