/**
 * @file
 * The sharded simulation core: one event queue (and heap) per node,
 * nodes grouped into shards of contiguous node ids, each shard
 * executed in distance-aware conservative time windows
 * (Chandy-Misra-Bryant) by a pool of worker threads, one shard per
 * worker.
 *
 * Placement: shard s holds the nodes n with n * shards / nodes == s,
 * one balanced block of ascending ids. Ring and mesh neighbours
 * therefore mostly share a shard, and their posts skip the mailboxes.
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
 *  - Per-round *promise lines*: at every round boundary each shard
 *    publishes, in its own cache line, its earliest pending heap tick,
 *    a per-destination minimum over the cross-posts it staged the
 *    round before, and a stop bit and an error bit. Each shard then reads
 *    its peers' lines of the same round and computes its own safe
 *    horizon as
 *
 *        H[d] = min over s != d of (nextEvent[s] + pairLookahead[s][d])
 *
 *    (after the LBTS fixpoint over the matrix) and executes the
 *    inclusive window [.., H[d] - 1]. A shard whose peers are idle or
 *    far in the future runs a huge window — up to the limit in one
 *    round.
 *
 * There is no barrier and no serial step: a shard waits only for its
 * peers' promise lines of the round it is entering, every shard
 * derives the same stop decision from the same lines, and no two
 * shards write one line. Lines and mailboxes are double-buffered by
 * round parity; DESIGN.md §10 gives the four arguments that keep this
 * race-free and bit-identical.
 *
 * Node-major execution: inside its window a shard runs sub-windows
 * [next, min(windowEnd, next + L_diag - 1)], where next is the
 * earliest pending heap tick over its nodes and L_diag the shard's own
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
 * A parked stream (EventQueue::parkStream, a spinning poll) is in
 * neither a node's front nor its shard's promise: each of its events
 * only schedules its own repeat and never posts, and the heap event
 * that wakes one is in the front. A node whose only pending work is a
 * stream is not run; its stream fires in closed form when the node
 * next runs for a heap event, and where the run ends each shard
 * advances its streams to its last window end (a stopped run) or to
 * the limit. A run first asks every parked stream whether host code
 * has woken it; runSetup wakes them all into their heaps.
 *
 * A round boundary is where a shard's own nodes are quiescent, so the
 * per-node stop predicate and the per-node audit hook run there, for
 * each node on the worker that owns it. They may see a parked stream
 * behind the boundary: its outstanding events change only its node's
 * clock and event counts and what its owner counts (a poll's loads,
 * TLB hits and LRU order).
 */

#ifndef SHRIMP_SIM_SHARDED_HH
#define SHRIMP_SIM_SHARDED_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
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
 * How a shard waits for its peers at a round boundary: until each of
 * their round words (one per peer, in the peer's promise line) reads
 * the round it is entering.
 *
 * Waiting policy, fixed at construction from the core count: when the
 * process may run on at least as many cores as there are parties, a
 * waiter spins — with a CPU-relax hint — for up to spinBudget of wall
 * time before it sleeps with std::atomic::wait on the word it still
 * lacks. The engine's rounds turn over in microseconds and a futex
 * wake-up costs more than that on a virtualized host, so a spinning
 * waiter is released well inside the budget (DESIGN.md §10 has the
 * measured wait distribution). With fewer cores than parties a
 * spinning waiter would only steal the core its peer needs, so every
 * wait sleeps at once. Each wait is counted once, as a spin wake or a
 * futex sleep — the profiler exports both, so waiting is observable,
 * not guessed. One PeerWait belongs to one waiting thread; its
 * counters are plain and read once that thread has been joined.
 */
class PeerWait
{
  public:
    /** Wall time a waiter spins before it sleeps on the futex. */
    static constexpr std::chrono::nanoseconds spinBudget =
        std::chrono::milliseconds(2);

    /** @p cores is the core count the policy compares against
     *  @p parties; the default asks the host. */
    explicit PeerWait(unsigned parties = 1,
                      unsigned cores = hostCoreCount())
        : spin_(cores >= parties)
    {}

    /** True when waits spin before sleeping (cores >= parties). */
    bool spins() const { return spin_; }

    /** Whether a round word reading @p word has reached @p round
     *  (modulo 2^32: a word is never more than 2^31 rounds behind). */
    static bool
    reached(std::uint32_t word, std::uint32_t round)
    {
        return std::int32_t(word - round) >= 0;
    }

    /** Publish @p round in @p word (release) and wake its sleepers. */
    static void
    publish(std::atomic<std::uint32_t> &word, std::uint32_t round)
    {
        word.store(round, std::memory_order_release);
        word.notify_all();
    }

    /** Wait until each of the @p n words has reached @p round
     *  (acquire). One call is one wait. */
    void await(const std::atomic<std::uint32_t> *const *words,
               std::size_t n, std::uint32_t round);

    /** Waits released while still spinning (no futex involved). */
    std::uint64_t spinWakes() const { return spinWakes_; }

    /** Waits that slept (spin budget exhausted, or no spinning). */
    std::uint64_t futexSleeps() const { return futexSleeps_; }

  private:
    /** Spin until the @p n words reach @p round or the budget runs
     *  out. @return The first word still short of it (n if none). */
    std::size_t spinUntil(const std::atomic<std::uint32_t> *const *words,
                          std::size_t n, std::uint32_t round) const;

    bool spin_;
    std::uint64_t spinWakes_ = 0;
    std::uint64_t futexSleeps_ = 0;
};

/**
 * The engine: per-node queues, contiguous shards of nodes, mailboxes,
 * promise lines and the windowed run loop.
 *
 * Two run modes:
 *  - run()/runUntil(): the parallel data-phase loop. Within a window
 *    each shard executes independently and node-major (file
 *    comment), so node state must not be read across nodes except
 *    through post() — not even on one shard. The per-node stop
 *    predicate is evaluated at round boundaries, for each node by the
 *    worker that owns it; the run stops at the first boundary where
 *    it holds for every node. A shard decoupled from all
 *    cross-traffic may execute all the way to the limit in one
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

    /** A per-node stop predicate: true once node @p n may stop. */
    using NodePredicate = std::function<bool(NodeId n)>;

    /** A per-node hook, run at every round boundary. */
    using NodeHook = std::function<void(NodeId n)>;

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

    /** The shard owning @p node: n * shards / nodes, so each shard
     *  holds one balanced block of ascending node ids. */
    unsigned shardOf(NodeId node) const { return nodeShard_[node]; }

    /** The nodes of shard @p shard, in ascending order. */
    const std::vector<EventQueue *> &
    shardQueues(unsigned shard) const
    {
        return shardStates_[shard].queues;
    }

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
     * Parallel windowed run that stops at the first round boundary
     * where @p pred holds for every node. Each node's predicate runs
     * on the worker that owns the node, so it may read that node's
     * state and nothing that another shard writes.
     */
    Tick runUntil(const NodePredicate &pred, Tick limit = maxTick);

    /** Sequential canonical-order run (see class comment). */
    Tick runSetup(const std::function<bool()> &pred,
                  Tick limit = maxTick);

    /**
     * Invoked for every node at every round boundary (and once more
     * before the run finishes), by the worker that owns the node,
     * where that node is quiescent: the natural audit point. runSetup
     * invokes it for every node, in ascending order, before each of
     * its windows.
     */
    void setBarrierHook(NodeHook hook) { barrierHook_ = std::move(hook); }

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

    /** Sum of per-queue firings in place or in a parked stream
     *  (EventQueue::fireInPlace, parkStream), a part of
     *  eventsExecuted(). */
    std::uint64_t firedInPlace() const;

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

    /** Conservative windows executed: rounds of run()/runUntil() (every
     *  shard runs the same rounds) plus runSetup's windows. */
    std::uint64_t windows() const { return windows_; }

    /** Node-major sub-windows executed, summed over shards. Exact when
     *  the engine is not running; on one shard, an event may read it
     *  to learn which sub-window it fires in. */
    std::uint64_t subWindows() const;

    /** Round-boundary waits for peers resolved by spinning / by a
     *  futex sleep, summed over shards and over all runs since
     *  construction. One shard never waits. */
    std::uint64_t barrierSpinWakes() const;
    std::uint64_t barrierFutexSleeps() const;

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
     * selected by round parity. In round k the producer appends to
     * buf[k & 1] while the consumer drains buf[(k - 1) & 1] — always
     * the previous round's posts — so the two never share a vector
     * (DESIGN.md §10, argument 2). The buffers sit on separate cache
     * lines, and `delivered` (consumer owned) on a third; a message
     * is posted when it enters a buffer, so the posted count is
     * `delivered` plus both buffers' sizes, exact when the engine is
     * not running.
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
     * One cache line of a shard's promise for one round parity. A
     * promise is a run of lines: the first carries the round word and
     * the flags, and its words, continued on the following lines, are
     * [localNext, postedMin[0], ..., postedMin[shards - 1]]. Up to
     * six shards, a promise is one line. Only its shard writes it.
     */
    struct alignas(64) PromiseLine
    {
        static constexpr unsigned words = 7;
        /** The round this promise was published for (first line). */
        std::atomic<std::uint32_t> round{0};
        /** stopBit | errorBit (first line). */
        std::uint32_t flags = 0;
        Tick word[words] = {};
    };
    static constexpr std::uint32_t stopBit = 1;
    static constexpr std::uint32_t errorBit = 2;

    /**
     * Per-shard working state, one cache line set per shard (the
     * alignment keeps one shard's hot fields — horizons, counters and
     * the headers of its hint and promise arrays — off every other
     * shard's lines; the window loop touches these every sub-window).
     * Only the shard's own worker touches it during a run, including
     * every push into its nodes' queues (their own events, same-shard
     * posts, its inbox drain) and so every `front` hint; its peers see
     * what they need through its promise lines.
     */
    struct alignas(64) ShardState
    {
        /** Earliest pending heap tick over this shard's nodes, set
         *  by the execute phase and published at the next boundary. */
        Tick localNext = maxTick;
        /** This round's inclusive execution horizon; once the run is
         *  over, the tick the shard's parked streams advance to. */
        Tick windowEnd = 0;
        /** The current round's parity: the mailbox buffer this
         *  shard's posts go to. */
        unsigned parity = 0;
        /** postedMin[d]: earliest cross-post staged toward shard d
         *  this round, published at the next boundary. */
        std::vector<Tick> postedMin;
        /** Plan scratch: every shard's earliest possible next event. */
        std::vector<Tick> nextEvent;
        /** Each peer's round word, for parity 0 and parity 1. */
        std::vector<const std::atomic<std::uint32_t> *> peerRound[2];
        /** The shard's nodes' queues, in ascending node order from
         *  node `first`. */
        std::vector<EventQueue *> queues;
        NodeId first = 0;
        /** front[i]: queues[i]'s heap front-key hint (EventQueue),
         *  exact after the node runs. Sized once, before the queues
         *  that point into it are built. */
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
        PeerWait wait;
        /** Same-shard cross-node posts delivered directly. */
        std::uint64_t directPosts = 0;
        /** Node-major sub-windows run. */
        std::uint64_t subWindows = 0;
        /** Rounds executed in the current run. */
        std::uint64_t rounds = 0;
        /** The worker's last profiler clock read of the run; the
         *  engine notes the join from there after the threads end. */
        std::uint64_t profEnd = 0;
    };

    /** What every worker reads and nobody writes during a run. */
    struct Control
    {
        Tick limit = maxTick;
        const NodePredicate *pred = nullptr;
        ShardProfiler *prof = nullptr;
    };

    Mailbox &
    box(unsigned src_shard, unsigned dst_shard)
    {
        return boxes_[src_shard * shards_ + dst_shard];
    }

    /** Line @p i of shard @p shard's promise for round parity @p p. */
    PromiseLine &
    promiseLine(unsigned shard, unsigned p, unsigned i)
    {
        return promises_[(std::size_t(shard) * 2 + p) * promiseLines_
                         + i];
    }

    /** Word @p i of shard @p shard's promise for parity @p p. */
    Tick &
    promiseWord(unsigned shard, unsigned p, unsigned i)
    {
        return promiseLine(shard, p, i / PromiseLine::words)
            .word[i % PromiseLine::words];
    }

    /** Uniform runSetup windows: [start, start + lookahead() - 1]. */
    Tick windowEndFor(Tick start, Tick limit) const;

    /** Re-read every node's heap key into its hint (run entry). */
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
     *  one sub-window at a time; set its localNext. @return Events
     *  fired. */
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

    /** Run the hook and the stop predicate over shard @p shard's
     *  nodes. @return stopBit when the predicate holds for all. */
    std::uint32_t checkNodes(unsigned shard);

    /** Write shard @p shard's promise for round @p round. */
    void publish(unsigned shard, std::uint32_t round, std::uint32_t flags);

    /**
     * Read every shard's promise for round @p round into shard
     * @p shard's plan and set its windowEnd. @return False when the
     * run is over: an error or stop bit (windowEnd stays at the last
     * window run), or nothing left to run at or before the limit
     * (windowEnd becomes the limit). Every shard reads the same
     * lines, so all of them agree.
     */
    bool planWindow(unsigned shard, std::uint32_t round);

    /** Shard @p dst's horizon under the relaxed @p next (LBTS). */
    Tick horizon(const std::vector<Tick> &next, unsigned dst) const;

    /** Profiler notes of shard @p shard's planned window; worker 0
     *  also notes a hop over empty simulated time. */
    void noteWindow(unsigned shard, Tick &prev_max_end);

    /** One worker's round loop. @p t_enter is the profiler clock at
     *  runWindows entry. */
    void workerBody(unsigned worker, std::uint64_t t_enter);
    void noteError();

    Tick runWindows(const NodePredicate *pred, Tick limit);

    const unsigned shards_;
    /** shardOf(n) for every node. */
    std::vector<unsigned> nodeShard_;
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
    /** Lines per promise: ceil((1 + shards) / PromiseLine::words). */
    unsigned promiseLines_ = 1;
    /** Every shard's two promises, [(shard * 2 + parity) * lines]. */
    std::unique_ptr<PromiseLine[]> promises_;

    NodeHook barrierHook_;
    ShardProfiler *profiler_ = nullptr;
    std::uint64_t windows_ = 0;

    Control ctrl_;
    std::mutex errMu_;
    std::exception_ptr error_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SHARDED_HH
