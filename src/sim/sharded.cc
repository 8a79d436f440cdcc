#include "sim/sharded.hh"

#include <algorithm>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "sim/profiler.hh"

namespace shrimp::sim
{

unsigned
hostCoreCount()
{
#ifdef __linux__
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return unsigned(n);
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace
{

/** Tell the core we are busy-waiting (frees pipeline resources for a
 *  sibling hyperthread and avoids the memory-order flush on exit). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

} // namespace

bool
SpinBarrier::spinUntilReleased(std::uint64_t phase) const
{
    // The clock is read once per 64 polls: often enough to honour the
    // budget within a few microseconds, rarely enough to stay off the
    // poll's critical path.
    // shrimp-lint: allow(D1) bounds a barrier spin in wall time only; never feeds sim state
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + spinBudget;
    for (;;) {
        for (int i = 0; i < 64; ++i) {
            if (phase_.load(std::memory_order_acquire) != phase)
                return true;
            cpuRelax();
        }
        if (Clock::now() >= deadline)
            return false;
    }
}

ShardedEngine::ShardedEngine(unsigned nodes, unsigned shards,
                             Tick lookahead)
    : ShardedEngine(nodes, shards,
                    PairLookahead([lookahead](NodeId, NodeId) {
                        return std::max<Tick>(lookahead, 1);
                    }))
{}

ShardedEngine::ShardedEngine(unsigned nodes, unsigned shards,
                             const PairLookahead &la)
    : shards_(std::min(std::max(shards, 1u), std::max(nodes, 1u))),
      shardStates_(shards_)
{
    SHRIMP_ASSERT(nodes > 0, "engine needs at least one node");
    SHRIMP_ASSERT(la, "engine needs a lookahead function");
    for (unsigned s = 0; s < shards_; ++s) {
        ShardState &st = shardStates_[s];
        st.postedMin.assign(shards_, maxTick);
        // Nodes s, s + shards, ...: node n is entry n / shards.
        st.front.assign((nodes - s + shards_ - 1) / shards_,
                        EventHeap::Key{maxTick, 0});
    }
    queues_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        // The queue brands its stamps with the node id: ties at equal
        // (tick, priority) then execute in (source node, per-source
        // order) regardless of which shard drained the message when.
        ShardState &st = shardStates_[shardOf(n)];
        queues_.push_back(
            std::make_unique<EventQueue>(n, &st.front[n / shards_]));
        queues_.back()->setFlightLabel("node" + std::to_string(n));
        st.queues.push_back(queues_.back().get());
    }

    // Same-shard posts skip the mailbox, so only the off-diagonal
    // boxes carry traffic; reserving them keeps the steady state free
    // of allocations.
    boxes_.resize(std::size_t(shards_) * shards_);
    for (unsigned src = 0; src < shards_; ++src) {
        for (unsigned dst = 0; dst < shards_; ++dst) {
            if (src == dst)
                continue;
            for (Mailbox::Buffer &b : box(src, dst).buf)
                b.msgs.reserve(Mailbox::reserved);
        }
    }

    // Fold the per-node-pair floors into the shard-pair matrix: the
    // matrix entry must hold for *every* (src, dst) node pair mapped
    // onto it, so it takes the minimum. The per-pair floor itself is
    // clamped to one tick — a zero-lookahead channel cannot be
    // windowed, only serialized.
    pairL_.assign(std::size_t(shards_) * shards_, maxTick);
    minLookahead_ = maxTick;
    for (unsigned src = 0; src < nodes; ++src) {
        for (unsigned dst = 0; dst < nodes; ++dst) {
            if (src == dst)
                continue;
            const Tick l = std::max<Tick>(1, la(src, dst));
            Tick &cell =
                pairL_[std::size_t(shardOf(src)) * shards_ + shardOf(dst)];
            cell = std::min(cell, l);
            minLookahead_ = std::min(minLookahead_, l);
        }
    }
    if (minLookahead_ == maxTick)
        minLookahead_ = 1; // single node: no pairs, value unused
    nextEvent_.resize(shards_, maxTick);
}

ShardedEngine::~ShardedEngine() = default;

void
ShardedEngine::post(NodeId src, NodeId dst, Tick when, const char *name,
                    EventCallback fn, EventPriority prio)
{
    SHRIMP_ASSERT(src < nodeCount() && dst < nodeCount(),
                  "post outside the machine");
    if (src == dst) {
        // Self-sends never leave the queue; scheduling directly keeps
        // them at their natural latency with no canonicality cost (a
        // node's own queue order is shard-count independent already).
        queues_[src]->schedule(when, name, std::move(fn), prio);
        return;
    }
    const unsigned ss = shardOf(src);
    const unsigned ds = shardOf(dst);
    SHRIMP_ASSERT(when >= queues_[src]->now() + pairLookahead(ss, ds),
                  "cross-node post inside the shard-pair (", ss, " -> ",
                  ds, ") lookahead window");
    // The stamp is allocated on the *source* queue now, so the message
    // carries its canonical tie-break key no matter when it is drained.
    const std::uint64_t stamp = queues_[src]->allocStamp();
    ShardState &st = shardStates_[ss];
    if (ss == ds) {
        // Same shard: deliver directly. The event lands at least the
        // diagonal lookahead past the poster's clock, so past the
        // sub-window being executed (file comment); the destination's
        // front hint picks it up at its exact time with no mailbox hop
        // and — crucially — without clamping any window: the
        // shard-pair diagonal never constrains the horizon.
        queues_[dst]->scheduleStamped(when, stamp, name, std::move(fn),
                                      prio);
        ++st.directPosts;
        return;
    }
    box(ss, ds).buf[ctrl_.parity].msgs.push_back(
        CrossMsg{when, std::int32_t(prio), stamp, src, dst, name,
                 std::move(fn)});
    // Publish the promise: the earliest tick shard ds may receive from
    // us this round. The next barrier folds it into ds's horizon.
    if (when < st.postedMin[ds])
        st.postedMin[ds] = when;
}

Tick
ShardedEngine::windowEndFor(Tick start, Tick limit) const
{
    // Inclusive window [start, start + lookahead - 1], clamped to the
    // run limit without overflowing near maxTick.
    if (limit - start < minLookahead_ - 1)
        return limit;
    return start + (minLookahead_ - 1);
}

void
ShardedEngine::refreshFronts()
{
    for (ShardState &st : shardStates_) {
        for (std::size_t i = 0; i < st.queues.size(); ++i)
            st.front[i] = st.queues[i]->nextKey();
    }
}

std::pair<EventQueue *, EventHeap::Key *>
ShardedEngine::earliestFront()
{
    for (;;) {
        // An empty queue's hint is {maxTick, 0}, which never wins.
        std::pair<EventQueue *, EventHeap::Key *> best{nullptr, nullptr};
        EventHeap::Key best_key{maxTick, 0};
        for (ShardState &st : shardStates_) {
            for (std::size_t i = 0; i < st.front.size(); ++i) {
                if (st.front[i] < best_key) {
                    best_key = st.front[i];
                    best = {st.queues[i], &st.front[i]};
                }
            }
        }
        if (!best.first)
            return best;
        // Hints never lie past the front, so the smallest one that
        // holds is the global minimum.
        const EventHeap::Key actual = best.first->nextKey();
        if (actual == best_key)
            return best;
        *best.second = actual;
    }
}

bool
ShardedEngine::stepCanonical(Tick limit)
{
    const auto [q, front] = earliestFront();
    if (!q || front->first > limit)
        return false;
    q->step();
    *front = q->nextKey();
    return true;
}

std::uint64_t
ShardedEngine::runNodeMajor(unsigned shard, Tick end)
{
    ShardState &st = shardStates_[shard];
    // Sub-windows are L_diag wide: a post between two nodes of this
    // shard lands at least L_diag past the poster's clock, so past
    // the sub-window it was posted in. A one-node shard has no
    // diagonal pairs (maxTick) and runs its window in one piece.
    const Tick span = pairLookahead(shard, shard) - 1;
    std::uint64_t fired = 0;
    for (;;) {
        const Tick next = st.nextTick();
        if (next == maxTick || next > end) {
            st.localNext = next;
            return fired;
        }
        const Tick sub_end = end - next <= span ? end : next + span;
        ++st.subWindows;
        for (std::size_t i = 0; i < st.front.size(); ++i) {
            if (st.front[i].first > sub_end)
                continue;
            EventQueue &q = *st.queues[i];
            fired += q.runTo(sub_end);
            st.front[i] = q.nextKey();
        }
    }
}

std::size_t
ShardedEngine::drainShard(unsigned dst_shard, bool both)
{
    // Delivery order does not matter: a node's heap orders its events
    // by (tick, priority, stamp), and the stamp (source node,
    // per-source counter) makes every key unique, so the execution
    // order cannot depend on how nodes map to shards or how drains
    // were batched.
    std::size_t delivered = 0;
    auto take = [this, &delivered](std::vector<CrossMsg> &msgs) {
        for (CrossMsg &m : msgs)
            queues_[m.dst]->scheduleStamped(m.when, m.stamp, m.name,
                                            std::move(m.fn),
                                            EventPriority(m.prio));
        delivered += msgs.size();
        msgs.clear();
    };
    for (unsigned src = 0; src < shards_; ++src) {
        Mailbox &mb = box(src, dst_shard);
        const std::size_t before = delivered;
        // Only the *previous* round's buffer is safe to touch while
        // producers run (they append to buf[parity]); the sequential
        // entry drain takes both.
        take(mb.buf[ctrl_.parity ^ 1].msgs);
        if (both)
            take(mb.buf[ctrl_.parity].msgs);
        mb.delivered += delivered - before;
    }
    return delivered;
}

void
ShardedEngine::drainAll()
{
    for (unsigned s = 0; s < shards_; ++s)
        drainShard(s, /*both=*/true);
}

void
ShardedEngine::planRound()
{
    if (ctrl_.error) {
        ctrl_.done = true;
        return;
    }
    try {
        if (barrierHook_)
            barrierHook_();
        if (ctrl_.pred && (*ctrl_.pred)()) {
            ctrl_.done = true;
            return;
        }
    } catch (...) {
        ctrl_.error = std::current_exception();
        ctrl_.done = true;
        return;
    }
    // Earliest possible next event per shard: its own queues' minimum
    // plus every promise staged toward it this round (those messages
    // are drained at the start of the next round).
    Tick global_next = maxTick;
    for (unsigned d = 0; d < shards_; ++d)
        nextEvent_[d] = shardStates_[d].localNext;
    for (unsigned s = 0; s < shards_; ++s) {
        const ShardState &st = shardStates_[s];
        for (unsigned d = 0; d < shards_; ++d)
            nextEvent_[d] = std::min(nextEvent_[d], st.postedMin[d]);
    }
    for (unsigned d = 0; d < shards_; ++d)
        global_next = std::min(global_next, nextEvent_[d]);
    if (global_next == maxTick || global_next > ctrl_.limit) {
        ctrl_.done = true;
        return;
    }
    // Relax to the LBTS fixpoint: an apparently idle shard can still
    // be *woken* by a peer's message and reflect one back, so each
    // shard's earliest possible event is bounded through every path of
    // the lookahead matrix, not just its own queues. Uniform matrices
    // converge in one extra pass; the loop is capped by the longest
    // acyclic path anyway.
    for (bool changed = true; changed;) {
        changed = false;
        for (unsigned s = 0; s < shards_; ++s) {
            if (nextEvent_[s] == maxTick)
                continue;
            for (unsigned d = 0; d < shards_; ++d) {
                if (d == s)
                    continue;
                const Tick l = pairL_[std::size_t(s) * shards_ + d];
                if (nextEvent_[s] >= maxTick - l)
                    continue;
                const Tick reach = nextEvent_[s] + l;
                if (reach < nextEvent_[d]) {
                    nextEvent_[d] = reach;
                    changed = true;
                }
            }
        }
    }
    // Promise-based horizons: shard d may run to one tick short of the
    // earliest event any *other* shard could still send it. A shard
    // whose peers are far in the future (or reachable only by a long
    // round trip through itself) runs a correspondingly wide window —
    // hundreds of lookaheads when traffic is sparse — and the shard
    // holding the global minimum always gets windowEnd >= that event,
    // so every round makes progress.
    Tick max_end = 0;
    for (unsigned d = 0; d < shards_; ++d) {
        Tick h = maxTick;
        for (unsigned s = 0; s < shards_; ++s) {
            if (s == d || nextEvent_[s] == maxTick)
                continue;
            const Tick l = pairL_[std::size_t(s) * shards_ + d];
            const Tick reach = (nextEvent_[s] >= maxTick - l)
                                   ? maxTick
                                   : nextEvent_[s] + l;
            h = std::min(h, reach);
        }
        Tick end = (h == maxTick) ? maxTick : h - 1;
        end = std::min(end, ctrl_.limit);
        shardStates_[d].windowEnd = end;
        max_end = std::max(max_end, end);
        if (profiler_) {
            // Window width in ticks of actual work: 0 when the shard
            // has nothing to run this round.
            Tick width = 0;
            if (nextEvent_[d] <= end) {
                width = end - nextEvent_[d];
                if (width != maxTick)
                    ++width;
            }
            profiler_->noteWindowWidth(width);
        }
    }
    // A gap between the previous round's widest horizon and the next
    // event means the engine hopped over empty time in one plan — the
    // signature of a decoupled phase.
    if (profiler_ && ctrl_.haveWindow && global_next > ctrl_.prevMaxEnd
        && global_next - ctrl_.prevMaxEnd > 1)
        profiler_->noteWindowSkip();
    ctrl_.prevMaxEnd = max_end;
    ctrl_.haveWindow = true;
    // Flip the mailbox parity: producers of the coming round write the
    // other buffer, freeing this round's for its consumer.
    ctrl_.parity ^= 1u;
    ++windows_;
}

void
ShardedEngine::noteError()
{
    std::lock_guard<std::mutex> g(errMu_);
    if (!ctrl_.error)
        ctrl_.error = std::current_exception();
}

void
ShardedEngine::workerBody(unsigned worker, ShardProfiler *prof,
                          std::uint64_t t_enter)
{
    // One round: barrier (completion plans every shard's window) ->
    // drain own inbox -> execute own window -> publish the promises
    // for the next plan. Profiling (when attached and running) chains
    // one clock read per phase transition so the buckets tile this
    // thread's wall time with no gaps; the fused barrier wait lands in
    // the plan bucket (there is no separate sync barrier any more).
    // The stretch from runWindows entry to this first read — thread
    // creation and scheduling — is the worker's spawn time.
    std::uint64_t t = prof ? prof->nowNs() : 0;
    if (prof)
        prof->noteSpawn(worker, t_enter, t);
    ShardState &st = shardStates_[worker];
    for (;;) {
        barrier_->arriveAndWait();
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->notePlan(worker, t, n);
            t = n;
        }
        if (ctrl_.done) {
            st.profEnd = t;
            return;
        }
        // The promises published last round were consumed by the plan
        // we just crossed; start the new round's accounting.
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
        std::size_t drained = 0;
        try {
            drained = drainShard(worker, /*both=*/false);
        } catch (...) {
            noteError();
        }
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteDrain(worker, t, n, drained);
            t = n;
        }
        // The run publishes this shard's earliest pending tick for the
        // next plan; the barrier provides the happens-before edge.
        std::uint64_t executed = 0;
        try {
            executed = runNodeMajor(worker, st.windowEnd);
        } catch (...) {
            noteError();
        }
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteExecute(worker, t, n, executed);
            t = n;
        }
    }
}

Tick
ShardedEngine::runWindows(const std::function<bool()> *pred, Tick limit)
{
    ShardProfiler *prof =
        (profiler_ && profiler_->running()) ? profiler_ : nullptr;
    const std::uint64_t t_enter = prof ? prof->nowNs() : 0;
    // Mailboxes may hold messages from a previous partial run (e.g. a
    // runSetup that stopped mid-window); deliver them first so the
    // first plan sees every pending event.
    drainAll();
    refreshFronts();
    ctrl_ = Control{};
    ctrl_.limit = limit;
    ctrl_.pred = pred;
    for (ShardState &st : shardStates_) {
        st.localNext = st.nextTick();
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
    }
    const unsigned workers = shards_;
    barrier_ =
        std::make_unique<SpinBarrier>(workers, [this] { planRound(); });
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(
            [this, w, prof, t_enter] { workerBody(w, prof, t_enter); });
    workerBody(0, prof, t_enter);
    for (auto &t : threads)
        t.join();
    const std::uint64_t spins = barrier_->spinWakes();
    const std::uint64_t sleeps = barrier_->futexSleeps();
    barSpinWakes_ += spins;
    barSleeps_ += sleeps;
    if (prof) {
        // Each worker's tail — from its last clock read through the
        // joins — closes its budget for this run.
        const std::uint64_t t_exit = prof->nowNs();
        for (unsigned w = 0; w < workers; ++w)
            prof->noteSpawn(w, shardStates_[w].profEnd, t_exit);
        prof->addBarrierWaits(spins, sleeps);
    }
    barrier_.reset();
    if (ctrl_.error)
        std::rethrow_exception(ctrl_.error);
    return now();
}

Tick
ShardedEngine::run(Tick limit)
{
    return runWindows(nullptr, limit);
}

Tick
ShardedEngine::runUntil(const std::function<bool()> &pred, Tick limit)
{
    return runWindows(&pred, limit);
}

Tick
ShardedEngine::runSetup(const std::function<bool()> &pred, Tick limit)
{
    drainAll();
    refreshFronts();
    for (;;) {
        if (barrierHook_)
            barrierHook_();
        if (pred())
            break;
        const auto [q, front] = earliestFront();
        if (!q || front->first > limit)
            break;
        const Tick window_end = windowEndFor(front->first, limit);
        ++windows_;
        bool stop = false;
        // Step the globally earliest event by (tick, priority, node) —
        // nodes never tie — a canonical interleaving that cannot
        // depend on the shard count, so host-shared rendezvous state
        // read during setup observes the same history under any
        // --shards value.
        while (stepCanonical(window_end)) {
            if (pred()) {
                stop = true;
                break;
            }
        }
        drainAll();
        if (stop)
            break;
    }
    return now();
}

Tick
ShardedEngine::now() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->now());
    return t;
}

std::uint64_t
ShardedEngine::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->eventsExecuted();
    return n;
}

std::uint64_t
ShardedEngine::pendingEvents() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->pendingEvents();
    for (const Mailbox &b : boxes_)
        n += b.staged();
    return n;
}

std::uint64_t
ShardedEngine::subWindows() const
{
    std::uint64_t n = 0;
    for (const auto &st : shardStates_)
        n += st.subWindows;
    return n;
}

std::uint64_t
ShardedEngine::crossPosts() const
{
    std::uint64_t n = 0;
    for (const Mailbox &b : boxes_)
        n += b.delivered + b.staged();
    for (const auto &st : shardStates_)
        n += st.directPosts;
    return n;
}

} // namespace shrimp::sim
