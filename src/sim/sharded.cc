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

void
PeerWait::await(const std::atomic<std::uint32_t> *const *words,
                std::size_t n, std::uint32_t round)
{
    if (n == 0)
        return;
    std::size_t i = 0;
    if (spin_) {
        i = spinUntil(words, n, round);
        if (i == n) {
            ++spinWakes_;
            return;
        }
    }
    ++futexSleeps_;
    for (; i < n; ++i) {
        for (;;) {
            const std::uint32_t v = words[i]->load(std::memory_order_acquire);
            if (reached(v, round))
                break;
            words[i]->wait(v, std::memory_order_acquire);
        }
    }
}

std::size_t
PeerWait::spinUntil(const std::atomic<std::uint32_t> *const *words,
                    std::size_t n, std::uint32_t round) const
{
    // The clock is read once per 64 polls: often enough to honour the
    // budget within a few microseconds, rarely enough to stay off the
    // poll's critical path.
    // shrimp-lint: allow(D1) bounds a round wait in wall time only; never feeds sim state
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + spinBudget;
    std::size_t i = 0;
    for (;;) {
        for (int poll = 0; poll < 64; ++poll) {
            while (reached(words[i]->load(std::memory_order_acquire),
                           round)) {
                if (++i == n)
                    return n;
            }
            cpuRelax();
        }
        if (Clock::now() >= deadline)
            return i;
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
    // Contiguous balanced blocks: shard s holds the nodes n with
    // n * shards / nodes == s, ceil or floor of nodes / shards each.
    nodeShard_.resize(nodes);
    std::vector<unsigned> block(shards_, 0);
    for (unsigned n = 0; n < nodes; ++n) {
        nodeShard_[n] = unsigned(std::uint64_t(n) * shards_ / nodes);
        ++block[nodeShard_[n]];
    }
    const unsigned cores = hostCoreCount();
    for (unsigned s = 0; s < shards_; ++s) {
        ShardState &st = shardStates_[s];
        st.postedMin.assign(shards_, maxTick);
        st.nextEvent.assign(shards_, maxTick);
        st.front.assign(block[s], EventHeap::Key{maxTick, 0});
        st.queues.reserve(block[s]);
        st.wait = PeerWait(shards_, cores);
    }
    queues_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        // The queue brands its stamps with the node id: ties at equal
        // (tick, priority) then execute in (source node, per-source
        // order) regardless of which shard drained the message when.
        ShardState &st = shardStates_[shardOf(n)];
        if (st.queues.empty())
            st.first = n;
        queues_.push_back(std::make_unique<EventQueue>(
            n, &st.front[st.queues.size()]));
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

    // Two promises per shard, one per round parity, each on lines of
    // its own; every shard waits on its peers' round words.
    promiseLines_ = (1 + shards_ + PromiseLine::words - 1)
                    / PromiseLine::words;
    promises_ = std::make_unique<PromiseLine[]>(std::size_t(shards_) * 2
                                                * promiseLines_);
    for (unsigned s = 0; s < shards_; ++s) {
        for (unsigned p = 0; p < 2; ++p) {
            for (unsigned peer = 0; peer < shards_; ++peer) {
                if (peer != s)
                    shardStates_[s].peerRound[p].push_back(
                        &promiseLine(peer, p, 0).round);
            }
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
    box(ss, ds).buf[st.parity].msgs.push_back(
        CrossMsg{when, std::int32_t(prio), stamp, src, dst, name,
                 std::move(fn)});
    // The promise: the earliest tick shard ds may receive from us
    // this round, published at the next boundary for every planner.
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
            st.front[i] = st.queues[i]->heapKey();
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
        // holds is the global minimum (runSetup has woken every
        // stream, so the heaps hold every pending event).
        const EventHeap::Key actual = best.first->heapKey();
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
    *front = q->heapKey();
    return true;
}

std::uint64_t
ShardedEngine::runNodeMajor(unsigned shard, Tick end)
{
    ShardState &st = shardStates_[shard];
    // Sub-windows are L_diag wide: a post between two nodes of this
    // shard lands at least L_diag past the poster's clock, so past
    // the sub-window it was posted in. A one-node shard has no
    // diagonal pairs (maxTick) and runs its window in one piece. The
    // fronts are heap keys: a node whose only pending work is a
    // parked stream is not run; its stream catches up when the node
    // next runs for a heap event, or at the end of the run.
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
            st.front[i] = q.heapKey();
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
    const unsigned parity = shardStates_[dst_shard].parity;
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
        take(mb.buf[parity ^ 1].msgs);
        if (both)
            take(mb.buf[parity].msgs);
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

std::uint32_t
ShardedEngine::checkNodes(unsigned shard)
{
    const ShardState &st = shardStates_[shard];
    const NodeId end = st.first + NodeId(st.queues.size());
    if (barrierHook_) {
        for (NodeId n = st.first; n < end; ++n)
            barrierHook_(n);
    }
    if (!ctrl_.pred)
        return 0;
    for (NodeId n = st.first; n < end; ++n) {
        if (!(*ctrl_.pred)(n))
            return 0;
    }
    return stopBit;
}

void
ShardedEngine::publish(unsigned shard, std::uint32_t round,
                       std::uint32_t flags)
{
    const ShardState &st = shardStates_[shard];
    const unsigned p = round & 1;
    PromiseLine &head = promiseLine(shard, p, 0);
    head.flags = flags;
    promiseWord(shard, p, 0) = st.localNext;
    for (unsigned d = 0; d < shards_; ++d)
        promiseWord(shard, p, 1 + d) = st.postedMin[d];
    PeerWait::publish(head.round, round);
}

bool
ShardedEngine::planWindow(unsigned shard, std::uint32_t round)
{
    ShardState &st = shardStates_[shard];
    const unsigned p = round & 1;
    // Earliest possible next event per shard: its own queues' minimum
    // plus every promise staged toward it last round (those messages
    // are drained at the start of this one).
    std::vector<Tick> &next = st.nextEvent;
    std::uint32_t all = stopBit;
    std::uint32_t any = 0;
    for (unsigned d = 0; d < shards_; ++d)
        next[d] = promiseWord(d, p, 0);
    for (unsigned s = 0; s < shards_; ++s) {
        const std::uint32_t flags = promiseLine(s, p, 0).flags;
        all &= flags;
        any |= flags;
        for (unsigned d = 0; d < shards_; ++d)
            next[d] = std::min(next[d], promiseWord(s, p, 1 + d));
    }
    Tick global_next = maxTick;
    for (unsigned d = 0; d < shards_; ++d)
        global_next = std::min(global_next, next[d]);
    // A stopped run leaves windowEnd at the last window run.
    if ((any & errorBit) || (all & stopBit))
        return false;
    if (global_next == maxTick || global_next > ctrl_.limit) {
        // No heap event is left at or before the limit anywhere, so
        // nothing can reach a parked stream before it either.
        st.windowEnd = ctrl_.limit;
        return false;
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
            if (next[s] == maxTick)
                continue;
            for (unsigned d = 0; d < shards_; ++d) {
                if (d == s)
                    continue;
                const Tick l = pairL_[std::size_t(s) * shards_ + d];
                if (next[s] >= maxTick - l)
                    continue;
                const Tick reach = next[s] + l;
                if (reach < next[d]) {
                    next[d] = reach;
                    changed = true;
                }
            }
        }
    }
    st.windowEnd = horizon(next, shard);
    return true;
}

Tick
ShardedEngine::horizon(const std::vector<Tick> &next, unsigned dst) const
{
    // Promise-based horizons: shard d may run to one tick short of the
    // earliest event any *other* shard could still send it. A shard
    // whose peers are far in the future (or reachable only by a long
    // round trip through itself) runs a correspondingly wide window —
    // hundreds of lookaheads when traffic is sparse — and the shard
    // holding the global minimum always gets windowEnd >= that event,
    // so every round makes progress.
    Tick h = maxTick;
    for (unsigned s = 0; s < shards_; ++s) {
        if (s == dst || next[s] == maxTick)
            continue;
        const Tick l = pairL_[std::size_t(s) * shards_ + dst];
        const Tick reach =
            (next[s] >= maxTick - l) ? maxTick : next[s] + l;
        h = std::min(h, reach);
    }
    const Tick end = (h == maxTick) ? maxTick : h - 1;
    return std::min(end, ctrl_.limit);
}

void
ShardedEngine::noteWindow(unsigned shard, Tick &prev_max_end)
{
    ShardProfiler &prof = *ctrl_.prof;
    const ShardState &st = shardStates_[shard];
    const std::vector<Tick> &next = st.nextEvent;
    // Window width in ticks of actual work: 0 when the shard has
    // nothing to run this round.
    Tick width = 0;
    if (next[shard] <= st.windowEnd) {
        width = st.windowEnd - next[shard];
        if (width != maxTick)
            ++width;
    }
    prof.noteWindowWidth(shard, width);
    if (shard != 0)
        return;
    // A gap between the previous round's widest horizon and the next
    // event means the engine hopped over empty time in one round —
    // the signature of a decoupled phase. Every shard plans the same
    // rounds, so worker 0 alone notes it.
    Tick global_next = maxTick;
    Tick max_end = 0;
    for (unsigned d = 0; d < shards_; ++d) {
        global_next = std::min(global_next, next[d]);
        max_end = std::max(max_end, horizon(next, d));
    }
    if (st.rounds > 0 && global_next > prev_max_end
        && global_next - prev_max_end > 1)
        prof.noteWindowSkip(shard);
    prev_max_end = max_end;
}

void
ShardedEngine::noteError()
{
    std::lock_guard<std::mutex> g(errMu_);
    if (!error_)
        error_ = std::current_exception();
}

void
ShardedEngine::workerBody(unsigned worker, std::uint64_t t_enter)
{
    // One round k: publish this shard's promise for round k -> wait
    // for the peers' promises of round k -> plan this shard's window
    // from all of them -> drain the round-(k - 1) inboxes -> execute.
    // Profiling (when attached and running) chains one clock read per
    // phase transition so the buckets tile this thread's wall time
    // with no gaps; the boundary (hook, predicate, publish, wait and
    // plan) lands in the plan bucket. The stretch from runWindows
    // entry to this first read — thread creation and scheduling — is
    // the worker's spawn time.
    ShardProfiler *prof = ctrl_.prof;
    std::uint64_t t = prof ? prof->nowNs() : 0;
    if (prof)
        prof->noteSpawn(worker, t_enter, t);
    ShardState &st = shardStates_[worker];
    bool failed = false;
    Tick prev_max_end = 0;
    for (std::uint32_t round = 0;; ++round) {
        // The boundary into `round`: this shard's nodes are quiescent.
        std::uint32_t flags = 0;
        try {
            flags = checkNodes(worker);
        } catch (...) {
            noteError();
            failed = true;
        }
        publish(worker, round, flags | (failed ? errorBit : 0));
        const unsigned p = round & 1;
        st.wait.await(st.peerRound[p].data(), st.peerRound[p].size(),
                      round);
        const bool go = planWindow(worker, round);
        if (go && prof)
            noteWindow(worker, prev_max_end);
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->notePlan(worker, t, n);
            t = n;
        }
        if (!go) {
            // The run ends for this shard at windowEnd: bring the
            // parked streams there, as if the shard had run them in
            // every sub-window. None of them can have posted.
            try {
                for (EventQueue *q : st.queues)
                    q->advanceStream(st.windowEnd);
            } catch (...) {
                noteError();
            }
            st.profEnd = t;
            return;
        }
        ++st.rounds;
        // Posts of this round go to buf[p]; the drain takes last
        // round's, which every producer finished before publishing.
        st.parity = p;
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
        std::size_t drained = 0;
        try {
            drained = drainShard(worker, /*both=*/false);
        } catch (...) {
            noteError();
            failed = true;
        }
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteDrain(worker, t, n, drained);
            t = n;
        }
        std::uint64_t executed = 0;
        try {
            executed = runNodeMajor(worker, st.windowEnd);
        } catch (...) {
            noteError();
            failed = true;
        }
        if (prof) {
            const std::uint64_t n = prof->nowNs();
            prof->noteExecute(worker, t, n, executed);
            t = n;
        }
    }
}

Tick
ShardedEngine::runWindows(const NodePredicate *pred, Tick limit)
{
    ShardProfiler *prof =
        (profiler_ && profiler_->running()) ? profiler_ : nullptr;
    const std::uint64_t t_enter = prof ? prof->nowNs() : 0;
    // Mailboxes may hold messages from a previous partial run (e.g. a
    // run stopped at its predicate); deliver them first so the first
    // plan sees every pending event.
    drainAll();
    // Host code between runs may have changed what a parked stream
    // reads. Its node may have no heap event in this run, so the
    // check on entry to runTo would come late or never: ask here.
    for (const auto &q : queues_)
        q->checkStream();
    refreshFronts();
    ctrl_ = Control{limit, pred, prof};
    error_ = nullptr;
    const std::uint64_t spins = barrierSpinWakes();
    const std::uint64_t sleeps = barrierFutexSleeps();
    for (unsigned s = 0; s < shards_; ++s) {
        ShardState &st = shardStates_[s];
        st.localNext = st.nextTick();
        // A run stopped at its first boundary advances no stream:
        // every parked stream is due past tick 0 once a run is over.
        st.windowEnd = 0;
        std::fill(st.postedMin.begin(), st.postedMin.end(), maxTick);
        st.parity = 0;
        st.rounds = 0;
        // Rounds count from 0 in every run: the parity-p line reads
        // round p - 2, which has not reached round p.
        for (unsigned p = 0; p < 2; ++p)
            promiseLine(s, p, 0).round.store(p - 2,
                                             std::memory_order_relaxed);
    }
    std::vector<std::thread> threads;
    threads.reserve(shards_ - 1);
    for (unsigned w = 1; w < shards_; ++w)
        threads.emplace_back([this, w, t_enter] { workerBody(w, t_enter); });
    workerBody(0, t_enter);
    for (auto &t : threads)
        t.join();
    windows_ += shardStates_[0].rounds;
    if (prof) {
        // Each worker's tail — from its last clock read through the
        // joins — closes its budget for this run.
        const std::uint64_t t_exit = prof->nowNs();
        for (unsigned w = 0; w < shards_; ++w)
            prof->noteSpawn(w, shardStates_[w].profEnd, t_exit);
        prof->addBarrierWaits(barrierSpinWakes() - spins,
                              barrierFutexSleeps() - sleeps);
    }
    ctrl_ = Control{};
    if (error_)
        std::rethrow_exception(error_);
    return now();
}

Tick
ShardedEngine::run(Tick limit)
{
    return runWindows(nullptr, limit);
}

Tick
ShardedEngine::runUntil(const NodePredicate &pred, Tick limit)
{
    return runWindows(&pred, limit);
}

Tick
ShardedEngine::runSetup(const std::function<bool()> &pred, Tick limit)
{
    drainAll();
    // The canonical order picks events by heap front, so a stream
    // left parked by an earlier run wakes into the heap: its pending
    // load fires there with its own key, and the spin's later loads
    // are ordinary events, since step() parks nothing.
    for (const auto &q : queues_)
        q->wakeStream();
    refreshFronts();
    for (;;) {
        if (barrierHook_) {
            for (NodeId n = 0; n < nodeCount(); ++n)
                barrierHook_(n);
        }
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
ShardedEngine::firedInPlace() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->firedInPlace();
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
ShardedEngine::barrierSpinWakes() const
{
    std::uint64_t n = 0;
    for (const auto &st : shardStates_)
        n += st.wait.spinWakes();
    return n;
}

std::uint64_t
ShardedEngine::barrierFutexSleeps() const
{
    std::uint64_t n = 0;
    for (const auto &st : shardStates_)
        n += st.wait.futexSleeps();
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
