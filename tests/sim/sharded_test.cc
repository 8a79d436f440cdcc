/**
 * @file
 * Unit tests for the sharded simulation engine: shard/lookahead
 * clamping, windowed and node-major execution, the canonical
 * cross-shard drain order, and the sequential runSetup interleave.
 * These run the real worker threads, so they double as TSan coverage
 * for the barrier and mailbox paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/sharded.hh"

using namespace shrimp;
using namespace shrimp::sim;

TEST(Sharded, ClampsShardsAndLookahead)
{
    ShardedEngine eng(4, 8, 0);
    EXPECT_EQ(eng.nodeCount(), 4u);
    EXPECT_EQ(eng.shardCount(), 4u) << "no more shards than nodes";
    EXPECT_EQ(eng.lookahead(), 1u) << "lookahead floor is one tick";
}

TEST(Sharded, RoundRobinShardAssignment)
{
    ShardedEngine eng(5, 2, 10);
    EXPECT_EQ(eng.shardOf(0), 0u);
    EXPECT_EQ(eng.shardOf(1), 1u);
    EXPECT_EQ(eng.shardOf(2), 0u);
    EXPECT_EQ(eng.shardOf(4), 0u);
}

TEST(Sharded, RunsNodeLocalEventsToCompletion)
{
    ShardedEngine eng(3, 3, 100);
    std::vector<std::uint64_t> fired(3, 0);
    for (NodeId n = 0; n < 3; ++n) {
        std::uint64_t *slot = &fired[n];
        for (Tick t = 1; t <= 5; ++t)
            eng.queue(n).schedule(t * 250, "test.local",
                                  [slot] { ++*slot; });
    }
    eng.run();
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(fired[n], 5u) << "node " << n;
    EXPECT_EQ(eng.eventsExecuted(), 15u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.crossPosts(), 0u);
}

TEST(Sharded, CrossPostsDeliverAtTheRequestedTick)
{
    ShardedEngine eng(2, 2, 50);
    std::vector<Tick> seen;
    eng.queue(0).schedule(10, "test.src", [&eng] {
        // From node 0's shard, one hop in the future.
        eng.post(0, 1, 60, "test.x", [] {},
                 EventPriority::Default);
    });
    eng.queue(1).schedule(60, "test.probe", [&eng, &seen] {
        seen.push_back(eng.queue(1).now());
    });
    eng.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 60u);
    EXPECT_EQ(eng.crossPosts(), 1u);
    EXPECT_GE(eng.windows(), 1u);
}

TEST(Sharded, DrainOrderIsTickPriorityThenSourceNode)
{
    // Three sources converge on node 3 at the same tick; however the
    // shards interleave, execution order on node 3 must be the
    // canonical (tick, priority, source) order.
    ShardedEngine eng(4, 4, 10);
    std::vector<int> order;
    for (NodeId src = 0; src < 3; ++src) {
        eng.queue(src).schedule(
            5, "test.src", [&eng, &order, src] {
                // Reversed priorities across sources so source order
                // alone would be wrong: node 2 posts the
                // highest-priority event.
                auto prio = src == 2 ? EventPriority::DeviceCompletion
                                     : EventPriority::Default;
                eng.post(src, 3, 20, "test.x",
                         [&order, src] { order.push_back(int(src)); },
                         prio);
            });
    }
    eng.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 2) << "DeviceCompletion runs first";
    EXPECT_EQ(order[1], 0) << "then ascending source node";
    EXPECT_EQ(order[2], 1);
}

TEST(Sharded, SelfPostSchedulesDirectly)
{
    ShardedEngine eng(2, 2, 100);
    bool fired = false;
    eng.queue(0).schedule(1, "test.src", [&eng, &fired] {
        // src == dst is exempt from the lookahead rule.
        eng.post(0, 0, 2, "test.self", [&fired] { fired = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eng.crossPosts(), 0u) << "self-sends skip the mailbox";
}

TEST(Sharded, CrossPostInsideTheWindowPanics)
{
    ShardedEngine eng(2, 2, 100);
    eng.queue(0).schedule(50, "test.src", [&eng] {
        // 100 < 50 + lookahead: would land inside the current window.
        eng.post(0, 1, 100, "test.bad", [] {},
                 EventPriority::Default);
    });
    EXPECT_THROW(eng.run(), PanicError);
}

TEST(Sharded, RunStopsAtTheLimit)
{
    ShardedEngine eng(2, 2, 10);
    int fired = 0;
    eng.queue(0).schedule(5, "test.a", [&fired] { ++fired; });
    eng.queue(0).schedule(500, "test.b", [&fired] { ++fired; });
    Tick t = eng.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_LE(t, 100u);
    EXPECT_EQ(eng.pendingEvents(), 1u);
    eng.run();
    EXPECT_EQ(fired, 2);
}

TEST(Sharded, RunUntilStopsAtABarrierOncePredHolds)
{
    // Both shards hold pending events, so each one's promise bounds
    // the other's horizon to ~one lookahead and the predicate gets a
    // barrier to stop at long before the queues drain. (A shard with
    // no incoming traffic would instead run to the limit in one
    // window — see WindowsWidenForDecoupledShards.)
    ShardedEngine eng(2, 2, 10);
    std::atomic<int> fired{0};
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick",
                              [&fired] { ++fired; });
        eng.queue(1).schedule(t * 7, "test.tock",
                              [&fired] { ++fired; });
    }
    eng.runUntil([&fired] { return fired >= 3; });
    EXPECT_GE(fired, 3);
    EXPECT_LT(fired, 40) << "stopped well before the queues drained";
}

TEST(Sharded, OneRoundOfCrossPostsOverflowsNothing)
{
    // Node 0 posts 5,000 messages to node 1 (the other shard) from
    // one event, so all of them travel in one round — far more than
    // the mailbox reserves. Four share each tick, posted interleaved
    // with other ticks' messages, so the stamp decides their order.
    constexpr int kMsgs = 5000;
    constexpr int kTicks = kMsgs / 4;
    ShardedEngine eng(2, 2, 10);
    std::vector<std::pair<Tick, int>> seen;
    bool posted = false;
    eng.queue(0).schedule(10, "test.burst", [&eng, &seen, &posted] {
        for (int i = 0; i < kMsgs; ++i) {
            eng.post(0, 1, Tick(20 + i % kTicks), "test.x",
                     [&eng, &seen, i] {
                         seen.emplace_back(eng.queue(1).now(), i);
                     },
                     EventPriority::Default);
        }
        posted = true;
    });

    // The round that posted them ends at a barrier where the
    // predicate holds: the messages are still staged, not delivered.
    eng.runUntil([&posted] { return posted; });
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(eng.queue(1).pendingEvents(), 0u);
    EXPECT_EQ(eng.pendingEvents(), std::uint64_t(kMsgs));
    EXPECT_EQ(eng.crossPosts(), std::uint64_t(kMsgs));

    eng.run();
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < kMsgs; ++i)
        want.emplace_back(Tick(20 + i % kTicks), i);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen, want) << "each at its tick, ties in stamp order";
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.crossPosts(), std::uint64_t(kMsgs));
}

TEST(Sharded, WindowsWidenForDecoupledShards)
{
    // Promise-based horizons: shard 1 has nothing pending, so the
    // earliest thing it could ever send shard 0 is a reflection of
    // shard 0's own traffic — a full round trip away. Shard 0's
    // window therefore spans two lookaheads (200000 ticks), and the
    // whole 50000-tick run completes in one planned window instead of
    // one per event gap.
    ShardedEngine eng(2, 2, 100000);
    int fired = 0;
    for (Tick t = 1; t <= 50; ++t)
        eng.queue(0).schedule(t * 1000, "test.tick",
                              [&fired] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 50);
    EXPECT_LE(eng.windows(), 2u)
        << "the run should fit in one round-trip-wide window";
}

TEST(Sharded, PairLookaheadFoldsNodePairMinima)
{
    // Distance-aware construction: the engine keeps a per-(src shard,
    // dst shard) matrix holding the minimum over the node pairs that
    // map onto each cell.
    ShardedEngine eng(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    // Shard 0 = {0, 2}, shard 1 = {1, 3}. Cell (0, 1) sees src 0
    // (floor 20) and src 2 (floor 80): the min wins.
    EXPECT_EQ(eng.pairLookahead(0, 1), 20u);
    EXPECT_EQ(eng.pairLookahead(1, 0), 80u) << "srcs 1 and 3 only";
    EXPECT_EQ(eng.lookahead(), 20u) << "min over the whole matrix";
}

TEST(Sharded, CrossPostInsideThePairWindowPanics)
{
    // The posting rule is per shard pair: a post that satisfies the
    // matrix minimum is fine, one inside its own pair's floor panics
    // even though other pairs have smaller floors.
    ShardedEngine eng(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    bool delivered = false;
    eng.queue(0).schedule(10, "test.ok", [&eng, &delivered] {
        // 10 + 20 = 30: exactly at shard pair (0, 1)'s floor.
        eng.post(0, 1, 30, "test.x", [&delivered] { delivered = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(delivered);

    ShardedEngine bad(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    bad.queue(1).schedule(10, "test.src", [&bad] {
        // Shard pair (1, 0) floor is 80; 10 + 50 lands inside it.
        bad.post(1, 0, 60, "test.bad", [] {},
                 EventPriority::Default);
    });
    EXPECT_THROW(bad.run(), PanicError);
}

TEST(Sharded, SameShardPostInsideTheDiagonalPanics)
{
    // The same-shard twin of CrossPostInsideThePairWindowPanics: nodes
    // 0 and 2 share shard 0, whose diagonal is the smaller of their
    // two floors. A post exactly at it is fine; one tick inside it
    // could land in the sub-window being executed, and panics.
    const ShardedEngine::PairLookahead la = [](NodeId src, NodeId) {
        return Tick(src == 0 ? 20 : 80);
    };
    ShardedEngine eng(4, 2, la);
    ASSERT_EQ(eng.pairLookahead(0, 0), 20u);
    bool delivered = false;
    eng.queue(0).schedule(10, "test.ok", [&eng, &delivered] {
        eng.post(0, 2, 30, "test.x", [&delivered] { delivered = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(delivered);

    ShardedEngine bad(4, 2, la);
    bad.queue(0).schedule(10, "test.src", [&bad] {
        bad.post(0, 2, 29, "test.bad", [] {}, EventPriority::Default);
    });
    EXPECT_THROW(bad.run(), PanicError);
}

TEST(Sharded, SameShardCrossPostsDeliverDirectly)
{
    // Nodes 0 and 2 share shard 0: the post skips the mailbox, is
    // executed in a later node-major sub-window at its exact tick,
    // and still counts as cross-node traffic.
    ShardedEngine eng(4, 2, 10);
    std::vector<Tick> seen;
    eng.queue(0).schedule(10, "test.src", [&eng, &seen] {
        eng.post(0, 2, 25, "test.x", [&eng, &seen] {
            seen.push_back(eng.queue(2).now());
        }, EventPriority::Default);
    });
    eng.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 25u);
    EXPECT_EQ(eng.crossPosts(), 1u)
        << "direct same-shard deliveries count as cross posts";
}

TEST(Sharded, NodeMajorShardFiresNodesInAscendingOrder)
{
    // 17 nodes share one shard; the lookahead is 10, so one sub-window
    // spans ticks [42, 51]. Each node has one event in it, scheduled
    // in scrambled node order, and higher nodes (mod 10) hold earlier
    // ticks. Node-major execution fires them in ascending node order,
    // not tick order, each at its own tick.
    ShardedEngine eng(17, 1, 10);
    std::vector<std::pair<Tick, int>> seen;
    for (unsigned k = 0; k < 17; ++k) {
        const NodeId n = (k * 7) % 17;
        eng.queue(n).schedule(51 - n % 10, "test.same", [&eng, &seen, n] {
            seen.emplace_back(eng.queue(n).now(), int(n));
        });
    }
    eng.run();
    std::vector<std::pair<Tick, int>> want;
    for (int n = 0; n < 17; ++n)
        want.emplace_back(Tick(51 - n % 10), n);
    EXPECT_EQ(seen, want);
    EXPECT_EQ(eng.subWindows(), 1u);
}

TEST(Sharded, NodeMajorPostOneLookaheadOutFiresInTheNextSubWindow)
{
    // The lookahead is 5. The first sub-window is [10, 14]: node 3
    // fires its tick-12 event, then node 16 fires at tick 10 and posts
    // to node 3 exactly one lookahead out, at tick 15. The post lands
    // in the second sub-window, [15, 19], where node 3 fires it at
    // tick 15 and then its own tick-17 event — after node 2's tick-16
    // event and before node 5's tick-15 one (ascending node order).
    ShardedEngine eng(17, 1, 5);
    std::vector<std::pair<Tick, int>> seen;
    auto note = [&eng, &seen](NodeId n) {
        return [&eng, &seen, n] {
            seen.emplace_back(eng.queue(n).now(), int(n));
        };
    };
    eng.queue(16).schedule(10, "test.src", [&eng, &seen] {
        seen.emplace_back(eng.queue(16).now(), 16);
        eng.post(16, 3, 15, "test.x", [&eng, &seen] {
            seen.emplace_back(eng.queue(3).now(), 3);
        }, EventPriority::Default);
    });
    eng.queue(3).schedule(12, "test.first", note(3));
    eng.queue(3).schedule(17, "test.later", note(3));
    eng.queue(2).schedule(16, "test.before", note(2));
    eng.queue(5).schedule(15, "test.after", note(5));
    eng.run();
    const std::vector<std::pair<Tick, int>> want{
        {12, 3}, {10, 16}, {16, 2}, {15, 3}, {17, 3}, {15, 5}};
    EXPECT_EQ(seen, want);
    EXPECT_EQ(eng.crossPosts(), 1u);
    EXPECT_EQ(eng.subWindows(), 2u);
}

namespace
{

/** One fired event as its node saw it: the node's clock, the
 *  priority, and the (origin node, per-origin count) identity. */
using Fired = std::tuple<Tick, int, NodeId, std::uint64_t>;

/** One node's order: (tick, priority, origin node, per-origin count).
 *  The count rises in the order the origin allocates stamps, so it
 *  orders ties exactly as the stamp does. */
using OrderKey = std::tuple<Tick, int, NodeId, std::uint64_t>;

/**
 * A random workload for the engine-order test. Each node draws from
 * its own RNG, seeded by (seed, node), and only inside its own events,
 * so a node that fires the same sequence makes the same choices under
 * any shard layout. Until its node's budget runs out, each fired
 * event twice picks one of three actions: schedule on its own node
 * (possibly at the same tick), cancel one of its node's handles, or
 * post to another node one lookahead or more ahead.
 */
class OrderFuzz
{
  public:
    OrderFuzz(unsigned seed, unsigned nodes, Tick lookahead,
              unsigned shards)
        : eng_(nodes, shards, lookahead), lookahead_(lookahead),
          shadowed_(eng_.shardCount() == 1), fired_(nodes),
          shadow_(nodes), mine_(nodes), made_(nodes, 0),
          budget_(nodes, 160)
    {
        for (NodeId n = 0; n < nodes; ++n)
            rng_.emplace_back(std::uint64_t(seed) << 32 | n);
        // A narrow start across three priorities: ties are common.
        for (NodeId n = 0; n < nodes; ++n) {
            for (int k = 0; k < 4; ++k)
                add(n, n, 1 + rng_[n].below(4));
        }
    }

    /** Run to completion; every node's firing sequence. */
    const std::vector<std::vector<Fired>> &
    run()
    {
        eng_.run();
        return fired_;
    }

    /** One shard only: events that were not their node's shadow
     *  minimum when they fired, and events the shadows still hold. */
    unsigned outOfOrder() const { return outOfOrder_; }
    std::size_t
    shadowLeft() const
    {
        std::size_t n = 0;
        for (const auto &shadow : shadow_)
            n += shadow.size();
        return n;
    }

    /** One shard only: cross-node events that fired, and those of
     *  them that fired in the sub-window they were posted in. */
    unsigned crossFired() const { return crossFired_; }
    unsigned sameSubWindow() const { return sameSubWindow_; }

  private:
    /** Create one event from @p origin for @p node at @p when:
     *  scheduled on its own queue, or posted across nodes. */
    void
    add(NodeId origin, NodeId node, Tick when)
    {
        static constexpr EventPriority prios[] = {
            EventPriority::DeviceCompletion, EventPriority::Default,
            EventPriority::CpuResume};
        const EventPriority prio = prios[rng_[origin].below(3)];
        const OrderKey key{when, int(prio), origin, made_[origin]++};
        // On one shard every event runs on this thread, so the
        // sub-window count is the one this event is created in.
        const std::uint64_t posted_in = shadowed_ ? eng_.subWindows() : 0;
        auto fire = [this, node, key, posted_in] {
            onFire(node, key, posted_in);
        };
        if (origin == node) {
            mine_[node].emplace_back(
                eng_.queue(node).schedule(when, "test.fuzz", fire, prio),
                key);
        } else {
            eng_.post(origin, node, when, "test.fuzz", fire, prio);
        }
        if (shadowed_)
            shadow_[node].insert(key);
    }

    void
    onFire(NodeId node, const OrderKey &key, std::uint64_t posted_in)
    {
        const auto [when, prio, origin, count] = key;
        if (shadowed_) {
            std::set<OrderKey> &shadow = shadow_[node];
            if (shadow.empty() || *shadow.begin() != key
                || eng_.queue(node).now() != when)
                ++outOfOrder_;
            shadow.erase(key);
            if (origin != node) {
                ++crossFired_;
                if (eng_.subWindows() <= posted_in)
                    ++sameSubWindow_;
            }
        }
        fired_[node].emplace_back(eng_.queue(node).now(), prio, origin,
                                  count);
        Random &rng = rng_[node];
        for (int k = 0; k < 2 && budget_[node] > 0; ++k) {
            --budget_[node];
            switch (rng.below(3)) {
              case 0:
                add(node, node, when + rng.below(3));
                break;
              case 1:
                cancelOne(node);
                break;
              default: {
                const unsigned n = eng_.nodeCount();
                const NodeId dst =
                    NodeId((node + 1 + rng.below(n - 1)) % n);
                add(node, dst, when + lookahead_ + rng.below(3));
                break;
              }
            }
        }
    }

    /** Deschedule a random handle of @p node's own events, pending
     *  or not (a fired or cancelled one is a detected no-op). */
    void
    cancelOne(NodeId node)
    {
        auto &mine = mine_[node];
        if (mine.empty())
            return;
        const std::size_t i = rng_[node].below(mine.size());
        if (eng_.queue(node).deschedule(mine[i].first) && shadowed_)
            shadow_[node].erase(mine[i].second);
        mine[i] = mine.back();
        mine.pop_back();
    }

    ShardedEngine eng_;
    const Tick lookahead_;
    const bool shadowed_;
    std::vector<Random> rng_;
    std::vector<std::vector<Fired>> fired_;
    /** Per node: its pending events in the order it must fire them. */
    std::vector<std::set<OrderKey>> shadow_;
    std::vector<std::vector<std::pair<EventHandle, OrderKey>>> mine_;
    std::vector<std::uint64_t> made_;
    std::vector<unsigned> budget_;
    unsigned outOfOrder_ = 0;
    unsigned crossFired_ = 0;
    unsigned sameSubWindow_ = 0;
};

} // namespace

TEST(Sharded, RandomizedOrderIsCanonicalOnEveryShardLayout)
{
    // Every node fires its own events in canonical (tick, priority,
    // stamp) order. On one shard each fired event must be its node's
    // shadow minimum, and no cross-node event may fire in the
    // node-major sub-window it was posted in; on 2, 3 and one-per-node
    // shards every node must fire exactly the one-shard sequence. The
    // interleaving across nodes is not checked: node-major execution
    // does not keep a global order.
    for (unsigned seed = 0; seed < 24; ++seed) {
        const unsigned nodes = 2 + seed % 16;
        const Tick lookahead = 1 + seed % 5;
        OrderFuzz ref(seed, nodes, lookahead, 1);
        const auto want = ref.run();
        EXPECT_EQ(ref.outOfOrder(), 0u) << "seed " << seed;
        EXPECT_EQ(ref.shadowLeft(), 0u) << "seed " << seed;
        EXPECT_GT(ref.crossFired(), 0u) << "seed " << seed;
        EXPECT_EQ(ref.sameSubWindow(), 0u) << "seed " << seed;
        std::size_t total = 0;
        for (const auto &seq : want)
            total += seq.size();
        ASSERT_GT(total, std::size_t(nodes) * 40) << "seed " << seed;
        for (unsigned shards : {2u, 3u, nodes}) {
            OrderFuzz run(seed, nodes, lookahead, shards);
            EXPECT_EQ(run.run(), want)
                << "seed " << seed << ", " << nodes << " nodes, "
                << shards << " shards, lookahead " << lookahead;
        }
    }
}

namespace
{

struct BarrierOutcome
{
    unsigned completions = 0;
    std::uint64_t spins = 0;
    std::uint64_t sleeps = 0;
};

/** One thread per party crosses a fresh barrier @p rounds times. */
BarrierOutcome
runBarrierRounds(unsigned parties, unsigned cores, unsigned rounds)
{
    BarrierOutcome out;
    SpinBarrier bar(parties, [&out] { ++out.completions; }, cores);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < parties; ++t) {
        threads.emplace_back([&bar, rounds] {
            for (unsigned r = 0; r < rounds; ++r)
                bar.arriveAndWait();
        });
    }
    for (auto &t : threads)
        t.join();
    out.spins = bar.spinWakes();
    out.sleeps = bar.futexSleeps();
    return out;
}

} // namespace

TEST(SpinBarrier, NeverSpinsWithFewerCoresThanParties)
{
    EXPECT_FALSE(SpinBarrier(3, {}, 2).spins());
    const BarrierOutcome o = runBarrierRounds(3, 2, 200);
    EXPECT_EQ(o.completions, 200u);
    EXPECT_EQ(o.spins, 0u) << "an oversubscribed waiter must not spin";
    EXPECT_EQ(o.sleeps, 2u * 200) << "every non-last arrival sleeps";
}

TEST(SpinBarrier, EveryNonLastArrivalResolvesExactlyOnce)
{
    EXPECT_TRUE(SpinBarrier(3, {}, 3).spins());
    const BarrierOutcome o = runBarrierRounds(3, 3, 200);
    EXPECT_EQ(o.completions, 200u);
    // Which way each wait resolved depends on timing; that each one
    // is counted exactly once does not.
    EXPECT_EQ(o.spins + o.sleeps, 2u * 200);
}

TEST(Sharded, BarrierWaitCountersAccumulate)
{
    // Every non-last arrival at the round barrier resolves either by
    // spinning or by a futex sleep; with two workers and a few rounds
    // the sum must be nonzero (which of the two depends on timing).
    ShardedEngine eng(2, 2, 10);
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick", [] {});
        eng.queue(1).schedule(t * 7, "test.tock", [] {});
    }
    eng.run();
    EXPECT_GT(eng.barrierSpinWakes() + eng.barrierFutexSleeps(), 0u);
}

TEST(Sharded, BarrierHookSeesAQuiescentWorld)
{
    ShardedEngine eng(2, 2, 10);
    std::uint64_t hooks = 0;
    eng.setBarrierHook([&hooks] { ++hooks; });
    for (Tick t = 1; t <= 10; ++t)
        eng.queue(t % 2).schedule(t * 25, "test.tick", [] {});
    eng.run();
    EXPECT_GT(hooks, 0u);
    EXPECT_GE(hooks, eng.windows());
}

TEST(Sharded, RunSetupInterleavesInCanonicalNodeOrder)
{
    // Same tick, same priority on every node: setup must execute them
    // in ascending node order, whatever the shard layout.
    ShardedEngine eng(3, 2, 10);
    std::vector<int> order;
    for (NodeId n = 0; n < 3; ++n) {
        eng.queue(n).schedule(42, "test.same",
                              [&order, n] { order.push_back(int(n)); });
    }
    eng.runSetup([] { return false; });
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Sharded, RunSetupStopsAtThePredicate)
{
    ShardedEngine eng(2, 1, 10);
    int fired = 0;
    for (Tick t = 1; t <= 10; ++t)
        eng.queue(0).schedule(t, "test.tick", [&fired] { ++fired; });
    eng.runSetup([&fired] { return fired == 4; });
    EXPECT_EQ(fired, 4) << "checked after every event, not windowed";
    eng.run();
    EXPECT_EQ(fired, 10);
}

TEST(Sharded, WorkerExceptionPropagatesToTheCaller)
{
    ShardedEngine eng(2, 2, 10);
    eng.queue(1).schedule(5, "test.boom",
                          [] { panic("boom on a worker thread"); });
    EXPECT_THROW(eng.run(), PanicError);
}
