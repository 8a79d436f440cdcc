/**
 * @file
 * Unit tests for the sharded simulation engine: shard/lookahead
 * clamping, contiguous placement, windowed and node-major execution,
 * the canonical cross-shard drain order, the round protocol (promise
 * lines, waits, per-node stop predicate and hook, errors) and the
 * sequential runSetup interleave. These run the real worker threads,
 * so they double as TSan coverage for the promise-line and mailbox
 * paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/flight_recorder.hh"
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

TEST(Sharded, ContiguousBlockShardAssignment)
{
    // Shard s holds the nodes n with n * shards / nodes == s: one
    // block of ascending ids per shard, sizes differing by at most one.
    for (const auto &[nodes, shards] :
         {std::pair{5u, 2u}, {10u, 4u}, {64u, 4u}, {256u, 8u}}) {
        ShardedEngine eng(nodes, shards, 10);
        ASSERT_EQ(eng.shardCount(), shards);
        std::vector<unsigned> owners(nodes, 0);
        std::size_t smallest = nodes;
        std::size_t largest = 0;
        NodeId next = 0;
        for (unsigned s = 0; s < shards; ++s) {
            const std::vector<EventQueue *> &queues = eng.shardQueues(s);
            smallest = std::min(smallest, queues.size());
            largest = std::max(largest, queues.size());
            for (EventQueue *q : queues) {
                // Ascending and contiguous: the next node in id order.
                ASSERT_LT(next, nodes);
                EXPECT_EQ(q, &eng.queue(next)) << nodes << "/" << shards;
                EXPECT_EQ(eng.shardOf(next), s);
                EXPECT_EQ(eng.shardOf(next),
                          unsigned(std::uint64_t(next) * shards / nodes));
                ++owners[next];
                ++next;
            }
        }
        EXPECT_EQ(next, nodes);
        EXPECT_EQ(std::count(owners.begin(), owners.end(), 1u),
                  std::ptrdiff_t(nodes))
            << "every node on exactly one shard";
        EXPECT_LE(largest - smallest, 1u) << nodes << "/" << shards;
    }
    ShardedEngine eng(5, 2, 10);
    EXPECT_EQ(eng.shardOf(0), 0u);
    EXPECT_EQ(eng.shardOf(2), 0u);
    EXPECT_EQ(eng.shardOf(3), 1u);
    EXPECT_EQ(eng.shardOf(4), 1u);
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
    ASSERT_NE(eng.shardOf(0), eng.shardOf(1));
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
        ASSERT_NE(eng.shardOf(src), eng.shardOf(3));
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
    ASSERT_NE(eng.shardOf(0), eng.shardOf(1));
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
    ASSERT_NE(eng.shardOf(0), eng.shardOf(1));
    std::atomic<int> fired{0};
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick",
                              [&fired] { ++fired; });
        eng.queue(1).schedule(t * 7, "test.tock",
                              [&fired] { ++fired; });
    }
    eng.runUntil([&fired](NodeId) { return fired >= 3; });
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
    ASSERT_NE(eng.shardOf(0), eng.shardOf(1));
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

    // The round that posted them ends at a boundary where the
    // predicate holds for both nodes: the messages are still staged,
    // not delivered. Node 0's predicate reads the flag its own events
    // write; node 1's always holds.
    eng.runUntil([&posted](NodeId n) { return n != 0 || posted; });
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
    // Shard 0 = {0, 1}, shard 1 = {2, 3}. Cell (0, 1) sees src 0
    // (floor 20) and src 1 (floor 80): the min wins.
    EXPECT_EQ(eng.pairLookahead(0, 1), 20u);
    EXPECT_EQ(eng.pairLookahead(1, 0), 80u) << "srcs 2 and 3 only";
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
    ASSERT_NE(eng.shardOf(0), eng.shardOf(2));
    bool delivered = false;
    eng.queue(0).schedule(10, "test.ok", [&eng, &delivered] {
        // 10 + 20 = 30: exactly at shard pair (0, 1)'s floor.
        eng.post(0, 2, 30, "test.x", [&delivered] { delivered = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(delivered);

    ShardedEngine bad(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    ASSERT_NE(bad.shardOf(2), bad.shardOf(0));
    bad.queue(2).schedule(10, "test.src", [&bad] {
        // Shard pair (1, 0) floor is 80; 10 + 50 lands inside it.
        bad.post(2, 0, 60, "test.bad", [] {},
                 EventPriority::Default);
    });
    EXPECT_THROW(bad.run(), PanicError);
}

TEST(Sharded, SameShardPostInsideTheDiagonalPanics)
{
    // The same-shard twin of CrossPostInsideThePairWindowPanics: nodes
    // 0 and 1 share shard 0, whose diagonal is the smaller of their
    // two floors. A post exactly at it is fine; one tick inside it
    // could land in the sub-window being executed, and panics.
    const ShardedEngine::PairLookahead la = [](NodeId src, NodeId) {
        return Tick(src == 0 ? 20 : 80);
    };
    ShardedEngine eng(4, 2, la);
    ASSERT_EQ(eng.shardOf(0), eng.shardOf(1));
    ASSERT_EQ(eng.pairLookahead(0, 0), 20u);
    bool delivered = false;
    eng.queue(0).schedule(10, "test.ok", [&eng, &delivered] {
        eng.post(0, 1, 30, "test.x", [&delivered] { delivered = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(delivered);

    ShardedEngine bad(4, 2, la);
    bad.queue(0).schedule(10, "test.src", [&bad] {
        bad.post(0, 1, 29, "test.bad", [] {}, EventPriority::Default);
    });
    EXPECT_THROW(bad.run(), PanicError);
}

TEST(Sharded, SameShardCrossPostsDeliverDirectly)
{
    // Nodes 0 and 1 share shard 0: the post skips the mailbox, is
    // executed in a later node-major sub-window at its exact tick,
    // and still counts as cross-node traffic.
    ShardedEngine eng(4, 2, 10);
    ASSERT_EQ(eng.shardOf(0), eng.shardOf(1));
    std::vector<Tick> seen;
    eng.queue(0).schedule(10, "test.src", [&eng, &seen] {
        eng.post(0, 1, 25, "test.x", [&eng, &seen] {
            seen.push_back(eng.queue(1).now());
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

/** A stream owner that counts what the queue asks it, and never
 *  wakes. */
class CountingOwner final : public StreamOwner
{
  public:
    void streamFired(std::uint64_t n) override { fired += n; }

    bool
    streamMustWake() override
    {
        ++asks;
        return false;
    }

    EventCallback streamWoken() override { return [] {}; }

    std::uint64_t fired = 0;
    std::uint64_t asks = 0;
};

/** The ring FlightRecorder::dumpAll prints for the live queue
 *  labelled @p label, without the label. */
std::string
ringOf(const std::string &label)
{
    std::ostringstream os;
    FlightRecorder::dumpAll(os);
    std::istringstream in(os.str());
    const std::string head = "  " + label + ": ";
    std::string line;
    std::string ring;
    bool inside = false;
    while (std::getline(in, line)) {
        if (inside) {
            if (line.rfind("    ", 0) != 0)
                break;
            ring += line + "\n";
        } else if (line.rfind(head, 0) == 0) {
            inside = true;
            ring += line.substr(head.size()) + "\n";
        }
    }
    return ring;
}

/** What a run leaves on one queue. */
struct QueueLeft
{
    Tick now = 0;
    std::uint64_t executed = 0;
    std::uint64_t inPlace = 0;
    std::uint64_t nextStamp = 0;
    std::string ring;
};

/** Read @p q (flight label @p label); takes its next stamp. */
QueueLeft
leftOn(EventQueue &q, const std::string &label)
{
    QueueLeft left;
    left.now = q.now();
    left.executed = q.eventsExecuted();
    left.inPlace = q.firedInPlace();
    left.ring = ringOf(label);
    left.nextStamp = q.allocStamp();
    return left;
}

/** At tick 5, an event on @p q that parks a stream of @p owner due at
 *  10 every 7 ticks (when @p park), or does nothing. */
void
scheduleParker(EventQueue &q, CountingOwner &owner, bool park)
{
    q.schedule(5, "test.park", [&q, &owner, park] {
        if (park) {
            ASSERT_TRUE(q.parkStream(10, 7, "test.stream",
                                     EventPriority::CpuResume, owner));
        }
    });
}

/** What node 0 holds once its stream has fired every event due by
 *  @p end, as it would had the engine run it in every sub-window: the
 *  same script on a standalone node-0 queue, run to @p end. */
QueueLeft
streamedTo(Tick end)
{
    CountingOwner owner;
    EventQueue q(0);
    q.setFlightLabel("reference");
    scheduleParker(q, owner, true);
    q.runTo(end);
    return leftOn(q, "reference");
}

void
expectSameLeft(const QueueLeft &got, const QueueLeft &want)
{
    EXPECT_EQ(got.now, want.now);
    EXPECT_EQ(got.executed, want.executed);
    EXPECT_EQ(got.inPlace, want.inPlace);
    EXPECT_EQ(got.nextStamp, want.nextStamp);
    EXPECT_EQ(got.ring, want.ring);
}

/** One run of a stream test: its rounds, the stream owner's asks and
 *  what node 0 holds at the end. */
struct StreamRun
{
    std::uint64_t windows = 0;
    std::uint64_t subWindows = 0;
    std::uint64_t asks = 0;
    QueueLeft node0;
    /** Node 1's clock at the end. */
    Tick node1 = 0;
};

} // namespace

TEST(Sharded, AParkedStreamHoldsNeitherItsNodeNorItsShardsPromise)
{
    // Node 0, alone on shard 0, parks a stream at tick 5 and has
    // nothing else pending; node 1, on shard 1, has an event every
    // 30 ticks. A stream never posts, so shard 0 promises nothing
    // while only the stream is pending: the run plans the rounds and
    // sub-windows it plans without the stream, node 0 is never run
    // again, and the owner is asked once, after the event that
    // parked the stream. The run reaches its limit, and node 0 then
    // holds what it would had it run in every sub-window.
    static constexpr Tick limit = 2000;
    auto run = [](bool park) {
        FlightRecorder::clearAll();
        CountingOwner owner;
        ShardedEngine eng(2, 2, 100);
        EXPECT_NE(eng.shardOf(0), eng.shardOf(1));
        scheduleParker(eng.queue(0), owner, park);
        for (Tick t = 30; t <= 3000; t += 30)
            eng.queue(1).schedule(t, "test.tick", [] {});
        EXPECT_LE(eng.run(limit), limit);
        return StreamRun{eng.windows(), eng.subWindows(), owner.asks,
                         leftOn(eng.queue(0), "node0"),
                         eng.queue(1).now()};
    };
    const StreamRun with = run(true);
    const StreamRun without = run(false);
    EXPECT_EQ(with.asks, 1u);
    EXPECT_EQ(with.windows, without.windows);
    EXPECT_EQ(with.subWindows, without.subWindows);
    EXPECT_EQ(with.node1, 1980u);
    const QueueLeft want = streamedTo(limit);
    EXPECT_EQ(want.now, 1998u);
    EXPECT_EQ(want.inPlace, 285u);
    expectSameLeft(with.node0, want);
}

TEST(Sharded, AParkedStreamCatchesUpWhereAStoppedRunEnds)
{
    // Shard 0 holds node 0, which parks a stream at tick 5 and has
    // nothing else pending, and node 1, which has an event at every
    // tick, so every window of shard 0 ends on one of node 1's
    // events. Node 2, on shard 1, raises a flag at tick 1,000 and the
    // run stops at the next boundary. Node 0 then holds what it would
    // had it run to shard 0's last window end, node 1's clock, and
    // not to the limit; its owner was asked once.
    static constexpr Tick limit = 100000;
    auto run = [](bool park) {
        FlightRecorder::clearAll();
        CountingOwner owner;
        ShardedEngine eng(3, 2, 100);
        EXPECT_EQ(eng.shardOf(1), eng.shardOf(0));
        EXPECT_NE(eng.shardOf(2), eng.shardOf(0));
        scheduleParker(eng.queue(0), owner, park);
        for (Tick t = 1; t <= 5000; ++t)
            eng.queue(1).schedule(t, "test.tick", [] {});
        bool flag = false;
        for (Tick t = 50; t <= 5000; t += 50) {
            eng.queue(2).schedule(t, "test.tock", [&eng, &flag] {
                flag = flag || eng.queue(2).now() >= 1000;
            });
        }
        eng.runUntil([&flag](NodeId n) { return n != 2 || flag; },
                     limit);
        EXPECT_TRUE(flag);
        return StreamRun{eng.windows(), eng.subWindows(), owner.asks,
                         leftOn(eng.queue(0), "node0"),
                         eng.queue(1).now()};
    };
    const StreamRun with = run(true);
    const StreamRun without = run(false);
    EXPECT_EQ(with.asks, 1u);
    EXPECT_EQ(with.windows, without.windows);
    EXPECT_EQ(with.subWindows, without.subWindows);
    EXPECT_EQ(with.node1, without.node1);
    EXPECT_GT(with.node1, 1000u);
    EXPECT_LT(with.node1, 1300u) << "stopped long before the limit";
    expectSameLeft(with.node0, streamedTo(with.node1));
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

struct WaitOutcome
{
    std::uint64_t spins = 0;
    std::uint64_t sleeps = 0;
};

/**
 * One thread per party runs @p rounds lock-step rounds the way the
 * engine's workers do: publish its own round word, then wait for every
 * peer's. Each thread owns its PeerWait.
 */
WaitOutcome
runPeerRounds(unsigned parties, unsigned cores, unsigned rounds)
{
    std::vector<std::atomic<std::uint32_t>> words(parties);
    for (auto &w : words)
        w.store(std::uint32_t(-1));
    std::vector<PeerWait> waits(parties, PeerWait(parties, cores));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < parties; ++t) {
        threads.emplace_back([&words, &waits, parties, rounds, t] {
            std::vector<const std::atomic<std::uint32_t> *> peers;
            for (unsigned p = 0; p < parties; ++p) {
                if (p != t)
                    peers.push_back(&words[p]);
            }
            for (std::uint32_t r = 0; r < rounds; ++r) {
                PeerWait::publish(words[t], r);
                waits[t].await(peers.data(), peers.size(), r);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    WaitOutcome out;
    for (const PeerWait &w : waits) {
        out.spins += w.spinWakes();
        out.sleeps += w.futexSleeps();
    }
    return out;
}

} // namespace

TEST(PeerWait, NeverSpinsWithFewerCoresThanShards)
{
    EXPECT_FALSE(PeerWait(3, 2).spins());
    const WaitOutcome o = runPeerRounds(3, 2, 200);
    EXPECT_EQ(o.spins, 0u) << "an oversubscribed waiter must not spin";
    EXPECT_EQ(o.sleeps, 3u * 200) << "every wait sleeps";
}

TEST(PeerWait, EveryWaitCountsExactlyOnce)
{
    EXPECT_TRUE(PeerWait(3, 3).spins());
    const WaitOutcome o = runPeerRounds(3, 3, 200);
    // Which way each wait resolved depends on timing; that each one
    // is counted exactly once does not.
    EXPECT_EQ(o.spins + o.sleeps, 3u * 200);
}

TEST(PeerWait, RoundWordsCompareAcrossTheWrap)
{
    EXPECT_TRUE(PeerWait::reached(5, 5));
    EXPECT_TRUE(PeerWait::reached(6, 5));
    EXPECT_FALSE(PeerWait::reached(3, 5));
    EXPECT_FALSE(PeerWait::reached(std::uint32_t(-2), 0));
    EXPECT_TRUE(PeerWait::reached(1, std::uint32_t(-1)));
}

TEST(Sharded, BarrierWaitCountersAccumulate)
{
    // Every shard waits for its peers once at every round boundary —
    // each round's and the final one — and each wait resolves either
    // by spinning or by a futex sleep, counted once.
    ShardedEngine eng(2, 2, 10);
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick", [] {});
        eng.queue(1).schedule(t * 7, "test.tock", [] {});
    }
    eng.run();
    ASSERT_GT(eng.windows(), 1u);
    EXPECT_EQ(eng.barrierSpinWakes() + eng.barrierFutexSleeps(),
              2 * (eng.windows() + 1));
    const std::uint64_t first = eng.windows();
    eng.queue(0).schedule(1000, "test.more", [] {});
    eng.run();
    EXPECT_EQ(eng.barrierSpinWakes() + eng.barrierFutexSleeps(),
              2 * (first + 1) + 2 * (eng.windows() - first + 1))
        << "summed over runs";
}

TEST(Sharded, NoShardSpinsWithMoreShardsThanCores)
{
    const unsigned shards = hostCoreCount() + 1;
    if (shards > 17)
        GTEST_SKIP() << "keeps the thread count small";
    ShardedEngine eng(shards, shards, 10);
    for (NodeId n = 0; n < shards; ++n) {
        for (Tick t = 1; t <= 10; ++t)
            eng.queue(n).schedule(t * 7, "test.tick", [] {});
    }
    eng.run();
    EXPECT_EQ(eng.barrierSpinWakes(), 0u);
    EXPECT_EQ(eng.barrierFutexSleeps(), shards * (eng.windows() + 1));
}

TEST(Sharded, OneShardNeverWaits)
{
    ShardedEngine eng(4, 1, 10);
    for (Tick t = 1; t <= 10; ++t)
        eng.queue(t % 4).schedule(t * 25, "test.tick", [] {});
    eng.run();
    EXPECT_GT(eng.windows(), 0u);
    EXPECT_EQ(eng.barrierSpinWakes() + eng.barrierFutexSleeps(), 0u);
}

TEST(Sharded, BarrierHookSeesAQuiescentWorld)
{
    // The hook runs for every node at every round boundary — each
    // round's and the final one — on the worker that owns the node:
    // one thread per shard, a different one for each shard. Each
    // counter is written only by its node's owner.
    ShardedEngine eng(4, 2, 10);
    ASSERT_EQ(eng.shardOf(1), eng.shardOf(0));
    ASSERT_EQ(eng.shardOf(3), eng.shardOf(2));
    ASSERT_NE(eng.shardOf(0), eng.shardOf(2));
    struct alignas(64) Seen
    {
        std::uint64_t hooks = 0;
        std::thread::id thread;
        bool sameThread = true;
    };
    std::vector<Seen> seen(4);
    eng.setBarrierHook([&seen](NodeId n) {
        Seen &s = seen[n];
        if (s.hooks++ == 0)
            s.thread = std::this_thread::get_id();
        s.sameThread &= s.thread == std::this_thread::get_id();
    });
    for (Tick t = 1; t <= 20; ++t)
        eng.queue(t % 4).schedule(t * 25, "test.tick", [] {});
    eng.run();
    ASSERT_GT(eng.windows(), 1u);
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(seen[n].hooks, eng.windows() + 1) << "node " << n;
        EXPECT_TRUE(seen[n].sameThread) << "node " << n;
    }
    EXPECT_EQ(seen[0].thread, seen[1].thread);
    EXPECT_EQ(seen[2].thread, seen[3].thread);
    EXPECT_NE(seen[0].thread, seen[2].thread);
}

TEST(Sharded, RunUntilAsksEachNodeOnItsOwnShard)
{
    // The predicate stops the run once it holds for every node. Here
    // node 3 finishes last, so the run goes on until its events are
    // done even though the others' hold from the start.
    ShardedEngine eng(4, 2, 10);
    struct alignas(64) Count
    {
        int fired = 0;
    };
    std::vector<Count> counts(4);
    for (NodeId n = 0; n < 4; ++n) {
        const int events = n == 3 ? 30 : 1;
        for (int k = 1; k <= events; ++k)
            eng.queue(n).schedule(Tick(k) * 20, "test.tick",
                                  [&counts, n] { ++counts[n].fired; });
    }
    eng.runUntil([&counts](NodeId n) {
        return n != 3 || counts[3].fired >= 30;
    });
    EXPECT_EQ(counts[3].fired, 30);
    EXPECT_EQ(eng.pendingEvents(), 0u);
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

TEST(Sharded, AnExceptionStopsEveryShardInTheSameRound)
{
    // Node 5 (shard 2 of 4) throws at tick 500 while every node has
    // an event every 5 ticks to tick 5,000. The throwing shard sets
    // its error bit at the next boundary, and every shard reads it
    // there: none runs a round past the one that threw. With windows
    // one lookahead (10 ticks) wide, no node gets far past tick 500.
    constexpr unsigned kNodes = 8;
    ShardedEngine eng(kNodes, 4, 10);
    ASSERT_EQ(eng.shardOf(5), 2u);
    struct alignas(64) Last
    {
        Tick tick = 0;
    };
    std::vector<Last> last(kNodes);
    for (NodeId n = 0; n < kNodes; ++n) {
        for (Tick t = 5; t <= 5000; t += 5) {
            eng.queue(n).schedule(t, "test.tick", [&eng, &last, n] {
                last[n].tick = eng.queue(n).now();
            });
        }
    }
    eng.queue(5).schedule(500, "test.boom",
                          [] { panic("boom on shard 2"); });
    EXPECT_THROW(eng.run(), PanicError);
    for (NodeId n = 0; n < kNodes; ++n) {
        EXPECT_GE(last[n].tick, 480u) << "node " << n;
        EXPECT_LE(last[n].tick, 530u) << "node " << n;
    }
}
