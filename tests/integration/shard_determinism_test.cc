/**
 * @file
 * The sharded engine's central contract, end to end: the same ring
 * workload run on 1, 2, 3, 4 and 8 shards produces bit-identical simulated
 * time and counters — the canonical mailbox drain order makes the
 * shard layout invisible to the simulation. Sizes are kept small so
 * the suite stays fast under TSan, where these tests are the main
 * multi-threaded engine coverage.
 */

#include <gtest/gtest.h>

#include "sim/sharded.hh"
#include "workload/ring.hh"

using namespace shrimp;
using workload::RingConfig;
using workload::RingResult;

namespace
{

RingConfig
smallRing(unsigned shards)
{
    RingConfig cfg;
    cfg.nodes = 4;
    cfg.records = 8;
    cfg.recordBytes = 1024;
    cfg.shards = shards;
    return cfg;
}

void
expectIdentical(const RingResult &a, const RingResult &b,
                const char *what)
{
    EXPECT_EQ(a.simTicks, b.simTicks) << what;
    EXPECT_EQ(a.simEvents, b.simEvents) << what;
    EXPECT_EQ(a.bytesRouted, b.bytesRouted) << what;
    EXPECT_EQ(a.messagesDelivered, b.messagesDelivered) << what;
    EXPECT_EQ(a.bytesDelivered, b.bytesDelivered) << what;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches) << what;
    EXPECT_EQ(a.digest, b.digest) << what;
}

} // namespace

TEST(ShardDeterminism, OneVsFourShards)
{
    RingResult r1 = workload::runRing(smallRing(1));
    RingResult r4 = workload::runRing(smallRing(4));
    expectIdentical(r1, r4, "shards=1 vs shards=4");
    EXPECT_GT(r1.messagesDelivered, 0u) << "workload actually ran";
    EXPECT_GT(r4.crossPosts, 0u) << "traffic crossed shards";
}

TEST(ShardDeterminism, UnevenShardCount)
{
    // 4 nodes on 3 shards: shard 0 executes two nodes, the drain
    // order must still be canonical.
    RingResult r1 = workload::runRing(smallRing(1));
    RingResult r3 = workload::runRing(smallRing(3));
    expectIdentical(r1, r3, "shards=1 vs shards=3");
}

TEST(ShardDeterminism, TwoAndThreeShardBlocksStayIdentical)
{
    // An 8-node ring on contiguous blocks: on 2 shards links 3 -> 4
    // and 7 -> 0 cross shards, on 3 shards three links do; the rest
    // are same-shard posts. Both must match one shard exactly.
    RingConfig cfg = smallRing(1);
    cfg.nodes = 8;
    const RingResult r1 = workload::runRing(cfg);
    for (unsigned shards : {2u, 3u}) {
        sim::ShardedEngine layout(cfg.nodes, shards, 1);
        unsigned crossing = 0;
        for (NodeId n = 0; n < cfg.nodes; ++n)
            crossing += layout.shardOf(n) != layout.shardOf((n + 1) % 8);
        EXPECT_EQ(crossing, shards) << shards << " shards";
        cfg.shards = shards;
        expectIdentical(r1, workload::runRing(cfg),
                        shards == 2 ? "8 nodes, shards=1 vs shards=2"
                                    : "8 nodes, shards=1 vs shards=3");
    }
}

TEST(ShardDeterminism, RerunIsBitIdentical)
{
    // The parallel run must also be stable against itself: thread
    // scheduling noise across two identical runs must not leak into
    // simulated time.
    RingResult a = workload::runRing(smallRing(4));
    RingResult b = workload::runRing(smallRing(4));
    expectIdentical(a, b, "rerun with shards=4");
}

TEST(ShardDeterminism, LargerRecordsStayIdentical)
{
    RingConfig cfg = smallRing(2);
    cfg.recordBytes = 4080;
    cfg.records = 4;
    RingConfig one = cfg;
    one.shards = 1;
    expectIdentical(workload::runRing(one), workload::runRing(cfg),
                    "4080-byte records, shards=1 vs shards=2");
}

TEST(ShardDeterminism, LargeMachineManyShards)
{
    // The 256-node shape the bench gates on, shrunk to one record per
    // node so the test stays affordable under TSan: 8 shards of 32
    // nodes each exercise the merged in-shard execution loop, direct
    // same-shard delivery, and the promise-based horizons at scale.
    RingConfig cfg;
    cfg.nodes = 256;
    cfg.records = 1;
    cfg.recordBytes = 1024;
    cfg.shards = 1;
    RingResult r1 = workload::runRing(cfg);
    cfg.shards = 8;
    RingResult r8 = workload::runRing(cfg);
    expectIdentical(r1, r8, "256 nodes, shards=1 vs shards=8");
    EXPECT_GT(r8.crossPosts, 0u);
}

TEST(ShardDeterminism, ZeroShardsIsOneShard)
{
    // shards=0 is not a mode of its own: the engine clamps it to one
    // shard, so it runs exactly the shards=1 simulation.
    RingConfig cfg = smallRing(0);
    RingResult r0 = workload::runRing(cfg);
    RingResult r1 = workload::runRing(smallRing(1));
    expectIdentical(r0, r1, "shards=0 vs shards=1");
    EXPECT_EQ(r0.crossPosts, r1.crossPosts);
    EXPECT_EQ(r0.windows, r1.windows);
    // At least the payload records arrive (plus automatic-update
    // credit messages on top).
    EXPECT_GE(r0.messagesDelivered,
              std::uint64_t(cfg.nodes) * cfg.records);
    EXPECT_GE(r0.bytesDelivered,
              std::uint64_t(cfg.nodes) * cfg.records
                  * cfg.recordBytes);
}
