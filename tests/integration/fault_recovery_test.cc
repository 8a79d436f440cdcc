/**
 * @file
 * End-to-end recovery tests for the fault-injection layer: a lossy,
 * corrupting, duplicating, reordering backplane must not change what
 * the receivers drain into memory — only when. Exactly-once delivery
 * is checked against a fault-free reference run via the payload data
 * digest, shard-count invariance is checked with the retry counters
 * folded in, and the invariant auditor must stay quiet while the NI
 * retransmission machinery is working hard.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/system.hh"
#include "shrimp/fault.hh"
#include "sim/params.hh"
#include "workload/ring.hh"

using namespace shrimp;
using workload::RingConfig;
using workload::RingResult;
using workload::runRing;

namespace
{

/** A small ring with a nasty but recoverable backplane. */
RingConfig
faultyRing(unsigned shards)
{
    RingConfig cfg;
    cfg.nodes = 4;
    cfg.records = 8;
    cfg.recordBytes = 1024;
    cfg.shards = shards;
    EXPECT_TRUE(net::parseFaultSpec(
        "drop=0.05,corrupt=0.03,dup=0.03,delay=0.05,delay-us=30,seed=9",
        cfg.faults, nullptr));
    return cfg;
}

/** Bit-identical simulation, including every recovery action. */
void
expectSameRun(const RingResult &seq, const RingResult &par)
{
    EXPECT_EQ(seq.digest, par.digest);
    EXPECT_EQ(seq.dataDigest, par.dataDigest);
    EXPECT_EQ(seq.simTicks, par.simTicks);
    EXPECT_EQ(seq.simEvents, par.simEvents);
    EXPECT_EQ(seq.bytesRouted, par.bytesRouted);
    EXPECT_EQ(seq.retransmits, par.retransmits);
    EXPECT_EQ(seq.fastRetransmits, par.fastRetransmits);
    EXPECT_EQ(seq.timeouts, par.timeouts);
    EXPECT_EQ(seq.acksSent, par.acksSent);
    EXPECT_EQ(seq.rxDupDropped, par.rxDupDropped);
    EXPECT_EQ(seq.rxCorruptDropped, par.rxCorruptDropped);
    EXPECT_EQ(seq.rxOooBuffered, par.rxOooBuffered);
    EXPECT_EQ(seq.ecnMarked, par.ecnMarked);
    EXPECT_EQ(seq.cwndCuts, par.cwndCuts);
    EXPECT_EQ(seq.faults.decisions, par.faults.decisions);
    EXPECT_EQ(seq.faults.dropped, par.faults.dropped);
    EXPECT_EQ(seq.faults.corrupted, par.faults.corrupted);
    EXPECT_EQ(seq.faults.duplicated, par.faults.duplicated);
    EXPECT_EQ(seq.faults.delayed, par.faults.delayed);
}

void
expectAllDelivered(const RingResult &r, const RingConfig &cfg)
{
    EXPECT_EQ(r.nodesDone, cfg.nodes);
    EXPECT_EQ(r.chunksUnacked, 0u);
    EXPECT_TRUE(r.lostFlows.empty());
    // Payload records plus the credit-return messages riding the same
    // channels; the exact-count comparison lives against the
    // fault-free reference run, not a formula.
    EXPECT_GE(r.messagesDelivered,
              std::uint64_t(cfg.nodes) * cfg.records);
}

/** Apply @p flag (an `--audit=` option) to every System built next. */
void
auditFlag(std::string flag)
{
    char prog[] = "test";
    char *argv[] = {prog, flag.data()};
    int argc = 2;
    ASSERT_TRUE(core::parseRunOptions(argc, argv).ok) << flag;
}

} // namespace

TEST(FaultRecovery, ExactlyOnceDeliveryUnderFaults)
{
    RingConfig clean = faultyRing(1);
    clean.faults = net::FaultConfig{}; // fault-free reference
    RingResult ref = runRing(clean);
    expectAllDelivered(ref, clean);
    EXPECT_EQ(ref.retransmits, 0u);
    EXPECT_EQ(ref.timeouts, 0u);

    RingConfig cfg = faultyRing(1);
    RingResult r = runRing(cfg);
    expectAllDelivered(r, cfg);

    // The run must not be vacuous: the links really misbehaved and
    // the NI really recovered.
    EXPECT_GT(r.faults.dropped + r.faults.corrupted, 0u)
        << "fault spec injected nothing; the test proves nothing";
    EXPECT_GT(r.retransmits, 0u);

    // Exactly-once: every receiver drained exactly the bytes the
    // fault-free run drained, in the same per-flow order.
    EXPECT_EQ(r.dataDigest, ref.dataDigest);
    EXPECT_EQ(r.bytesDelivered, ref.bytesDelivered);
    EXPECT_EQ(r.messagesDelivered, ref.messagesDelivered);
}

TEST(FaultRecovery, ShardCountInvariantUnderFaults)
{
    RingResult seq = runRing(faultyRing(1));
    RingResult par = runRing(faultyRing(4));
    expectSameRun(seq, par);
    EXPECT_GT(seq.retransmits, 0u) << "no recovery exercised";
}

TEST(FaultRecovery, MeshShardCountInvariantUnderFaults)
{
    // The same faulty ring on a 2x2 mesh, where the ring's 1 -> 2 and
    // 3 -> 0 routes pass through an intermediate node: chunk payloads
    // are cloned, corrupted, duplicated and forwarded hop by hop, and
    // with four shards each hop hands its payload to another shard.
    auto meshRing = [](unsigned shards) {
        RingConfig cfg = faultyRing(shards);
        EXPECT_TRUE(
            sim::parseTopologySpec("mesh:2x2", cfg.topology, nullptr));
        return cfg;
    };
    RingResult seq = runRing(meshRing(1));
    RingResult par = runRing(meshRing(4));
    expectAllDelivered(seq, meshRing(1));
    expectSameRun(seq, par);
    EXPECT_GT(seq.retransmits, 0u) << "no recovery exercised";
    EXPECT_GT(seq.faults.duplicated, 0u) << "no payload was duplicated";
}

TEST(FaultRecovery, DownWindowHealsAfterLinkReturns)
{
    RingConfig cfg = faultyRing(1);
    cfg.faults = net::FaultConfig{};
    // Kill node0 -> node1 for the first 2ms of the run, then let the
    // retransmit timers replay everything that fell in the hole.
    ASSERT_TRUE(net::parseFaultSpec("down=0-1@0-2000", cfg.faults,
                                    nullptr));
    RingResult r = runRing(cfg);
    expectAllDelivered(r, cfg);
    EXPECT_GT(r.faults.downDropped, 0u) << "window never hit traffic";
    EXPECT_GT(r.timeouts, 0u) << "nothing had to be replayed";
}

TEST(FaultRecovery, NoRetransmitLosesCompletions)
{
    // The model-checker mutation at library level: with the retry
    // timers disabled, the same lossy backplane must produce a
    // visible lost completion — senders stuck with unacked chunks.
    // Unmutated, the ring finishes in 1.77 ms of simulated time; the
    // limit gives it over five times that, so the limit is not what
    // leaves the mutated ring's nodes unfinished.
    RingConfig cfg = faultyRing(1);
    cfg.limit = 10 * tickMs;
    EXPECT_EQ(runRing(cfg).nodesDone, cfg.nodes)
        << "the limit cuts the unmutated ring short";
    cfg.faults.disableRetransmit = true;
    RingResult r = runRing(cfg);
    EXPECT_LT(r.nodesDone, cfg.nodes);
    EXPECT_GT(r.chunksUnacked, 0u);
    EXPECT_FALSE(r.lostFlows.empty());
}

TEST(FaultRecovery, AuditorStaysCleanUnderFaults)
{
    // The auditor watches I1-I4 across every event; retransmission
    // must look like ordinary (if repetitive) NI traffic to it. The
    // monitor reports violations as "audit[...]" lines on stderr.
    ASSERT_NO_FATAL_FAILURE(auditFlag("--audit=every-event"));
    testing::internal::CaptureStderr();
    RingConfig cfg = faultyRing(1); // one shard: per-event hooks
    RingResult r = runRing(cfg);
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_NO_FATAL_FAILURE(auditFlag("--audit=off"));

    expectAllDelivered(r, cfg);
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_EQ(err.find("audit["), std::string::npos)
        << "invariant violations under faults:\n"
        << err;
}
