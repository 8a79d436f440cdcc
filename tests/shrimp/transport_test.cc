/**
 * @file
 * Unit tests for the selective-repeat transport (shrimp/transport.hh)
 * and for the recovery behaviour it drives in the NI. Without the
 * simulator: SACK bitmap round-trips, the pooled chunk payload and
 * the seq-indexed window, the Jacobson RTT estimator converging onto
 * a steady path, the AIMD slow-start/halving state machine, and the
 * TxFlow/RxFlow state machines fed acks, arrivals and timer expiries
 * from tables. On a real two-NI world: a dropped chunk being repaired
 * by dup-ack fast retransmit before the retransmit timer ever fires
 * (and by the timer once fast retransmit is mutated away).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "bus/io_bus.hh"
#include "mem/physical_memory.hh"
#include "shrimp/fault.hh"
#include "shrimp/network_interface.hh"
#include "shrimp/transport.hh"

#include "../support/queue_router.hh"

using namespace shrimp;
using namespace shrimp::net;

// ------------------------------------------------------------- SACK

TEST(Sack, EncodeDecodeRoundTrip)
{
    // cum = 10; 10..12 accepted in order, 15 and 40 buffered OOO.
    std::uint64_t bits = sackEncode(10, 13, {15, 40});
    std::vector<std::uint64_t> seqs = sackDecode(10, bits);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{10, 11, 12, 15, 40}));
}

TEST(Sack, EmptyWindowEncodesToZero)
{
    EXPECT_EQ(sackEncode(7, 7, {}), 0u);
    EXPECT_TRUE(sackDecode(7, 0).empty());
}

TEST(Sack, SeqsOutsideTheWindowAreDropped)
{
    // 9 is below cum, 10+64 is past the bitmap: neither survives.
    std::uint64_t bits = sackEncode(10, 10, {9, 10 + sackWindow, 11});
    EXPECT_EQ(sackDecode(10, bits),
              (std::vector<std::uint64_t>{11}));
}

TEST(Sack, FullWindowRoundTrips)
{
    std::vector<std::uint64_t> all;
    for (unsigned i = 0; i < sackWindow; ++i)
        all.push_back(100 + i);
    std::uint64_t bits = sackEncode(100, 100, all);
    EXPECT_EQ(bits, ~std::uint64_t(0));
    EXPECT_EQ(sackDecode(100, bits), all);
}

// ---------------------------------------------------------- Payload

TEST(Payload, CloneIsIndependent)
{
    std::vector<std::uint8_t> bytes(Payload::capacity);
    for (std::uint32_t i = 0; i < Payload::capacity; ++i)
        bytes[i] = std::uint8_t(i);
    const Payload pristine = Payload::copyOf(bytes.data(), Payload::capacity);
    Payload wire = pristine.clone();
    ASSERT_EQ(wire.size(), Payload::capacity);
    EXPECT_NE(wire.data(), pristine.data()) << "a clone has its own buffer";
    wire.data()[17] ^= 0xFF; // what a Corrupt fault does to the wire copy
    EXPECT_EQ(pristine.data()[17], 17u);
    EXPECT_EQ(std::memcmp(pristine.data(), bytes.data(), bytes.size()), 0)
        << "the retransmit copy must stay pristine";
}

TEST(Payload, MoveLeavesTheSourceEmpty)
{
    const std::uint8_t bytes[3] = {1, 2, 3};
    Payload a = Payload::copyOf(bytes, 3);
    const std::uint8_t *buffer = a.data();
    Payload b = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(b.data(), buffer) << "a move hands the buffer over";
    Payload c;
    c = std::move(b);
    EXPECT_FALSE(b);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.data()[2], 3u);
    EXPECT_FALSE(Payload().clone()) << "cloning nothing yields nothing";
}

TEST(Payload, OversizeIsRefused)
{
    const std::vector<std::uint8_t> bytes(Payload::capacity + 1);
    EXPECT_THROW(Payload::copyOf(bytes.data(), Payload::capacity + 1),
                 PanicError);
    EXPECT_EQ(Payload::copyOf(bytes.data(), Payload::capacity).size(),
              Payload::capacity);
}

// -------------------------------------------------------- SeqWindow

namespace
{

/** A receiver's arrivals at a fixed drain watermark, and what the
 *  resequencing window must make of them. */
struct ArrivalCase
{
    const char *name;
    std::uint64_t drained;
    std::vector<std::uint64_t> arrivals;
    /** Seqs released to the drain queue, in order. */
    std::vector<std::uint64_t> released;
    unsigned duplicates;
};

const ArrivalCase arrivalCases[] = {
    {"in order", 0, {0, 1, 2}, {0, 1, 2}, 0},
    {"both window edges, out of order and duplicated",
     1000,
     {1063, 1001, 1001, 1000, 1063, 1002, 1000},
     {1000, 1001, 1002},
     3},
    {"a full window in reverse", 64,
     [] {
         std::vector<std::uint64_t> v;
         for (std::uint64_t s = 127; s >= 64; --s)
             v.push_back(s);
         return v;
     }(),
     [] {
         std::vector<std::uint64_t> v;
         for (std::uint64_t s = 64; s < 128; ++s)
             v.push_back(s);
         return v;
     }(),
     0},
    {"spanning the slot wrap", 380, // slot 60; seq 384 is slot 0
     {443, 383, 381, 383, 380, 382, 442, 385, 384},
     {380, 381, 382, 383, 384, 385},
     1},
};

} // namespace

TEST(SeqWindow, ResequencesArrivalsLikeAnOrderedSet)
{
    // The receiver's rule: below `expected` or already held is a
    // duplicate, past `expected` waits in the window, and `expected`
    // itself releases every seq the window holds contiguously behind
    // it. A std::set of the held seqs is the reference model.
    for (const ArrivalCase &c : arrivalCases) {
        SCOPED_TRACE(c.name);
        SeqWindow<Payload> window;
        std::set<std::uint64_t> model;
        std::uint64_t expected = c.drained;
        std::vector<std::uint64_t> released;
        unsigned duplicates = 0;
        auto release = [&](std::uint64_t seq, const Payload &p) {
            ASSERT_EQ(p.size(), 1u);
            EXPECT_EQ(p.data()[0], std::uint8_t(seq)) << "seq " << seq;
            released.push_back(seq);
        };
        for (std::uint64_t seq : c.arrivals) {
            ASSERT_LT(seq, c.drained + sackWindow);
            const std::uint8_t tag = std::uint8_t(seq);
            if (seq < expected || window.contains(seq)) {
                ++duplicates;
            } else if (seq > expected) {
                window.insert(seq, Payload::copyOf(&tag, 1));
                model.insert(seq);
            } else {
                release(seq, Payload::copyOf(&tag, 1));
                for (++expected; window.contains(expected); ++expected) {
                    release(expected, window.take(expected));
                    model.erase(expected);
                }
            }
            EXPECT_EQ(window.size(), model.size());
            EXPECT_EQ(sackEncode(c.drained, expected, {})
                          | window.sackBits(c.drained),
                      sackEncode(c.drained, expected, model))
                << "after the arrival of seq " << seq;
        }
        EXPECT_EQ(released, c.released);
        EXPECT_EQ(duplicates, c.duplicates);
    }
}

TEST(SeqWindow, RetransmitBufferHoldsTheSequenceWindow)
{
    // The sender's use: seqs [cumAcked, nextSeq) at most sackWindow
    // wide, retired from the front by cumulative acks.
    SeqWindow<int> unacked;
    EXPECT_TRUE(unacked.empty());
    std::uint64_t cum = 10, next = 10;
    for (; next < cum + sackWindow; ++next)
        unacked.insert(next, int(next));
    EXPECT_EQ(unacked.size(), std::size_t(sackWindow));
    EXPECT_THROW(unacked.insert(next, 0), PanicError)
        << "seq cum + 64 shares cum's slot";
    for (; cum < 30; ++cum)
        EXPECT_EQ(unacked.take(cum), int(cum));
    for (; next < cum + sackWindow; ++next)
        unacked.insert(next, int(next));
    for (std::uint64_t s = cum; s < next; ++s)
        EXPECT_EQ(unacked.at(s), int(s));
    EXPECT_FALSE(unacked.contains(cum - 1));
    EXPECT_FALSE(unacked.contains(next));
    EXPECT_THROW(unacked.at(next), PanicError);
}

// ----------------------------------------------------- RTT estimator

TEST(RttEstimator, FirstSampleSeedsSrttAndRttvar)
{
    RttEstimator e;
    EXPECT_FALSE(e.valid);
    e.sample(800);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.srtt, 800u);
    EXPECT_EQ(e.rttvar, 400u);
}

TEST(RttEstimator, ConvergesOntoASteadyPath)
{
    RttEstimator e;
    e.sample(4000); // wildly wrong first impression
    for (int i = 0; i < 100; ++i)
        e.sample(500);
    // srtt decays geometrically toward the true 500-tick path and
    // rttvar toward zero, so the implied RTO approaches the floor.
    EXPECT_NEAR(double(e.srtt), 500.0, 25.0);
    EXPECT_LT(e.rttvar, 50u);
    EXPECT_LT(e.rto(0, 1000000), 700u);
}

TEST(RttEstimator, RtoTracksVariance)
{
    RttEstimator jittery, steady;
    for (int i = 0; i < 50; ++i) {
        steady.sample(1000);
        jittery.sample(i % 2 ? 1800 : 200); // same mean, huge swings
    }
    EXPECT_GT(jittery.rto(0, 1u << 30), steady.rto(0, 1u << 30))
        << "srtt + 4 rttvar must widen with path variance";
}

TEST(RttEstimator, RtoClampsIntoTheConfiguredBand)
{
    RttEstimator e;
    e.sample(10);
    EXPECT_EQ(e.rto(5000, 320000), 5000u) << "floor applies";
    RttEstimator slow;
    slow.sample(1000000);
    EXPECT_EQ(slow.rto(5000, 320000), 320000u) << "ceiling applies";
}

// ------------------------------------------------- congestion window

TEST(CongestionWindow, OpensAtTheFullCreditWindow)
{
    CongestionWindow w;
    w.init(256, 8192);
    EXPECT_EQ(w.cwnd, 8192u);
    EXPECT_EQ(w.ssthresh, 8192u);
    EXPECT_FALSE(w.inSlowStart())
        << "a healthy flow starts wide open, not in slow start";
}

TEST(CongestionWindow, LossHalvesFlightWithAFloor)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onLoss(8192);
    EXPECT_EQ(w.cwnd, 4096u);
    EXPECT_EQ(w.ssthresh, 4096u);
    w.onLoss(600); // half of a tiny flight would be under the floor
    EXPECT_EQ(w.cwnd, 512u) << "floor is two chunks";
    EXPECT_EQ(w.ssthresh, 512u);
}

TEST(CongestionWindow, RtoCollapsesToTwoChunks)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onRto(8192);
    EXPECT_EQ(w.cwnd, 512u)
        << "two chunks, so the scoreboard keeps a dup-ack source";
    EXPECT_EQ(w.ssthresh, 4096u);
    EXPECT_TRUE(w.inSlowStart());
}

TEST(CongestionWindow, SlowStartDoublesThenTurnsLinear)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onRto(8192); // cwnd 512, ssthresh 4096
    // Slow start: byte-counting growth, one acked byte = one byte of
    // window, until ssthresh.
    w.onAck(512);
    EXPECT_EQ(w.cwnd, 1024u);
    w.onAck(1024);
    EXPECT_EQ(w.cwnd, 2048u);
    w.onAck(2048);
    EXPECT_EQ(w.cwnd, 4096u);
    EXPECT_FALSE(w.inSlowStart());
    // Congestion avoidance: about one chunk per cwnd of acked bytes.
    w.onAck(4096);
    EXPECT_EQ(w.cwnd, 4096u + 256u);
}

TEST(CongestionWindow, NeverGrowsPastTheCreditCap)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onLoss(8192);
    for (int i = 0; i < 1000; ++i)
        w.onAck(8192);
    EXPECT_EQ(w.cwnd, 8192u)
        << "credits bound the flight; cwnd above them is meaningless";
}

// ----------------------------------------------- TxFlow, no simulator

namespace
{

using Resend = TxFlow::Resend;
using Resent = std::vector<std::pair<std::uint64_t, Resend>>;

constexpr std::uint32_t chunkBytes = Payload::capacity;
/** The wire floor of the test route: rescue waits and spurious-rescue
 *  evidence are measured against it. */
constexpr Tick roundTrip = 100;

/** One input to a TxFlow: an ack (then the scoreboard pass the NI
 *  runs after a fresh one) or, with `timeout`, a timer expiry. */
struct Step
{
    Tick at = 0;
    std::uint64_t cum = 0;
    /** Seqs the ack's bitmap names. */
    std::vector<std::uint64_t> sacked = {};
    /** What must go out again in response, in order. */
    Resent resends = {};
    bool timeout = false;
};

struct FlowCase
{
    const char *name;
    /** Chunks sent at ticks 0, 1, 2, ... before the first step. */
    unsigned chunks;
    std::vector<Step> steps;
    unsigned spuriousRescues = 0;
};

/** A TxFlow with everything it needs from an owner, and a record of
 *  what it hands back to resend. */
struct FlowHarness
{
    sim::MachineParams params;
    FaultConfig faults;
    TxFlow::Stats stats;
    TxFlow flow;
    Resent resent;

    explicit FlowHarness(unsigned chunks)
    {
        flow.open({.params = &params,
                   .wireRoundTrip = roundTrip,
                   .faults = &faults,
                   .stats = &stats});
        for (unsigned i = 0; i < chunks; ++i) {
            EXPECT_TRUE(flow.canSend(chunkBytes));
            const std::uint8_t byte = std::uint8_t(i);
            flow.send({.h = {.seq = flow.nextSeq()},
                       .data = Payload::copyOf(&byte, 1)},
                      Tick(i));
        }
    }

    auto
    resender()
    {
        return [this](const Chunk &c, Resend why) {
            EXPECT_EQ(c.data.size(), 1u);
            EXPECT_EQ(c.data.data()[0], std::uint8_t(c.h.seq));
            resent.emplace_back(c.h.seq, why);
        };
    }

    /** Feed @p step; returns what went out again. */
    Resent
    apply(const Step &step)
    {
        resent.clear();
        if (step.timeout) {
            flow.onTimeout(step.at, resender());
        } else {
            AckInfo ack;
            ack.cum = step.cum;
            ack.sack = sackEncode(step.cum, step.cum, step.sacked);
            if (flow.onAck(ack, step.at, resender()))
                flow.scoreboard(step.at, resender());
        }
        return resent;
    }
};

const FlowCase flowCases[] = {
    {"three SACKs above a hole fast-retransmit it once",
     8,
     {{.at = 50, .sacked = {1, 2}},
      {.at = 60, .sacked = {1, 2, 3}, .resends = {{0, Resend::Fast}}},
      {.at = 70, .sacked = {1, 2, 3, 4}}}},
    {"every hole with enough SACKs above goes, ascending",
     8,
     {{.at = 50,
       .sacked = {2, 5, 6, 7},
       .resends = {{0, Resend::Fast},
                   {1, Resend::Fast},
                   {3, Resend::Fast},
                   {4, Resend::Fast}}}}},
    {"early retransmit: two outstanding need one SACK",
     2,
     {{.at = 50, .sacked = {1}, .resends = {{0, Resend::Fast}}}}},
    {"early retransmit: three outstanding need two SACKs",
     3,
     {{.at = 50, .sacked = {2}},
      {.at = 60, .sacked = {1, 2}, .resends = {{0, Resend::Fast}}}}},
    {"a rescue waits for three new marks and a quiet round trip",
     12,
     {{.at = 50, .sacked = {1, 2, 3}, .resends = {{0, Resend::Fast}}},
      // Three new marks, but inside the resend's round trip.
      {.at = 60, .sacked = {1, 2, 3, 4, 5, 6}},
      // The round trip has passed: the next ack fires the rescue.
      {.at = 160,
       .sacked = {1, 2, 3, 4, 5, 6, 7},
       .resends = {{0, Resend::Rescue}}},
      // An answer inside the rescue's round trip: spurious.
      {.at = 200, .sacked = {0, 1, 2, 3, 4, 5, 6, 7}}},
     1},
    {"a rescue needs three new marks, however long it waits",
     12,
     {{.at = 50, .sacked = {1, 2, 3}, .resends = {{0, Resend::Fast}}},
      // Quiet for long enough, but only two new marks.
      {.at = 500, .sacked = {1, 2, 3, 4, 5}},
      {.at = 900,
       .sacked = {1, 2, 3, 4, 5, 6},
       .resends = {{0, Resend::Rescue}}},
      // Answered after a full round trip: the rescue was needed.
      {.at = 1000, .sacked = {0, 1, 2, 3, 4, 5, 6}}},
     0},
    {"an RTO resends the first unSACKed hole",
     4,
     {{.at = 50, .sacked = {0, 1}},
      {.at = 1050, .resends = {{2, Resend::Timeout}}, .timeout = true}}},
    {"an RTO pokes an all-SACKed window",
     2,
     {{.at = 50, .sacked = {0, 1}},
      {.at = 1050, .resends = {{0, Resend::Poke}}, .timeout = true}}},
    {"ack-clocked repair spends acked + 1 below the recovery point",
     8,
     {{.at = 1000, .resends = {{0, Resend::Timeout}}, .timeout = true},
      {.at = 1100,
       .cum = 2,
       .resends = {{2, Resend::Repair},
                   {3, Resend::Repair},
                   {4, Resend::Repair}}},
      {.at = 1110,
       .cum = 3,
       .sacked = {5},
       .resends = {{6, Resend::Repair}, {7, Resend::Repair}}},
      {.at = 1120, .cum = 8}}},
};

} // namespace

TEST(TxFlow, ScoreboardTimerAndRepairFollowTheTable)
{
    for (const FlowCase &c : flowCases) {
        SCOPED_TRACE(c.name);
        FlowHarness h(c.chunks);
        for (const Step &step : c.steps) {
            SCOPED_TRACE("step at tick " + std::to_string(step.at));
            EXPECT_EQ(h.apply(step), step.resends);
        }
        unsigned fast = 0;
        unsigned all = 0;
        for (const Step &step : c.steps) {
            for (const auto &[seq, why] : step.resends) {
                ++all;
                fast += why == Resend::Fast || why == Resend::Rescue;
            }
        }
        EXPECT_EQ(h.stats.retransmits.value(), all);
        EXPECT_EQ(h.stats.fastRetransmits.value(), fast);
        EXPECT_EQ(h.stats.rescueSpurious.value(), c.spuriousRescues);
    }
}

TEST(TxFlow, SackMarksAreStickyAndOnlyFirstSendsSampleTheRtt)
{
    FlowHarness h(4); // sent at ticks 0..3
    ASSERT_TRUE(h.flow.onAck({.cum = 0, .sack = 0b0110}, 100,
                             h.resender()));
    EXPECT_EQ(h.flow.sackedChunks(), 2u);
    ASSERT_TRUE(h.flow.rtt().valid);
    EXPECT_EQ(h.flow.rtt().srtt, 98u)
        << "the newest first-send the ack marks is the sample";
    // A reordered older bitmap cannot un-SACK anything.
    ASSERT_TRUE(h.flow.onAck({.cum = 0, .sack = 0}, 110, h.resender()));
    EXPECT_EQ(h.flow.sackedChunks(), 2u);
    // A timeout resends chunk 0; its SACK is then ambiguous (Karn).
    h.flow.onTimeout(1000, h.resender());
    ASSERT_EQ(h.resent, (Resent{{0, Resend::Timeout}}));
    const RttEstimator before = h.flow.rtt();
    ASSERT_TRUE(h.flow.onAck({.cum = 0, .sack = 0b0111}, 1200,
                             h.resender()));
    EXPECT_EQ(h.flow.sackedChunks(), 3u);
    EXPECT_EQ(h.flow.rtt().srtt, before.srtt)
        << "a retransmitted chunk's mark must not feed the estimator";
    EXPECT_EQ(h.flow.rtt().rttvar, before.rttvar);
    // The cumulative ack retires chunks and returns their credits; an
    // older one afterwards is stale and changes nothing.
    ASSERT_TRUE(h.flow.onAck({.cum = 3, .sack = 0}, 1210, h.resender()));
    EXPECT_EQ(h.flow.unackedChunks(), 1u);
    EXPECT_EQ(h.flow.inflightBytes(), 1u);
    EXPECT_FALSE(h.flow.onAck({.cum = 2, .sack = 0}, 1220, h.resender()));
    EXPECT_EQ(h.flow.cumAcked(), 3u);
}

TEST(TxFlow, TimeoutsCutOnceBackOffAndCap)
{
    // An all-SACKed window is a poke: no cwnd cut, no recovery.
    FlowHarness poke(2);
    ASSERT_TRUE(poke.flow.onAck({.cum = 0, .sack = 0b11}, 50,
                                poke.resender()));
    const std::uint32_t cwnd = poke.flow.cwnd().cwnd;
    poke.flow.onTimeout(1050, poke.resender());
    EXPECT_EQ(poke.flow.cwnd().cwnd, cwnd);
    EXPECT_FALSE(poke.flow.inRecovery());
    EXPECT_EQ(poke.stats.cwndCuts.value(), 0.0);
    EXPECT_EQ(poke.stats.timeouts.value(), 1.0);

    // A real hole collapses cwnd to two chunks and opens recovery.
    FlowHarness lost(8);
    lost.flow.onTimeout(1000, lost.resender());
    EXPECT_EQ(lost.flow.cwnd().cwnd, 2 * chunkBytes);
    EXPECT_TRUE(lost.flow.inRecovery());
    EXPECT_EQ(lost.stats.cwndCuts.value(), 1.0);
    // Backoff doubles from niRetryTimeout and stops at
    // niRetryTimeoutMax.
    const sim::MachineParams &p = lost.params;
    ASSERT_LT(4 * p.niRetryTimeout(), p.niRetryTimeoutMax())
        << "the loop must see the timeout double";
    ASSERT_GE(64 * p.niRetryTimeout(), p.niRetryTimeoutMax())
        << "the loop must reach the cap";
    Tick want = 2 * p.niRetryTimeout();
    for (int expiry = 1; expiry <= 6; ++expiry) {
        SCOPED_TRACE("expiry " + std::to_string(expiry));
        EXPECT_EQ(lost.flow.rto(), want);
        lost.flow.onTimeout(Tick(expiry) * p.niRetryTimeoutMax(),
                            lost.resender());
        want = std::min(2 * want, p.niRetryTimeoutMax());
    }
    EXPECT_EQ(lost.flow.rto(), p.niRetryTimeoutMax());
    EXPECT_EQ(lost.stats.timeouts.value(), 7.0);

    // An empty window's expiry is no timeout at all.
    FlowHarness idle(0);
    idle.flow.onTimeout(1000, idle.resender());
    EXPECT_TRUE(idle.resent.empty());
    EXPECT_EQ(idle.stats.timeouts.value(), 0.0);
    EXPECT_FALSE(idle.flow.wantsTimer());
}

TEST(TxFlow, MutationsSilenceTheirRecoveryPaths)
{
    const Step threeSacks{.at = 50, .sacked = {1, 2, 3}};

    FlowHarness noFast(8);
    noFast.faults.disableFastRetransmit = true;
    EXPECT_TRUE(noFast.apply(threeSacks).empty());
    EXPECT_EQ(noFast.flow.sackedChunks(), 3u) << "the marks still land";
    EXPECT_TRUE(noFast.flow.wantsTimer()) << "the timer must recover";

    FlowHarness noSack(8);
    noSack.faults.ignoreSack = true;
    EXPECT_TRUE(noSack.apply(threeSacks).empty());
    EXPECT_EQ(noSack.flow.sackedChunks(), 0u) << "the bitmap is discarded";

    FlowHarness noRetransmit(8);
    noRetransmit.faults.disableRetransmit = true;
    EXPECT_TRUE(noRetransmit.apply(threeSacks).empty());
    EXPECT_FALSE(noRetransmit.flow.wantsTimer()) << "no timer either";
}

// ----------------------------------------------- RxFlow, no simulator

namespace
{

Chunk
arriving(std::uint64_t seq, bool corrupt = false)
{
    const std::uint8_t bytes[2] = {std::uint8_t(seq), 0x5a};
    Chunk c{.h = {.src = 3, .seq = seq}, .data = Payload::copyOf(bytes, 2)};
    c.h.checksum = chunkChecksum(c.h, c.data);
    if (corrupt)
        c.data.data()[1] ^= 0xFF;
    return c;
}

struct ArrivalStep
{
    /** Seq arriving, or drained when `drain` is set. */
    std::uint64_t seq;
    RxFlow::Arrival verdict;
    std::vector<std::uint64_t> released;
    /** The ack afterwards: cum and the seqs its bitmap names. */
    std::uint64_t cum;
    std::vector<std::uint64_t> sacked;
    bool corrupt = false;
    bool drain = false;
};

const ArrivalStep arrivalSteps[] = {
    {0, RxFlow::Arrival::InOrder, {0}, 0, {0}},
    {2, RxFlow::Arrival::Buffered, {}, 0, {0, 2}},
    {2, RxFlow::Arrival::Duplicate, {}, 0, {0, 2}},
    {1, RxFlow::Arrival::Corrupt, {}, 0, {0, 2}, true},
    {4, RxFlow::Arrival::Buffered, {}, 0, {0, 2, 4}},
    {1, RxFlow::Arrival::InOrder, {1, 2}, 0, {0, 1, 2, 4}},
    {0, RxFlow::Arrival::InOrder, {}, 1, {1, 2, 4}, false, true},
    {0, RxFlow::Arrival::Duplicate, {}, 1, {1, 2, 4}},
    {3, RxFlow::Arrival::InOrder, {3, 4}, 1, {1, 2, 3, 4}},
};

} // namespace

TEST(RxFlow, ArrivalsFollowTheTable)
{
    RxFlow flow;
    std::vector<Chunk> queue; // the NI's receive queue, drained FIFO
    for (const ArrivalStep &step : arrivalSteps) {
        SCOPED_TRACE("seq " + std::to_string(step.seq)
                     + (step.drain ? " drained" : " arrives"));
        std::vector<std::uint64_t> released;
        if (step.drain) {
            ASSERT_FALSE(queue.empty());
            ASSERT_EQ(queue.front().h.seq, step.seq);
            flow.onDrained(queue.front());
            queue.erase(queue.begin());
        } else {
            EXPECT_EQ(flow.onArrival(arriving(step.seq, step.corrupt),
                                     [&](Chunk &&c) {
                                         released.push_back(c.h.seq);
                                         queue.push_back(std::move(c));
                                     }),
                      step.verdict);
        }
        EXPECT_EQ(released, step.released);
        const AckInfo ack = flow.ack();
        EXPECT_EQ(ack.cum, step.cum);
        EXPECT_EQ(sackDecode(ack.cum, ack.sack), step.sacked);
    }
    EXPECT_EQ(flow.expected(), 5u);
    EXPECT_EQ(flow.drained(), 1u);
}

TEST(RxFlow, DigestCoversDrainedBytesInSequenceOrder)
{
    // Two receivers see the same chunks in different orders; once both
    // drain everything their digests agree.
    auto drainAll = [](std::initializer_list<std::uint64_t> order) {
        RxFlow flow;
        std::vector<Chunk> queue;
        for (std::uint64_t seq : order)
            flow.onArrival(arriving(seq), [&](Chunk &&c) {
                queue.push_back(std::move(c));
            });
        for (const Chunk &c : queue)
            flow.onDrained(c);
        EXPECT_EQ(flow.drained(), 3u);
        return flow.digest();
    };
    EXPECT_EQ(drainAll({0, 1, 2}), drainAll({2, 0, 2, 1}));
    EXPECT_NE(drainAll({0, 1, 2}), RxFlow().digest());
}

// ------------------------------------- recovery on a two-NI world

namespace
{

/**
 * Two NIs on a backplane whose node0 -> node1 direction is dead for
 * the first few microseconds of the run: the head of the message is
 * dropped on the wire, everything behind it arrives out of order,
 * and the sender's scoreboard has to repair the hole.
 */
struct TransportPair : ::testing::Test
{
    sim::EventQueue eq;
    test::QueueRouter router{eq};
    sim::MachineParams params;
    Interconnect net{params};
    mem::PhysicalMemory memA{1 << 20, 4096};
    mem::PhysicalMemory memB{1 << 20, 4096};
    bus::IoBus busA{eq, params};
    bus::IoBus busB{eq, params};
    NetworkInterface niA{eq, router, params, 0, memA, busA, net, 4096};
    NetworkInterface niB{eq, router, params, 1, memB, busB, net, 4096};

    void
    installDownWindow(bool disable_fast_retransmit)
    {
        FaultConfig cfg;
        ASSERT_TRUE(parseFaultSpec("down=0-1@0-3", cfg, nullptr));
        cfg.disableFastRetransmit = disable_fast_retransmit;
        net.setFaults(cfg);
    }

    /** Stream one deliberate update through niA as the engine would. */
    void
    sendMessage(std::uint32_t bytes)
    {
        niA.nipt().set(0, 1, 16);
        ASSERT_EQ(niA.validateTransfer(true, 0, bytes), 0);
        niA.transferStarting(true, 0, bytes);
        std::vector<std::uint8_t> data(bytes);
        for (std::uint32_t i = 0; i < bytes; ++i)
            data[i] = std::uint8_t(i * 7 + 3);
        std::uint32_t pushed = 0;
        while (pushed < bytes) {
            std::uint32_t cap =
                niA.pushCapacity(pushed, bytes - pushed);
            if (cap == 0) {
                ASSERT_TRUE(eq.step()) << "deadlock while pushing";
                continue;
            }
            niA.devicePush(pushed, data.data() + pushed, cap);
            pushed += cap;
        }
        niA.transferFinished(true, 0, bytes);
        eq.run();
        for (std::uint32_t i = 0; i < bytes; ++i) {
            ASSERT_EQ(memB.read<std::uint8_t>(16 * 4096 + i),
                      std::uint8_t(i * 7 + 3))
                << "payload byte " << i << " corrupted or lost";
        }
        EXPECT_EQ(niB.messagesDelivered(), 1u);
    }
};

} // namespace

TEST_F(TransportPair, DupAcksRepairTheHoleBeforeTheTimer)
{
    installDownWindow(/*disable_fast_retransmit=*/false);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().downDropped, 0u)
        << "the window never hit traffic; the test proves nothing";
    EXPECT_GT(niB.rxOutOfOrderBuffered(), 0u)
        << "chunks behind the hole must be buffered, not dropped";
    EXPECT_GE(niA.fastRetransmits(), 1u);
    EXPECT_EQ(niA.timeouts(), 0u)
        << "the scoreboard must beat the retransmit timer";

    // The sender's TxFlow reads through the NI's const view: one flow,
    // toward node 1.
    ASSERT_EQ(niA.txFlow(0), nullptr);
    const TxFlow *flow = niA.txFlow(1);
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->unackedChunks(), 0u);
    EXPECT_GT(flow->cwnd().cwnd, 0u);
    EXPECT_GT(ticksToUs(flow->rtt().srtt), 0.0);
}

TEST_F(TransportPair, TimerStillRecoversWithFastRetransmitMutedAway)
{
    installDownWindow(/*disable_fast_retransmit=*/true);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().downDropped, 0u);
    EXPECT_EQ(niA.fastRetransmits(), 0u);
    EXPECT_GE(niA.timeouts(), 1u)
        << "with the scoreboard muted only the RTO can recover";
}

TEST_F(TransportPair, DelayReorderingDoesNotTriggerSpuriousRescues)
{
    // A heavily delay-faulted link reorders data chunks without losing
    // any: per-chunk extraDelay lets later chunks overtake earlier
    // ones on the same wire. The old rescue heuristic read "3 SACKs
    // after a resend while it stays unSACKed" as proof the resend was
    // lost — on a reordered link that proof is false and every false
    // positive is a wasted wire copy. The rescue guard must wait out
    // a round trip instead of trusting the serials alone.
    // delay-us stays under the 50 us RTO floor so the delayed acks
    // never read as flow silence — reordering is the only signal.
    FaultConfig cfg;
    ASSERT_TRUE(parseFaultSpec("delay=0.5,delay-us=30,seed=9", cfg,
                               nullptr));
    net.setFaults(cfg);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().delayed, 0u)
        << "no chunk was delayed; the test proves nothing";
    EXPECT_GT(niB.rxOutOfOrderBuffered(), 0u)
        << "delays that never reorder prove nothing either";
    EXPECT_EQ(niA.rescueSpurious(), 0u)
        << "reordering alone must not fire rescue retransmits";
    // First-round dup-ack false positives are inherent to reordering
    // (the scoreboard cannot tell late from lost), but each hole may
    // be charged at most once: a spurious fast retransmit must never
    // snowball into rescue resends of the same chunk.
    EXPECT_LE(niA.retransmits(), niA.fastRetransmits())
        << "only the scoreboard should have fired, never the timer";
    EXPECT_EQ(niA.timeouts(), 0u)
        << "acks kept flowing; the silence detector must not fire";
}
