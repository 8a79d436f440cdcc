/**
 * @file
 * Transport-layer primitives for the SHRIMP NI's selective-repeat
 * recovery path: the SACK bitmap carried by every acknowledgment, the
 * Jacobson/Karn RTT estimator behind the adaptive retransmit timeout,
 * and the AIMD congestion window layered on the per-destination
 * credit scheme.
 *
 * These are pure, event-queue-free value types so the unit tests can
 * exercise the encode/decode round trip, the estimator convergence,
 * and the slow-start/halving state machine without building a
 * two-node world. The NetworkInterface owns one RttEstimator and one
 * CongestionWindow per sender flow.
 *
 * Determinism: everything here is arithmetic on values the owning
 * shard already holds — no clocks, no randomness, no cross-node
 * reads — so the sharded engine's bit-identity contract is preserved
 * by construction.
 */

#ifndef SHRIMP_SHRIMP_TRANSPORT_HH
#define SHRIMP_SHRIMP_TRANSPORT_HH

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "sim/types.hh"

namespace shrimp::net
{

/**
 * Width of the SACK bitmap (and therefore the sender's sequence
 * window): an ack describes receipt of seqs [cum, cum + sackWindow).
 * The sender never launches a chunk more than sackWindow sequence
 * numbers past its cumulative ack, so every in-flight chunk is
 * representable in the bitmap of any ack that can name it.
 */
constexpr unsigned sackWindow = 64;

/**
 * The acknowledgment a receiver posts back to a sender. `cum` is the
 * drain watermark (every chunk below it has left the incoming FIFO
 * through the EISA DMA — it doubles as the credit return, as before);
 * bit i of `sack` says seq `cum + i` has been *received* (buffered or
 * queued for drain) even though it has not been drained yet; `ecn`
 * is the congestion-experienced mark: the receiver's incoming FIFO
 * was overcommitted beyond its nominal capacity when the ack left,
 * i.e. several senders' credit windows converged on this node.
 */
struct AckInfo
{
    std::uint64_t cum = 0;
    std::uint64_t sack = 0;
    bool ecn = false;
};

/**
 * Encode the SACK bitmap: bit i set iff `cum + i` appears in
 * @p received (any range of seqs, any order, duplicates tolerated) or
 * is below @p in_order_below (the receiver's `expected` watermark —
 * everything under it was accepted in order and is draining). Seqs
 * outside [cum, cum + sackWindow) are ignored.
 */
template <typename SeqRange = std::initializer_list<std::uint64_t>>
std::uint64_t
sackEncode(std::uint64_t cum, std::uint64_t in_order_below,
           const SeqRange &received)
{
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < sackWindow; ++i) {
        if (cum + i < in_order_below)
            bits |= std::uint64_t(1) << i;
    }
    for (std::uint64_t s : received) {
        if (s >= cum && s < cum + sackWindow)
            bits |= std::uint64_t(1) << (s - cum);
    }
    return bits;
}

/** Decode a bitmap back into the seqs it names (ascending). */
inline std::vector<std::uint64_t>
sackDecode(std::uint64_t cum, std::uint64_t bits)
{
    std::vector<std::uint64_t> out;
    for (unsigned i = 0; i < sackWindow; ++i) {
        if (bits & (std::uint64_t(1) << i))
            out.push_back(cum + i);
    }
    return out;
}

/**
 * Jacobson SRTT/RTTVAR estimator (RFC 6298 constants) in simulation
 * ticks. Karn's rule is the caller's job: never feed a sample taken
 * from a retransmitted chunk.
 */
struct RttEstimator
{
    Tick srtt = 0;
    Tick rttvar = 0;
    bool valid = false;

    void
    sample(Tick rtt)
    {
        if (!valid) {
            srtt = rtt;
            rttvar = rtt / 2;
            valid = true;
            return;
        }
        // The EWMA steps are signed: a sample below the current
        // estimate must pull it *down*, and with Tick unsigned the
        // wrap of (rtt - srtt) does not survive the division.
        Tick err = rtt > srtt ? rtt - srtt : srtt - rtt;
        // rttvar = 3/4 rttvar + 1/4 |err|
        rttvar = Tick(std::int64_t(rttvar) +
                      (std::int64_t(err) - std::int64_t(rttvar)) / 4);
        // srtt = 7/8 srtt + 1/8 rtt
        srtt = Tick(std::int64_t(srtt) +
                    (std::int64_t(rtt) - std::int64_t(srtt)) / 8);
    }

    /**
     * The retransmit timeout this estimate implies: srtt + 4 rttvar,
     * clamped into [@p min_rto, @p max_rto]. Before the first sample
     * the caller should use its configured initial timeout instead.
     */
    Tick
    rto(Tick min_rto, Tick max_rto) const
    {
        Tick t = srtt + 4 * rttvar;
        if (t < min_rto)
            t = min_rto;
        if (t > max_rto)
            t = max_rto;
        return t;
    }
};

/**
 * AIMD congestion window in bytes, layered under the credit window:
 * the pump launches a new chunk only while outstanding bytes stay
 * below min(cwnd, credits). The window opens at the full credit size
 * (ssthresh likewise), so a healthy flow behaves exactly like the
 * pre-congestion-control NI — SHRIMP's backplane is a known-small
 * machine room network, not an internet path, and a single flow
 * cannot overrun the receiver its credits were sized for. Slow start
 * only engages *after* a loss or ECN signal shrinks the window.
 */
struct CongestionWindow
{
    std::uint32_t cwnd = 0;
    std::uint32_t ssthresh = 0;
    /** Full-size chunk bytes (the additive-increase quantum). */
    std::uint32_t chunk = 0;
    /** Credit capacity (the ceiling cwnd can recover to). */
    std::uint32_t cap = 0;

    void
    init(std::uint32_t chunk_bytes, std::uint32_t credit_bytes)
    {
        chunk = chunk_bytes;
        cap = credit_bytes;
        cwnd = credit_bytes;
        ssthresh = credit_bytes;
    }

    /** Cumulative ack advanced by @p acked_bytes: grow the window —
     *  exponentially below ssthresh (slow start), linearly above. */
    void
    onAck(std::uint32_t acked_bytes)
    {
        if (cwnd < ssthresh) {
            std::uint32_t room = ssthresh - cwnd;
            cwnd += acked_bytes < room ? acked_bytes : room;
        } else if (cwnd < cap) {
            // Additive increase: one chunk per cwnd of acked data.
            std::uint64_t inc =
                std::uint64_t(chunk) * acked_bytes / (cwnd ? cwnd : 1);
            cwnd += std::uint32_t(inc < 1 ? 1 : inc);
        }
        if (cwnd > cap)
            cwnd = cap;
    }

    /** Loss detected by fast retransmit, or an ECN-marked ack:
     *  multiplicative decrease to half the bytes in flight. */
    void
    onLoss(std::uint32_t inflight_bytes)
    {
        std::uint32_t floor = 2 * chunk;
        ssthresh = inflight_bytes / 2;
        if (ssthresh < floor)
            ssthresh = floor;
        cwnd = ssthresh;
    }

    /** Retransmit timeout: collapse to two chunks and slow-start
     *  back toward half the pre-loss flight size. Two, not TCP's
     *  one: the early-retransmit scoreboard needs at least one
     *  companion chunk in flight to SACK, or the next loss in the
     *  collapsed window can only be found by another RTO and the
     *  window never climbs out. */
    void
    onRto(std::uint32_t inflight_bytes)
    {
        std::uint32_t floor = 2 * chunk;
        ssthresh = inflight_bytes / 2;
        if (ssthresh < floor)
            ssthresh = floor;
        cwnd = 2 * chunk;
    }

    bool inSlowStart() const { return cwnd < ssthresh; }
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_TRANSPORT_HH
