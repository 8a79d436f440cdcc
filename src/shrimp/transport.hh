/**
 * @file
 * Transport-layer primitives for the SHRIMP NI's selective-repeat
 * recovery path: the SACK bitmap carried by every acknowledgment, the
 * Jacobson/Karn RTT estimator behind the adaptive retransmit timeout,
 * and the AIMD congestion window layered on the per-destination
 * credit scheme.
 *
 * It also holds the buffers a chunk travels in: the pooled Payload
 * and the seq-indexed SeqWindow behind the sender's retransmit buffer
 * and the receiver's resequencing buffer.
 *
 * These are pure, event-queue-free value types so the unit tests can
 * exercise the encode/decode round trip, the estimator convergence,
 * the slow-start/halving state machine and the buffers without
 * building a two-node world. The NetworkInterface owns one
 * RttEstimator, CongestionWindow and retransmit window per sender
 * flow, and one resequencing window per receiver flow.
 *
 * Determinism: everything here is arithmetic on values the owning
 * shard already holds — no clocks, no randomness, no cross-node
 * reads — so the sharded engine's bit-identity contract is preserved
 * by construction.
 */

#ifndef SHRIMP_SHRIMP_TRANSPORT_HH
#define SHRIMP_SHRIMP_TRANSPORT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "sim/coro.hh"
#include "sim/logging.hh"
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
 * One chunk's payload: a move-only handle to a fixed-size buffer
 * (`capacity` bytes plus the length) from sim::FramePool, so a chunk
 * in steady state reuses a released buffer instead of allocating.
 * clone() is the only copy; moving hands the buffer over and leaves
 * the source empty, so each buffer has exactly one owner. The buffer
 * goes back to the releasing thread's pool, which may be another
 * shard's than the one that filled it.
 */
class Payload
{
  public:
    /** The largest payload: one pump chunk. */
    static constexpr std::uint32_t capacity = 256;

    Payload() = default;
    Payload(Payload &&other) noexcept
        : buf_(std::exchange(other.buf_, nullptr))
    {
    }

    Payload &
    operator=(Payload &&other) noexcept
    {
        if (this != &other) {
            release();
            buf_ = std::exchange(other.buf_, nullptr);
        }
        return *this;
    }

    Payload(const Payload &) = delete;
    Payload &operator=(const Payload &) = delete;
    ~Payload() { release(); }

    /** A payload holding a copy of @p len bytes at @p data. Panics
     *  when @p len exceeds capacity. */
    static Payload
    copyOf(const std::uint8_t *data, std::uint32_t len)
    {
        SHRIMP_ASSERT(len <= capacity, "a ", len,
                      "-byte payload exceeds the ", capacity,
                      "-byte chunk buffer");
        Payload p;
        p.buf_ = static_cast<Buffer *>(
            sim::FramePool::allocate(sizeof(Buffer)));
        p.buf_->len = len;
        std::memcpy(p.buf_->bytes, data, len);
        return p;
    }

    /** An independent copy in a buffer of its own. */
    Payload
    clone() const
    {
        return buf_ ? copyOf(buf_->bytes, buf_->len) : Payload();
    }

    explicit operator bool() const { return buf_ != nullptr; }
    std::uint32_t size() const { return buf_ ? buf_->len : 0; }
    std::uint8_t *data() { return buf_ ? buf_->bytes : nullptr; }
    const std::uint8_t *
    data() const
    {
        return buf_ ? buf_->bytes : nullptr;
    }

  private:
    struct Buffer
    {
        std::uint32_t len;
        std::uint8_t bytes[capacity];
    };

    void
    release() noexcept
    {
        if (buf_)
            sim::FramePool::release(std::exchange(buf_, nullptr),
                                    sizeof(Buffer));
    }

    Buffer *buf_ = nullptr;
};

static_assert(sizeof(Payload) == 8, "a payload is one pointer");

/**
 * Up to sackWindow items keyed by sequence number, item `seq` in slot
 * `seq % sackWindow`: the sender's retransmit buffer and the
 * receiver's resequencing buffer. The owner keeps every live seq
 * inside one sackWindow-wide span (the sequence window guarantees
 * it), so no two share a slot; insert() asserts that. The slots are
 * allocated on the first insert and kept: a window that is never used
 * costs no slot storage, and one in use never allocates again.
 */
template <typename T>
class SeqWindow
{
    static_assert(sackWindow == 64, "one occupancy bit per slot");

    struct Slot
    {
        std::uint64_t seq = 0;
        T item{};
    };

  public:
    /** Forward range over the occupied slots' seqs, in slot order. */
    struct Seqs
    {
        struct iterator
        {
            const Slot *slots;
            std::uint64_t bits;

            std::uint64_t
            operator*() const
            {
                return slots[std::countr_zero(bits)].seq;
            }

            iterator &
            operator++()
            {
                bits &= bits - 1;
                return *this;
            }

            bool operator==(const iterator &) const = default;
        };

        const Slot *slots;
        std::uint64_t bits;

        iterator begin() const { return {slots, bits}; }
        iterator end() const { return {slots, 0}; }
    };

    bool empty() const { return used_ == 0; }
    std::size_t size() const { return std::size_t(std::popcount(used_)); }

    bool
    contains(std::uint64_t seq) const
    {
        const unsigned i = slotOf(seq);
        return ((used_ >> i) & 1) != 0 && slots_[i].seq == seq;
    }

    /** The item at @p seq, which must be present. */
    T &
    at(std::uint64_t seq)
    {
        SHRIMP_ASSERT(contains(seq), "seq ", seq, " is not in the window");
        return slots_[slotOf(seq)].item;
    }

    const T &
    at(std::uint64_t seq) const
    {
        SHRIMP_ASSERT(contains(seq), "seq ", seq, " is not in the window");
        return slots_[slotOf(seq)].item;
    }

    /** Store @p item at @p seq, whose slot must be free. */
    T &
    insert(std::uint64_t seq, T item)
    {
        if (!slots_)
            slots_ = std::make_unique<Slot[]>(sackWindow);
        const unsigned i = slotOf(seq);
        SHRIMP_ASSERT(((used_ >> i) & 1) == 0, "seq ", seq,
                      " collides with seq ", slots_[i].seq,
                      " in the window");
        used_ |= std::uint64_t(1) << i;
        slots_[i].seq = seq;
        slots_[i].item = std::move(item);
        return slots_[i].item;
    }

    /** Remove and return the item at @p seq, which must be present. */
    T
    take(std::uint64_t seq)
    {
        T item = std::move(at(seq));
        used_ &= ~(std::uint64_t(1) << slotOf(seq));
        return item;
    }

    Seqs seqs() const { return {slots_.get(), used_}; }

  private:
    static unsigned
    slotOf(std::uint64_t seq)
    {
        return unsigned(seq % sackWindow);
    }

    std::unique_ptr<Slot[]> slots_;
    /** Bit i set: slot i holds a live item. */
    std::uint64_t used_ = 0;
};

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
