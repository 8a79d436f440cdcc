/**
 * @file
 * The SHRIMP NI's selective-repeat transport: everything between "the
 * pump has a chunk for node D" and "the receive DMA may drain it",
 * with no event queue, router or interconnect in sight.
 *
 * Each chunk carries an FNV-1a checksummed header with a per-flow
 * sequence number. The receiver (RxFlow) discards corrupt chunks,
 * deduplicates, buffers out-of-order chunks in a resequencing window
 * (bounded by the sender's 64-seq window) and describes what it holds
 * in an ack: a cumulative drain watermark plus a 64-bit SACK bitmap.
 * The sender (TxFlow) keeps every unacknowledged chunk in a retransmit
 * window, marks the chunks a bitmap names as received, and re-sends
 * only the missing ones: a hole with three or more SACKed chunks above
 * it goes out at once (fast retransmit, RFC 6675 style), a small
 * window lowers that threshold (early retransmit, RFC 5827), and a
 * resend that three more SACK marks and a quiet round trip prove lost
 * goes again (rescue). Everything else waits for the RTO, which tracks
 * a Jacobson SRTT/RTTVAR estimate (Karn's rule: retransmitted chunks
 * never feed it). After an RTO the sender resends one chunk and then
 * repairs the rest of the window ack-clocked, never re-flooding it
 * blind. On a healthy link no timer fires and the ack doubles as the
 * credit return, so the fault-free fast path is unchanged in shape.
 *
 * Flow control is credit-based and entirely sender-side: a flow holds
 * a credit window sized to the receiver's incoming FIFO, a chunk
 * consumes credits at its first send, and the cumulative ack returns
 * them once the receiver's EISA DMA has drained the chunk. A slow
 * receiver thus backpressures the sender's outgoing FIFO and, through
 * it, the UDMA engine, without the sender ever reading receiver state
 * synchronously — which is what lets nodes run on separate simulation
 * shards. Layered under the credits sits an AIMD congestion window:
 * it opens at the full credit size, halves when an ack arrives
 * ECN-marked (converging senders overcommitted the receiver's FIFO),
 * collapses to two chunks on RTO, and recovers by slow start then
 * additive increase.
 *
 * TxFlow and RxFlow are state machines over values: they take the
 * current tick, acks, arrivals and timer expiries as arguments, and
 * hand every chunk to resend (or, on the receiver, to release for the
 * drain) to a callable the caller supplies — so they allocate nothing
 * and queue no actions. The owner keeps the timer and the wire: the
 * NetworkInterface arms `ni.rto` from TxFlow::rto() and
 * TxFlow::wantsTimer(), and puts each chunk on the backplane
 * (Interconnect::hop). The unit tests drive both machines without a
 * simulator.
 *
 * A chunk's payload is a pooled Payload with one owner at a time: the
 * sender's retransmit window keeps the pristine copy until the
 * cumulative ack retires it; each transmission puts a clone on the
 * wire; the receiver holds it in its resequencing window or receive
 * queue until the receive DMA has written it to memory.
 *
 * Determinism: everything here is arithmetic on values the owning
 * shard already holds — no clocks, no randomness, no cross-node
 * reads — so the sharded engine's bit-identity contract is preserved
 * by construction.
 */

#ifndef SHRIMP_SHRIMP_TRANSPORT_HH
#define SHRIMP_SHRIMP_TRANSPORT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "shrimp/fault.hh"
#include "sim/coro.hh"
#include "sim/logging.hh"
#include "sim/params.hh"
#include "sim/stats.hh"
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
 * It fits EventCallback's inline buffer with a hop's capture.
 */
struct AckInfo
{
    std::uint64_t cum = 0;
    std::uint64_t sack = 0;
    bool ecn = false;
    /** The receiver that sent it: the acked flow's destination. */
    NodeId src = 0;
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
    if (in_order_below > cum) {
        const std::uint64_t n = in_order_below - cum;
        bits = n >= sackWindow ? ~std::uint64_t(0)
                               : (std::uint64_t(1) << n) - 1;
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

    /** The occupied seqs as a SACK bitmap anchored at @p base: bit i
     *  set iff seq base + i is held. Every live seq must lie in
     *  [base, base + sackWindow), which the owner's window ensures. */
    std::uint64_t
    sackBits(std::uint64_t base) const
    {
        return std::rotr(used_, int(base % sackWindow));
    }

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
        onLoss(inflight_bytes);
        cwnd = 2 * chunk;
    }

    bool inSlowStart() const { return cwnd < ssthresh; }
};

/** FNV-1a: the chunk checksum and the receive digest. */
constexpr std::uint64_t fnvBasis = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

inline void
fnvByte(std::uint64_t &h, std::uint8_t b)
{
    h ^= b;
    h *= fnvPrime;
}

inline void
fnvU64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        fnvByte(h, std::uint8_t(v >> (8 * i)));
}

/**
 * The simulated wire header of one chunk. Every field is covered by
 * the checksum together with the payload, so any corruption en route
 * is detected at the receiver. The field order packs it into 40
 * bytes, so a hop's event capture (peer, destination, chunk) fits
 * EventCallback's inline buffer; the checksum hashes the fields by
 * name, so the order is not part of the wire format.
 */
struct ChunkHeader
{
    NodeId src = 0;
    bool msgStart = false;
    bool msgEnd = false;
    std::uint64_t seq = 0;
    Addr dstAddr = 0;
    Tick senderStart = 0;
    std::uint64_t checksum = 0;
};
static_assert(sizeof(ChunkHeader) == 40, "keep the hop captures inline");

/** One chunk: its wire header and the payload the checksum covers. */
struct Chunk
{
    ChunkHeader h;
    Payload data;
};

/**
 * FNV-1a over the header fields (all but the checksum itself), then
 * the payload folded a 64-bit word per multiply, h = (h ^ w) * P,
 * with single bytes only for a tail. Every step is a bijection of h,
 * so a payload that differs from the one checksummed in one word (a
 * corrupting hop flips one byte) always changes the result.
 */
inline std::uint64_t
chunkChecksum(const ChunkHeader &h, const Payload &data)
{
    std::uint64_t sum = fnvBasis;
    fnvU64(sum, h.src);
    fnvU64(sum, h.seq);
    fnvU64(sum, h.dstAddr);
    fnvByte(sum, h.msgStart ? 1 : 0);
    fnvByte(sum, h.msgEnd ? 1 : 0);
    const std::uint8_t *bytes = data.data();
    const std::uint32_t len = data.size();
    fnvU64(sum, len);
    std::uint32_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes + i, sizeof w);
        sum ^= w;
        sum *= fnvPrime;
    }
    for (; i < len; ++i)
        fnvByte(sum, bytes[i]);
    return sum;
}

/**
 * The sender half of one selective-repeat flow: the credit, cwnd and
 * sequence windows, the retransmit window with its SACK scoreboard,
 * the RTT estimate and RTO recovery. Every resend goes to the caller's
 * `resend(const Chunk &, Resend)`, which puts a clone on the wire; the
 * flow never sees the wire, the timer or the event queue. The owner
 * runs the retransmit timer: it arms one for rto() whenever
 * wantsTimer() and none is pending, restarts it after every fresh ack,
 * and calls onTimeout() when it fires.
 */
class TxFlow
{
  public:
    /** Counters a node's flows share (the NI registers them). */
    struct Stats
    {
        /** Chunks re-sent, by any path. */
        stats::Scalar retransmits;
        /** The subset the SACK scoreboard re-sent (Fast + Rescue). */
        stats::Scalar fastRetransmits;
        /** Timer expiries that found chunks outstanding. */
        stats::Scalar timeouts;
        /** ECN halvings and RTO collapses of cwnd. */
        stats::Scalar cwndCuts;
        /** Rescue retransmits proven unnecessary: the chunk was
         *  SACKed (or cum-acked) sooner than the rescue copy could
         *  have completed a round trip, so the ack answered an
         *  earlier copy that was merely reordered, not lost. */
        stats::Scalar rescueSpurious;
    };

    /**
     * What a flow takes from its owner when it opens. From the machine
     * it reads the receiver's FIFO size (the credit window, and the
     * ceiling cwnd recovers to) and the RTO settings; the mutation
     * switches it reads live, as the fault model holds them.
     */
    struct Config
    {
        const sim::MachineParams *params = nullptr;
        /** The smallest send->ack round trip on this route: an ack
         *  that lands sooner after a resend cannot be answering it. */
        Tick wireRoundTrip = 0;
        const FaultConfig *faults = nullptr;
        Stats *stats = nullptr;
    };

    /** Why a chunk goes out again. */
    enum class Resend
    {
        /** A SACK-scoreboard hole (fast or early retransmit). */
        Fast,
        /** A resend the scoreboard proved lost, sent again. */
        Rescue,
        /** The first unSACKed chunk, at a timer expiry. */
        Timeout,
        /** The oldest chunk when every chunk is SACKed: a probe for
         *  the lost drain acks, with no loss implied. */
        Poke,
        /** Ack-clocked repair below the RTO recovery point. */
        Repair,
    };

    void
    open(const Config &cfg)
    {
        cfg_ = cfg;
        credits_ = cfg.params->niFifoBytes;
        rto_ = cfg.params->niRetryTimeout();
        // A full chunk is cwnd's additive-increase quantum.
        cwnd_.init(Payload::capacity, credits_);
    }

    bool isOpen() const { return cfg_.params != nullptr; }

    std::uint64_t nextSeq() const { return nextSeq_; }
    std::uint64_t cumAcked() const { return cumAcked_; }
    std::uint64_t unackedChunks() const { return nextSeq_ - cumAcked_; }
    /** Bytes sent but not yet drained: credits out, not returned. */
    std::uint32_t
    inflightBytes() const
    {
        return cfg_.params->niFifoBytes - credits_;
    }
    const CongestionWindow &cwnd() const { return cwnd_; }
    const RttEstimator &rtt() const { return rtt_; }
    /** The timeout the owner's timer runs next. */
    Tick rto() const { return rto_; }
    /** Ack-clocked RTO repair is still healing the window. */
    bool inRecovery() const { return inRecovery_; }

    /** Chunks the receiver has SACKed but not yet drained. */
    std::uint64_t
    sackedChunks() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t seq = cumAcked_; seq < nextSeq_; ++seq)
            n += unacked_.at(seq).sacked ? 1 : 0;
        return n;
    }

    /** The timer should run: chunks are out, and retransmission is
     *  not mutated away. */
    bool
    wantsTimer() const
    {
        return !unacked_.empty() && !cfg_.faults->disableRetransmit;
    }

    /**
     * A new @p bytes chunk fits under the credits, under cwnd, and in
     * the sequence window (never past what a 64-bit SACK bitmap can
     * name, or what the receiver's resequencing window is bounded
     * for). Resends hold their credits already and need no room.
     */
    bool
    canSend(std::uint32_t bytes) const
    {
        return credits_ >= bytes
               && inflightBytes() + bytes <= cwnd_.cwnd
               && nextSeq_ < cumAcked_ + sackWindow;
    }

    /** Take a new chunk, stamped nextSeq(), that canSend() admitted:
     *  it consumes credits and stays in the retransmit window until
     *  the cumulative ack passes it. Returns the kept copy. */
    const Chunk &
    send(Chunk chunk, Tick now)
    {
        SHRIMP_ASSERT(chunk.h.seq == nextSeq_, "chunk seq ", chunk.h.seq,
                      " is not the next seq ", nextSeq_);
        credits_ -= chunk.data.size();
        TxChunk &kept = unacked_.insert(nextSeq_++, TxChunk{});
        kept.chunk = std::move(chunk);
        kept.firstSent = now;
        return kept.chunk;
    }

    /**
     * An ack from the receiver. `ack.cum` says its receive DMA has
     * drained every chunk below it (retiring them and returning their
     * credits), the SACK bitmap names chunks received past the gap,
     * and the ECN mark reports receive-FIFO overcommit. Feeds the
     * scoreboard, the RTT estimator and cwnd, spends the ack-clocked
     * repair budget, and sets the next rto(). Returns false, changing
     * nothing, for a stale ack (a newer one already arrived); after a
     * fresh one the owner restarts its timer, then calls scoreboard().
     */
    template <typename ResendFn>
    bool
    onAck(const AckInfo &ack, Tick now, ResendFn &&resend)
    {
        if (ack.cum < cumAcked_)
            return false;
        if (ack.sack != 0 && !cfg_.faults->ignoreSack)
            markSacked(ack, now);

        if (ack.cum != cumAcked_) {
            SHRIMP_ASSERT(ack.cum <= nextSeq_, "ack of unsent seq ",
                          ack.cum, " from node ", ack.src);
            std::uint32_t acked_bytes = 0;
            std::uint64_t acked_chunks = 0;
            for (; cumAcked_ < ack.cum; ++cumAcked_) {
                // Retiring the chunk releases its payload.
                const TxChunk c = unacked_.take(cumAcked_);
                // Same spurious-rescue evidence as the SACK path: a
                // cumulative ack covering a rescued chunk inside the
                // rescue's own round trip answered an earlier copy.
                if (c.rescued && !c.sacked
                    && now < c.rescueTick + cfg_.wireRoundTrip)
                    ++cfg_.stats->rescueSpurious;
                acked_bytes += c.chunk.data.size();
                ++acked_chunks;
            }
            credits_ += acked_bytes;
            SHRIMP_ASSERT(credits_ <= cfg_.params->niFifoBytes,
                          "credit window overflow toward node ", ack.src);
            cwnd_.onAck(acked_bytes);
            // Ack-clocked RTO repair: each cumulative advance pays for
            // resending (newly acked + 1) not-yet-resent holes below
            // the recovery point — the lost window heals in about one
            // RTT per cwnd instead of one chunk per RTO.
            if (inRecovery_ && cumAcked_ >= recoveryPoint_)
                inRecovery_ = false;
            std::uint64_t budget = inRecovery_ ? acked_chunks + 1 : 0;
            for (std::uint64_t seq = cumAcked_;
                 budget > 0 && seq < recoveryPoint_; ++seq) {
                const TxChunk &c = unacked_.at(seq);
                if (c.sacked || c.epochResent)
                    continue;
                resendChunk(seq, now, Resend::Repair, resend);
                --budget;
            }
        }
        // The two genuine congestion signals cut cwnd: an ECN-marked
        // ack here, and an RTO in onTimeout(). A fast retransmit does
        // not: the credit window already bounds the flight at one
        // receive FIFO, so an isolated wire loss is line noise, and
        // halving on it caps goodput near 40% at the 7% combined loss
        // rate this transport is specified against.
        if (ack.ecn)
            cutWindow();
        // Every ack is liveness evidence: the timer is an ack-silence
        // detector, so it restarts from the adaptive estimate on any
        // ack, duplicate or not.
        rto_ = rtt_.valid ? rtt_.rto(cfg_.params->niRtoMin(),
                                     cfg_.params->niRetryTimeoutMax())
                          : cfg_.params->niRetryTimeout();
        return true;
    }

    /**
     * The SACK scoreboard, run after every fresh ack (dup acks carry
     * fresh SACK bits too). RFC 6675's DupThresh rule per chunk: a
     * hole with three or more SACKed chunks above it is lost rather
     * than reordered, and is resent now (Fast). Two refinements keep
     * the RTO a genuine last resort:
     *  - early retransmit (RFC 5827): a window too small to ever
     *    produce three SACKs lowers the threshold to outstanding - 1
     *    (floor 1), or every loss in a post-collapse window would
     *    stall a full RTO;
     *  - rescue: a resent chunk that stays unSACKed while three more
     *    SACK marks land was probably lost again and goes again. Only
     *    probably — per-chunk Delay faults reorder chunks within one
     *    link — so a rescue also waits out one round trip (the wire
     *    floor, or SRTT once measured) since the resend; inside that
     *    horizon no ack can be answering it yet. Rescues the
     *    scoreboard later contradicts count as rescueSpurious.
     * Resends go out in ascending sequence order.
     */
    template <typename ResendFn>
    void
    scoreboard(Tick now, ResendFn &&resend)
    {
        // `no-retransmit` kills every recovery path, not just the
        // timer — otherwise the scoreboard would quietly heal the
        // holes and the mutation would prove nothing.
        if (cfg_.faults->disableFastRetransmit
            || cfg_.faults->disableRetransmit)
            return;
        constexpr std::uint64_t dupThresh = 3;
        const std::uint64_t thresh = std::min(
            dupThresh, std::max<std::uint64_t>(1, unackedChunks() - 1));
        const Tick quiet = rtt_.valid
                               ? std::max(cfg_.wireRoundTrip, rtt_.srtt)
                               : cfg_.wireRoundTrip;
        // One backward sweep counts the SACKed chunks above each hole;
        // bit i of each mask stands for seq cumAcked_ + i.
        std::uint64_t holes = 0;
        std::uint64_t rescues = 0;
        std::uint64_t sacked_above = 0;
        for (std::uint64_t seq = nextSeq_; seq-- > cumAcked_;) {
            const TxChunk &c = unacked_.at(seq);
            if (c.sacked) {
                ++sacked_above;
                continue;
            }
            if (sacked_above < thresh)
                continue;
            const std::uint64_t bit = std::uint64_t(1) << (seq - cumAcked_);
            if (!c.epochResent) {
                holes |= bit;
            } else if (sackSerial_ - c.resendSerial >= dupThresh
                       && now >= c.lastResend + quiet) {
                holes |= bit;
                rescues |= bit;
            }
        }
        for (; holes != 0; holes &= holes - 1) {
            const unsigned i = unsigned(std::countr_zero(holes));
            resendChunk(cumAcked_ + i, now,
                        (rescues >> i) & 1 ? Resend::Rescue : Resend::Fast,
                        resend);
        }
    }

    /**
     * The retransmit timer expired. Selective repeat resends only the
     * first chunk the receiver does not hold, opens a new epoch (every
     * hole may go once more), enters ack-clocked recovery up to the
     * current nextSeq(), and collapses cwnd; the rest of the window is
     * repaired by onAck(). If every chunk is SACKed, nothing is lost —
     * the cumulative acks that return the credits were — so the oldest
     * chunk goes out as a Poke (the receiver dup-drops it and re-acks)
     * and cwnd stays. Either way the timeout backs off, capped at
     * niRetryTimeoutMax.
     */
    template <typename ResendFn>
    void
    onTimeout(Tick now, ResendFn &&resend)
    {
        if (unacked_.empty())
            return;
        ++cfg_.stats->timeouts;
        std::uint64_t hole = cumAcked_;
        while (hole < nextSeq_ && unacked_.at(hole).sacked)
            ++hole;
        if (hole == nextSeq_) {
            resendChunk(cumAcked_, now, Resend::Poke, resend);
        } else {
            for (std::uint64_t seq = cumAcked_; seq < nextSeq_; ++seq)
                unacked_.at(seq).epochResent = false;
            resendChunk(hole, now, Resend::Timeout, resend);
            inRecovery_ = true;
            recoveryPoint_ = nextSeq_;
            cwnd_.onRto(inflightBytes());
            lastCutSeq_ = nextSeq_;
            ++cfg_.stats->cwndCuts;
        }
        rto_ = std::min(rto_ * 2, cfg_.params->niRetryTimeoutMax());
    }

  private:
    /** One chunk in the retransmit window. */
    struct TxChunk
    {
        /** The pristine copy (header checksummed, src this node). */
        Chunk chunk;
        /** First-transmission tick (RTT sampling). */
        Tick firstSent = 0;
        /** SACK scoreboard: the receiver holds this chunk. Sticky. */
        bool sacked = false;
        /** Ever resent: Karn's rule, its SACK is no RTT sample. */
        bool rexmitted = false;
        /** Already resent in this RTO epoch. */
        bool epochResent = false;
        /** sackSerial_ and the tick at the latest resend: the rescue
         *  rule's evidence clock and its round-trip wait. */
        std::uint64_t resendSerial = 0;
        Tick lastResend = 0;
        /** The latest rescue's tick, while no ack has answered it. */
        bool rescued = false;
        Tick rescueTick = 0;
    };

    /** Mark what the bitmap names (anchored to this ack's own cum; a
     *  bit only ever marks a chunk received, so a reordered ack cannot
     *  un-SACK anything). A chunk's first SACK mark is also the RTT
     *  sample: the receiver acks every arrival, so send -> SACK
     *  measures the wire round trip the loss clock should run on, not
     *  the receive FIFO's drain sojourn. Karn: a resent chunk's mark
     *  is ambiguous (which copy arrived?) and is never sampled. */
    void
    markSacked(const AckInfo &ack, Tick now)
    {
        Tick rtt_sent = 0;
        bool have_rtt = false;
        for (std::uint64_t seq = ack.cum; seq < nextSeq_; ++seq) {
            TxChunk &c = unacked_.at(seq);
            const std::uint64_t off = seq - ack.cum;
            if (c.sacked || off >= sackWindow || !((ack.sack >> off) & 1))
                continue;
            c.sacked = true;
            ++sackSerial_;
            // A SACK landing before the rescue copy could even have
            // completed a round trip was answering an earlier copy.
            if (c.rescued) {
                if (now < c.rescueTick + cfg_.wireRoundTrip)
                    ++cfg_.stats->rescueSpurious;
                c.rescued = false;
            }
            if (!c.rexmitted) {
                rtt_sent = c.firstSent;
                have_rtt = true;
            }
        }
        if (have_rtt)
            rtt_.sample(now - rtt_sent);
    }

    /** The one resend path: bookkeeping, counters, then the wire. */
    template <typename ResendFn>
    void
    resendChunk(std::uint64_t seq, Tick now, Resend why, ResendFn &resend)
    {
        TxChunk &c = unacked_.at(seq);
        c.rexmitted = true;
        c.epochResent = true;
        c.resendSerial = sackSerial_;
        c.lastResend = now;
        if (why == Resend::Rescue) {
            c.rescued = true;
            c.rescueTick = now;
        }
        ++cfg_.stats->retransmits;
        if (why == Resend::Fast || why == Resend::Rescue)
            ++cfg_.stats->fastRetransmits;
        resend(std::as_const(c.chunk), why);
    }

    /** Halve cwnd, at most once per flight: further loss or ECN
     *  signals from the same window carry no new information. */
    void
    cutWindow()
    {
        if (cumAcked_ < lastCutSeq_)
            return;
        cwnd_.onLoss(inflightBytes());
        lastCutSeq_ = nextSeq_;
        ++cfg_.stats->cwndCuts;
    }

    Config cfg_;
    std::uint32_t credits_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t cumAcked_ = 0;
    /** The retransmit window: exactly seqs [cumAcked_, nextSeq_). */
    SeqWindow<TxChunk> unacked_;
    Tick rto_ = 0;
    RttEstimator rtt_;
    CongestionWindow cwnd_;
    /** Chunks newly SACKed on this flow, ever: the rescue rule's
     *  evidence clock. */
    std::uint64_t sackSerial_ = 0;
    /** RTO repair runs until cumAcked_ reaches this. */
    std::uint64_t recoveryPoint_ = 0;
    bool inRecovery_ = false;
    /** No cwnd cut until the cum ack passes the nextSeq of the last. */
    std::uint64_t lastCutSeq_ = 0;
};

/**
 * The receiver half of one flow (one source): checksum, dedup,
 * resequencing, the ack it implies, and the digest of what the
 * receive DMA drained.
 */
class RxFlow
{
  public:
    /** What became of an arriving chunk. */
    enum class Arrival
    {
        /** Checksum mismatch: dropped without an ack, so the sender's
         *  recovery treats it as lost. */
        Corrupt,
        /** Already held: dropped, but worth an ack (the sender's ack
         *  may have been lost). */
        Duplicate,
        /** Past a gap: held in the resequencing window. */
        Buffered,
        /** In order: released, with every held chunk behind it. */
        InOrder,
    };

    /**
     * A chunk arrives. In-order chunks — this one and every buffered
     * chunk it unblocks — go to `release(Chunk &&)` in sequence order.
     * The sender never sends past its cumulative ack + sackWindow, and
     * its cumulative ack never passes our drain watermark, so every
     * arrival fits the resequencing window by construction.
     */
    template <typename ReleaseFn>
    Arrival
    onArrival(Chunk &&chunk, ReleaseFn &&release)
    {
        const std::uint64_t seq = chunk.h.seq;
        if (chunkChecksum(chunk.h, chunk.data) != chunk.h.checksum)
            return Arrival::Corrupt;
        if (seq < expected_ || ooo_.contains(seq))
            return Arrival::Duplicate;
        SHRIMP_ASSERT(seq < drained_ + sackWindow,
                      "chunk past the SACK window from node ", chunk.h.src);
        if (seq > expected_) {
            ooo_.insert(seq, std::move(chunk));
            return Arrival::Buffered;
        }
        release(std::move(chunk));
        for (expected_ = seq + 1; ooo_.contains(expected_); ++expected_)
            release(ooo_.take(expected_));
        return Arrival::InOrder;
    }

    /** The receive DMA wrote @p chunk (the oldest released one) to
     *  memory: fold its bytes into the digest, advance the drain
     *  watermark. */
    void
    onDrained(const Chunk &chunk)
    {
        // Hash into a local: a byte load may alias digest_, which
        // would pin it to memory for the whole loop.
        std::uint64_t digest = digest_;
        const std::uint8_t *bytes = chunk.data.data();
        const std::uint32_t len = chunk.data.size();
        for (std::uint32_t i = 0; i < len; ++i)
            fnvByte(digest, bytes[i]);
        digest_ = digest;
        drained_ = chunk.h.seq + 1;
    }

    /** The ack this flow's state implies (ECN and src are the NI's):
     *  cum is the drain watermark, and the SACK bits cover what was
     *  released but not drained plus everything buffered. */
    AckInfo
    ack() const
    {
        AckInfo a;
        a.cum = drained_;
        a.sack = sackEncode(drained_, expected_, {}) | ooo_.sackBits(drained_);
        return a;
    }

    /** Next in-order seq: everything below it arrived. */
    std::uint64_t expected() const { return expected_; }
    /** Chunks drained into memory: the cumulative ack. */
    std::uint64_t drained() const { return drained_; }
    /** FNV-1a over the drained payload bytes, in sequence order. */
    std::uint64_t digest() const { return digest_; }

  private:
    std::uint64_t expected_ = 0;
    std::uint64_t drained_ = 0;
    std::uint64_t digest_ = 0x6368756e6b646967ull;
    /** The resequencing window: chunks received past a gap, all in
     *  (expected_, drained_ + sackWindow). */
    SeqWindow<Chunk> ooo_;
};

} // namespace shrimp::net

#endif // SHRIMP_SHRIMP_TRANSPORT_HH
