/**
 * @file
 * The discrete-event simulation core: one node's event queue
 * (EventQueue) over its own binary heap of pending events on a slab
 * of event records (EventHeap).
 *
 * A node fires its events in (tick, priority, stamp) order. The stamp
 * is the tie-break at equal (tick, priority): (source node <<
 * stampSeqBits) | per-source counter, a *canonical* key assigned when
 * the originating node decides to schedule the event, not when a
 * cross-node message happens to be drained into the destination
 * heap. Ties therefore execute in (source node, per-source order),
 * independent of shard count, mailbox batching, or window boundaries
 * — the property the sharded engine's bit-identical `--shards=1` vs
 * `--shards=N` guarantee rests on. A standalone queue is node 0 and
 * stamps its own events with a plain insertion counter, which is
 * classic insertion-order FIFO.
 *
 * There is exactly one heap implementation, and every heap has one
 * owner: each EventQueue holds its EventHeap inline, whether it is a
 * standalone queue (unit tests, micro benches) or one of the sharded
 * engine's per-node queues (sim/sharded.hh). The queue keeps the rest
 * of what is per node: the clock (the tick of the node's last fired
 * event), the stamp counter, the executed / cancelled / pending
 * counts and the flight recorder. An engine queue also keeps a
 * front-key hint up to date for the engine's node selection (see
 * scheduleStamped).
 *
 * All timing in the simulator is expressed by scheduling callbacks on
 * a queue. Components never busy-wait; they schedule their next action
 * and return.
 *
 * The scheduling fast path is allocation-free and hash-free in the
 * steady state:
 *
 *  - Event records live in a slab with an explicit free list; firing
 *    or cancelling an event recycles its slot instead of touching the
 *    heap allocator. The slab, free list and heap start with room for
 *    one node's high-water mark in the channel workloads.
 *  - Handles are generation-tagged slab indices, so deschedule() is a
 *    direct array probe (no id map) and a handle to a fired or
 *    recycled event is detected as stale, never dereferenced.
 *  - Event labels are static strings (`const char *`): callers pass
 *    string literals and no per-event std::string is ever built.
 *  - Callbacks are stored in EventCallback's inline small-buffer;
 *    only captures larger than EventCallback::inlineBytes fall back
 *    to the heap (counted, so benches and the allocation guard can
 *    tell which events still pay it).
 *
 * Cancelled events leave a stale entry in the binary heap (detected by
 * generation mismatch); when stale entries exceed half the heap it
 * compacts, bounding both memory and comparator work under
 * cancel-heavy workloads.
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/flight_recorder.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::sim
{

/**
 * Event priorities; lower numeric value runs first at the same tick.
 * Device completions run before CPU resumption so that software
 * observes hardware state changes that logically precede it.
 */
enum class EventPriority : int
{
    DeviceCompletion = 0,
    Default = 50,
    CpuResume = 60,
    Stats = 90,
};

/**
 * Type-erased `void()` callback with small-buffer-optimized inline
 * storage. Callables up to inlineBytes that are nothrow-movable are
 * stored in place; larger ones fall back to one heap allocation,
 * counted in heapFallbacks() so the fast path can prove it never
 * pays it.
 */
class EventCallback
{
  public:
    /**
     * Inline capture budget: one cache line. Every simulated CPU
     * reference's cpu.op completion fits (Kernel::issueOp
     * static_asserts it), and so do the NI's per-chunk ni.deliver /
     * ni.fwd hops, which carry a peer pointer, a 40-byte chunk header
     * and an 8-byte pooled payload handle (launchChunk static_asserts
     * them). It also sizes every event record and every cross-shard
     * mailbox message, so it is not raised to fit a capture.
     */
    static constexpr std::size_t inlineBytes = 64;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>
                  && std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT(google-explicit-constructor)
    {
        emplace(std::forward<F>(f));
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        SHRIMP_ASSERT(ops_, "invoking an empty EventCallback");
        ops_->invoke(buf_);
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Process-wide count of captures too large for inline storage. */
    static std::uint64_t
    heapFallbacks()
    {
        return heapFallbacks_.load(std::memory_order_relaxed);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move construct into dst from src, destroying src. */
        void (*moveTo)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename F>
    struct InlineOps
    {
        static F *
        self(void *p)
        {
            return std::launder(reinterpret_cast<F *>(p));
        }

        static void invoke(void *p) { (*self(p))(); }

        static void
        moveTo(void *src, void *dst)
        {
            F *s = self(src);
            ::new (dst) F(std::move(*s));
            s->~F();
        }

        static void destroy(void *p) { self(p)->~F(); }

        static constexpr Ops ops{invoke, moveTo, destroy};
    };

    template <typename F>
    struct HeapOps
    {
        static F *
        ptr(void *p)
        {
            F *f = nullptr;
            std::memcpy(&f, p, sizeof f);
            return f;
        }

        static void invoke(void *p) { (*ptr(p))(); }

        static void
        moveTo(void *src, void *dst)
        {
            std::memcpy(dst, src, sizeof(F *));
        }

        static void destroy(void *p) { delete ptr(p); }

        static constexpr Ops ops{invoke, moveTo, destroy};
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->moveTo(other.buf_, buf_);
            other.ops_ = nullptr;
        }
    }

    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= inlineBytes
                      && alignof(D) <= alignof(std::max_align_t)
                      && std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(buf_, &heap, sizeof heap);
            ops_ = &HeapOps<D>::ops;
            // Relaxed: a plain counter read after the run; sharded
            // workers bump it concurrently.
            heapFallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;

    // shrimp-lint: shard-safe(monotonic diagnostics counter, relaxed atomic, never read by sim logic)
    inline static std::atomic<std::uint64_t> heapFallbacks_{0};
};

/**
 * A handle to a scheduled event, usable to deschedule it. Handles are
 * cheap value types: a slab index plus the slot's generation at
 * scheduling time. Descheduling an already-fired, already-cancelled,
 * or recycled event is detected by the generation tag and reported as
 * a no-op (deschedule returns false) — never a use-after-free.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    bool valid() const { return slotPlus1_ != 0; }

  private:
    friend class EventHeap;
    EventHandle(std::uint32_t slot_plus_1, std::uint32_t gen)
        : slotPlus1_(slot_plus_1), gen_(gen)
    {}
    std::uint32_t slotPlus1_ = 0;
    std::uint32_t gen_ = 0;
};

class EventQueue;

/**
 * One node's event core: a slab of event records and a binary
 * min-heap of (tick, rank, stamp) entries referencing slab slots,
 * where the rank packs (priority, node). It belongs to exactly one
 * EventQueue, whose clock and counters firing an event advances. Not
 * thread-safe.
 */
class EventHeap
{
  public:
    /** The order key of an event without its stamp: (tick, rank),
     *  where the rank packs (priority, node). Keys of distinct nodes
     *  never tie, so they order the fronts of several heaps too. */
    using Key = std::pair<Tick, std::uint64_t>;

    /** Pack (priority, node) into one unsigned word that orders like
     *  the pair; the sign bit flip keeps negative priorities first. */
    static std::uint64_t
    rankOf(EventPriority prio, std::uint32_t node)
    {
        const auto p = std::uint32_t(std::int32_t(prio)) ^ 0x80000000u;
        return std::uint64_t(p) << 32 | node;
    }

    /**
     * Initial slab and heap capacity: over twice the high-water mark of
     * any one node in the benchmark workloads (12 records and 27 heap
     * entries, stale ones included), so a data phase does not grow a
     * node's heap. The allocation guard holds that for a 16-node
     * lossy mesh.
     */
    static constexpr std::size_t initialSlots = 32;
    static constexpr std::size_t initialEntries = 64;

    /** The heap of @p owner, which holds it inline. */
    explicit EventHeap(EventQueue &owner);
    EventHeap(const EventHeap &) = delete;
    EventHeap &operator=(const EventHeap &) = delete;

    /** Insert an event (the owner has checked @p when against its
     *  clock and counted it pending). */
    EventHandle push(Tick when, std::uint64_t rank, std::uint64_t stamp,
                     const char *name, EventCallback &&fn);

    /** EventQueue::deschedule. */
    bool cancel(EventHandle handle);

    /** Key of the earliest pending event ({maxTick, 0} when none);
     *  drops stale cancelled entries first. */
    Key nextKey();

    /** Fire the earliest pending event, if any. False if none. */
    bool step();

    /** Fire, in order, every event at or before @p limit — including
     *  those the fired callbacks schedule. @return Events fired. */
    std::uint64_t runTo(Tick limit);

    // ------------------------------------------- self-perf counters
    /** Stale-entry heap compactions performed. */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Container-growth allocations on the scheduling path (slab, heap
     * and free-list growth). Flat in the steady state: once the slab
     * and heap reach the workload's high-water mark, scheduling
     * allocates nothing.
     */
    std::uint64_t containerGrowths() const { return containerGrowths_; }

    /** Heap entries currently held, including stale (cancelled) ones. */
    std::size_t heapEntries() const { return heap_.size(); }

  private:
    /** The priority packed into @p rank (inverse of rankOf). */
    static std::int32_t
    priorityOf(std::uint64_t rank)
    {
        return std::int32_t(std::uint32_t(rank >> 32) ^ 0x80000000u);
    }

    /** One slab slot: a (possibly recycled) event record. A slot is
     *  live exactly while its generation equals the one in the
     *  handle and heap entry that named it; freeing it bumps gen. */
    struct Record
    {
        EventCallback fn;
        const char *name = nullptr;
        std::uint32_t gen = 0;
    };

    /** Heap entry: ordering keys + slab reference; cancelled events
     *  are detected by a generation mismatch with the slot. */
    struct Entry
    {
        Tick when;
        std::uint64_t rank;
        /** Canonical stamp: (source node << stampSeqBits) | counter. */
        std::uint64_t stamp;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** "Greater" over (when, rank, stamp): std::push_heap et al.
     *  build a max-heap, so this puts the earliest event in front. */
    struct After
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.rank != b.rank)
                return a.rank > b.rank;
            return a.stamp > b.stamp;
        }
    };

    bool stale(const Entry &e) const
    {
        return slots_[e.slot].gen != e.gen;
    }

    /** Pop stale (cancelled) entries off the top of the heap. */
    void dropStale();

    /** Pop the front heap entry (must not be empty). */
    Entry popEntry();

    /** Release a slot back to the free list, bumping its generation. */
    void freeSlot(std::uint32_t slot);

    /** Fire the event referenced by a (valid) heap entry. */
    void fire(const Entry &e);

    /** Rebuild the heap without stale entries when they dominate. */
    void maybeCompact();

    EventQueue &owner_;
    std::uint64_t compactions_ = 0;
    std::uint64_t containerGrowths_ = 0;
    std::size_t staleInHeap_ = 0;
    std::vector<Record> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Entry> heap_;
};

/**
 * One node's event queue: the clock, stamps, counters and flight
 * recorder of the node, and the EventHeap that orders its events.
 * Components hold an EventQueue and see only schedule / scheduleIn /
 * deschedule / now.
 */
class EventQueue
{
  public:
    /**
     * Node @p node's queue (a standalone queue is node 0); stamps
     * carry the node id in their high bits. @p front, when given, is
     * the engine's front-key hint for this node: every schedule lowers
     * it to the new event's key when that is earlier, so the hint
     * never lies past the true front however the event arrived (own
     * schedule, same-shard post, mailbox drain, or host code between
     * runs). Firing and cancelling leave it low; the engine re-reads
     * the queue where it needs the exact key.
     */
    explicit EventQueue(std::uint32_t node = 0,
                        EventHeap::Key *front = nullptr);

    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time: the tick of this node's most recently
     *  fired event (0 before any fired). */
    Tick now() const { return curTick_; }

    /** Per-source sequence bits in a stamp; the high bits carry the
     *  stamp source id (the node). */
    static constexpr unsigned stampSeqBits = 44;

    /**
     * Allocate the next canonical stamp for an event originating on
     * this queue's node. The sharded engine calls this at post() time
     * so a cross-node message carries its tie-break key with it.
     */
    std::uint64_t
    allocStamp()
    {
        SHRIMP_ASSERT(nextSeq_ < (std::uint64_t(1) << stampSeqBits),
                      "per-source stamp space exhausted");
        return stampBase_ | nextSeq_++;
    }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param name Static debug label (string literal); the queue
     *             stores the pointer, never copies the text.
     * @param fn Callback invoked when the event fires.
     * @param prio Intra-tick ordering class.
     * @return Handle that can cancel the event before it fires.
     */
    EventHandle
    schedule(Tick when, const char *name, EventCallback fn,
             EventPriority prio = EventPriority::Default)
    {
        return scheduleStamped(when, allocStamp(), name, std::move(fn),
                               prio);
    }

    /**
     * Schedule with a caller-provided stamp — the sharded engine's
     * delivery path for cross-node messages, whose stamp was allocated
     * on the *originating* node's queue at post() time.
     */
    EventHandle scheduleStamped(Tick when, std::uint64_t stamp,
                                const char *name, EventCallback &&fn,
                                EventPriority prio =
                                    EventPriority::Default);

    /** Schedule a callback @p delay ticks in the future. */
    EventHandle
    scheduleIn(Tick delay, const char *name, EventCallback fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(curTick_ + delay, name, std::move(fn), prio);
    }

    /**
     * Cancel a pending event. Returns true if the event was pending
     * and is now cancelled; false if it had already fired, was
     * already cancelled, or the slot has been recycled.
     */
    bool deschedule(EventHandle handle) { return heap_.cancel(handle); }

    /** True if no events of this node remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of this node's pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return liveEvents_; }

    /**
     * Fire this node's events in order until none is left at or
     * before @p limit, including those the fired callbacks schedule.
     * @return Events fired.
     */
    std::uint64_t runTo(Tick limit) { return heap_.runTo(limit); }

    /** runTo(@p limit). @return now() afterwards. */
    Tick
    run(Tick limit = maxTick)
    {
        runTo(limit);
        return curTick_;
    }

    /** Execute exactly one event, if any. Returns false if the queue
     *  is empty. */
    bool step() { return heap_.step(); }

    /** (tick, rank) of the earliest pending event ({maxTick, 0} when
     *  none). The rank carries the node, so the keys of several
     *  queues order their fronts by (tick, priority, node). */
    EventHeap::Key nextKey() { return heap_.nextKey(); }

    /** Events of this node executed over the queue's lifetime. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Events of this node cancelled over the queue's lifetime. */
    std::uint64_t eventsCancelled() const { return cancelled_; }

    /** The heap this queue schedules into (the self-perf counters). */
    const EventHeap &heap() const { return heap_; }

    /** Name this queue's flight recorder in post-mortem dumps. */
    void setFlightLabel(std::string label)
    {
        flight_.setLabel(std::move(label));
    }

    /** The per-queue ring of recently fired events. */
    const FlightRecorder &flightRecorder() const { return flight_; }

  private:
    friend class EventHeap;

    EventHeap heap_{*this};
    /** The engine's front-key hint (null on a standalone queue). */
    EventHeap::Key *front_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 1;
    /** High stamp bits: the node id. */
    std::uint64_t stampBase_ = 0;
    std::uint32_t node_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::size_t liveEvents_ = 0;
    FlightRecorder flight_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
