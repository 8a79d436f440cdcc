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
 * front-key hint of its heap up to date for the engine's node
 * selection (see scheduleStamped).
 *
 * All timing in the simulator is expressed by events on a queue.
 * Components never busy-wait; they schedule their next action and
 * return. Two exceptions skip the heap where the outcome is already
 * certain. Inside runTo, when an event is due before every pending
 * event of the node and within the limit, fireInPlace fires it at
 * once, with the stamp, clock, flight-recorder line and count it
 * would have had, and the caller runs its code itself (the kernel
 * does this for a CPU reference's completion). And a node may park
 * one *stream* (parkStream): a pending event that, each time it
 * fires, only schedules its own repeat one period later. runTo and
 * step fire its events in closed form while they precede the heap
 * front; its owner is asked after every event off the heap whether
 * it must wake, and waking hands the pending event back to the heap
 * (the kernel parks a spinning poll this way). A stream never posts,
 * so the engine's node fronts leave it out (heapKey): a node whose
 * only pending work is a stream is not run at all, and its events
 * fire when the node next runs for a heap event, or when the engine
 * advances it at the end of a run (advanceStream).
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
 * The owner of a stream parked on an EventQueue (parkStream). A
 * stream stands for an event that, each time it fires, does nothing
 * but issue its own repeat one period later, for as long as nothing
 * else happens on the node. The queue fires such events in closed
 * form and tells the owner how many; the owner says when the repeat
 * would now do something else, and then supplies the callback the
 * pending event fires with from the heap.
 */
class StreamOwner
{
  public:
    /** @p n more events of the stream fired, the last at the queue's
     *  now(); each issued the next, so one is pending again. Apply
     *  what n firings do beyond the queue's own bookkeeping. */
    virtual void streamFired(std::uint64_t n) = 0;

    /** True when the pending event must fire from the heap. Asked
     *  after every event off the heap, on entry to runTo and step,
     *  and by the sharded engine on entry to every run, so it sees
     *  every change any other code makes. */
    virtual bool streamMustWake() = 0;

    /** The stream wakes: the callback its pending event fires with
     *  from the heap. The stream is gone once this returns. */
    virtual EventCallback streamWoken() = 0;

  protected:
    ~StreamOwner() = default;
};

/**
 * One node's event core: a slab of event records and a binary
 * min-heap of (tick, rank, stamp) entries referencing slab slots,
 * where the rank packs (priority, node), plus at most one parked
 * stream beside the heap. It belongs to exactly one EventQueue, whose
 * clock and counters firing an event advances. Not thread-safe.
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
     * entries, stale ones included, on mesh16-lossy; CPU references
     * fired in place never enter the heap, and the marks are the same
     * with or without them), so a data phase does not grow a node's
     * heap. The allocation guard holds that for a 16-node lossy mesh.
     */
    static constexpr std::size_t initialSlots = 32;
    static constexpr std::size_t initialEntries = 64;

    /**
     * Most events fireInPlace fires back to back before the next
     * event must come off the heap. The caller's code runs on the
     * stack of the runTo that fired the last heap event, and without
     * optimisation a Task<> chain that never suspends nests a frame
     * per completed helper; coming back to the heap unwinds it.
     */
    static constexpr unsigned maxInPlaceRun = 64;

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

    /** Key of the earliest pending event, the stream's included
     *  ({maxTick, 0} when none); drops stale cancelled entries
     *  first. */
    Key nextKey();

    /** nextKey() without the stream: the earliest event in the
     *  heap. */
    Key heapKey();

    /** Fire the earliest pending event, if any: one heap event or
     *  one stream event. False if none. */
    bool step();

    /** Fire, in order, every event at or before @p limit — including
     *  those the fired callbacks schedule. @return Events fired,
     *  in place, in the stream or off the heap. */
    std::uint64_t runTo(Tick limit);

    /** EventQueue::fireInPlace, with the rank already packed. */
    bool fireInPlace(Tick when, std::uint64_t rank, const char *name);

    /** EventQueue::parkStream, with the rank already packed. */
    bool parkStream(Tick when, Tick period, std::uint64_t rank,
                    const char *name, StreamOwner &owner);

    /** True while a stream is parked. */
    bool streamParked() const { return stream_.owner != nullptr; }

    /** Wake the stream if its owner says it must. */
    void
    checkStream()
    {
        if (stream_.owner && stream_.owner->streamMustWake())
            wakeStream();
    }

    /** Move the stream's pending event, if one is parked, into the
     *  heap with its own key and the callback its owner supplies. */
    void wakeStream();

    /** EventQueue::advanceStream. */
    std::uint64_t advanceStream(Tick limit);

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

    /** The parked stream: its pending event's key, its period, and
     *  its owner (null when no stream is parked). */
    struct Stream
    {
        Tick when = 0;
        std::uint64_t rank = 0;
        std::uint64_t stamp = 0;
        Tick period = 0;
        const char *name = nullptr;
        StreamOwner *owner = nullptr;
    };

    /** The key of the stream's pending event. */
    Entry
    streamEntry() const
    {
        return Entry{stream_.when, stream_.rank, stream_.stamp, 0, 0};
    }

    /** Fire, in closed form and at most @p most, the stream events
     *  that precede the heap front and are due at or before
     *  @p limit. @return how many fired. */
    std::uint64_t runStream(Tick limit, std::uint64_t most);

    EventQueue &owner_;
    /** Inside runTo: fireInPlace may fire up to runLimit_. */
    bool running_ = false;
    Tick runLimit_ = 0;
    /** fireInPlace firings since the last event off the heap. */
    unsigned inPlaceRun_ = 0;
    std::uint64_t compactions_ = 0;
    std::uint64_t containerGrowths_ = 0;
    std::size_t staleInHeap_ = 0;
    std::vector<Record> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Entry> heap_;
    Stream stream_;
};

/**
 * One node's event queue: the clock, stamps, counters and flight
 * recorder of the node, and the EventHeap that orders its events.
 * Components hold an EventQueue and see only schedule / scheduleIn /
 * deschedule / now; the kernel's CPU also uses fireInPlace and
 * parkStream.
 */
class EventQueue
{
  public:
    /**
     * Node @p node's queue (a standalone queue is node 0); stamps
     * carry the node id in their high bits. @p front, when given, is
     * the engine's front-key hint for this node's heap: every schedule
     * (and a stream's wake) lowers it to the new event's key when that
     * is earlier, so the hint never lies past the heap front however
     * the event arrived (own schedule, same-shard post, mailbox drain,
     * or host code between runs). Firing and cancelling leave it low;
     * the engine re-reads heapKey() where it needs the exact key. A
     * parked stream is not in it.
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

    /** Number of this node's pending (non-cancelled) events; a
     *  parked stream counts once. */
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

    /** Execute exactly one event (off the heap or of a parked
     *  stream), if any. Returns false if the queue is empty. */
    bool step() { return heap_.step(); }

    /**
     * Fire an event at @p when in place, if it is certain to be this
     * node's next event: only inside runTo, only at or before its
     * limit, only when the event's full (tick, priority, stamp) key
     * precedes every pending event of the node (a parked stream's
     * too), and at most
     * EventHeap::maxInPlaceRun times between two events off the heap.
     * Then it takes the stamp, advances the clock to @p when, writes
     * the flight recorder and counts the event, exactly as scheduling
     * it and firing it would, and returns true: the caller runs the
     * event's code at once. Otherwise nothing changes and it returns
     * false; the caller schedules the event instead.
     *
     * Safe because nothing else can reach the node first: another
     * node's post lands at least a lookahead past the poster's clock,
     * so past the sub-window runTo is running, and mailboxes drain
     * only between rounds. Outside runTo — step(), host code between
     * runs — it never fires.
     */
    bool
    fireInPlace(Tick when, const char *name,
                EventPriority prio = EventPriority::Default)
    {
        return heap_.fireInPlace(when, EventHeap::rankOf(prio, node_),
                                 name);
    }

    /** Events of this node fired in place or in a stream (included
     *  in eventsExecuted()). */
    std::uint64_t firedInPlace() const { return firedInPlace_; }

    /**
     * Park a stream: a pending event at @p when that, each time it
     * fires, only issues its own repeat @p period ticks later, with
     * the next stamp. Only inside runTo, and only while no stream is
     * parked (a node has one). The event takes its stamp now, as
     * schedule would, and counts as one pending event however often
     * it repeats.
     *
     * runTo and step fire the stream's events in closed form while
     * they precede every pending event of the node, each with the
     * stamp, clock, flight-recorder line and count its firing would
     * have had (the count in firedInPlace() too), and report them to
     * @p owner (StreamOwner::streamFired). After every event off the
     * heap, and on entry to runTo and step, the owner is asked
     * whether the stream must wake; waking moves the pending event,
     * with its own tick and stamp, into the heap with the owner's
     * callback. Nothing else can reach the node in between, as for
     * fireInPlace, so the owner's check sees every change. The
     * stream counts in nextKey() and pendingEvents(), not in
     * heapKey() or the engine's front hint.
     *
     * @return false, changing nothing, outside runTo, when a stream
     *         is parked, or when @p period is 0.
     */
    bool
    parkStream(Tick when, Tick period, const char *name,
               EventPriority prio, StreamOwner &owner)
    {
        return heap_.parkStream(when, period,
                                EventHeap::rankOf(prio, node_), name,
                                owner);
    }

    /** True while a stream is parked on this queue. */
    bool streamParked() const { return heap_.streamParked(); }

    /** Ask a parked stream's owner whether it must wake, and wake it
     *  if so: what the entry to runTo does, for host code that ran
     *  since the queue last ran. */
    void checkStream() { heap_.checkStream(); }

    /** Wake a parked stream, if any, whatever its owner says: its
     *  pending event moves into the heap with its own tick and
     *  stamp. */
    void wakeStream() { heap_.wakeStream(); }

    /**
     * Fire, in closed form, a parked stream's events that are due at
     * or before @p limit and precede the heap front, without asking
     * its owner anything. The sharded engine calls it where a run
     * ends, for nodes it skipped while only their stream was pending.
     * @return Events fired.
     */
    std::uint64_t
    advanceStream(Tick limit)
    {
        return heap_.advanceStream(limit);
    }

    /** (tick, rank) of the earliest pending event, a parked stream's
     *  included ({maxTick, 0} when none). The rank carries the node,
     *  so the keys of several queues order their fronts by (tick,
     *  priority, node). */
    EventHeap::Key nextKey() { return heap_.nextKey(); }

    /** (tick, rank) of the earliest event in the heap, a parked
     *  stream's excluded: the key the engine's front hint tracks. */
    EventHeap::Key heapKey() { return heap_.heapKey(); }

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
    std::uint64_t firedInPlace_ = 0;
    std::uint64_t cancelled_ = 0;
    std::size_t liveEvents_ = 0;
    FlightRecorder flight_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
