#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

namespace shrimp::sim
{

EventHeap::EventHeap(EventQueue &owner) : owner_(owner)
{
    slots_.reserve(initialSlots);
    freeSlots_.reserve(initialSlots);
    heap_.reserve(initialEntries);
}

EventHandle
EventHeap::push(Tick when, std::uint64_t rank, std::uint64_t stamp,
                const char *name, EventCallback &&fn)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        if (slots_.size() == slots_.capacity())
            ++containerGrowths_;
        slots_.emplace_back();
    }

    Record &rec = slots_[slot];
    rec.fn = std::move(fn);
    rec.name = name;
    const std::uint32_t gen = rec.gen;

    // The entry is built from the arguments, not read back from the
    // record just written: a load of fresh stores stalls on store
    // forwarding.
    if (heap_.size() == heap_.capacity())
        ++containerGrowths_;
    heap_.push_back(Entry{when, rank, stamp, slot, gen});
    std::push_heap(heap_.begin(), heap_.end(), After{});
    return EventHandle(slot + 1, gen);
}

bool
EventHeap::cancel(EventHandle handle)
{
    if (!handle.valid())
        return false;
    const std::uint32_t slot = handle.slotPlus1_ - 1;
    if (slot >= slots_.size())
        return false;
    Record &rec = slots_[slot];
    if (rec.gen != handle.gen_)
        return false; // fired, cancelled, or recycled: detected no-op
    rec.fn.reset();
    freeSlot(slot);
    --owner_.liveEvents_;
    ++owner_.cancelled_;
    // The heap entry stays behind with a now-mismatched generation;
    // dropStale() discards it, or maybeCompact() sweeps it early.
    ++staleInHeap_;
    maybeCompact();
    return true;
}

void
EventHeap::freeSlot(std::uint32_t slot)
{
    ++slots_[slot].gen;
    if (freeSlots_.size() == freeSlots_.capacity())
        ++containerGrowths_;
    freeSlots_.push_back(slot);
}

void
EventHeap::dropStale()
{
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        heap_.pop_back();
        SHRIMP_ASSERT(staleInHeap_ > 0, "stale-entry accounting underflow");
        --staleInHeap_;
    }
}

EventHeap::Entry
EventHeap::popEntry()
{
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Entry e = heap_.back();
    heap_.pop_back();
    return e;
}

void
EventHeap::maybeCompact()
{
    if (staleInHeap_ <= 64 || staleInHeap_ * 2 <= heap_.size())
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &e) {
                                   return stale(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), After{});
    staleInHeap_ = 0;
    ++compactions_;
}

void
EventHeap::fire(const Entry &e)
{
    inPlaceRun_ = 0;
    Record &rec = slots_[e.slot];
    SHRIMP_ASSERT(e.when >= owner_.curTick_, "time went backwards");
    owner_.curTick_ = e.when;
    owner_.flight_.record(e.when, rec.name, priorityOf(e.rank));
    // Move the callback out so the slot can be recycled even if the
    // callback schedules further events.
    EventCallback fn = std::move(rec.fn);
    freeSlot(e.slot);
    --owner_.liveEvents_;
    ++owner_.executed_;
    fn();
}

EventHeap::Key
EventHeap::heapKey()
{
    dropStale();
    if (heap_.empty())
        return {maxTick, 0};
    return {heap_.front().when, heap_.front().rank};
}

EventHeap::Key
EventHeap::nextKey()
{
    const Key key = heapKey();
    if (stream_.owner && Key{stream_.when, stream_.rank} < key)
        return {stream_.when, stream_.rank};
    return key;
}

bool
EventHeap::step()
{
    checkStream();
    dropStale();
    if (stream_.owner && runStream(maxTick, 1) > 0)
        return true;
    if (heap_.empty())
        return false;
    fire(popEntry());
    checkStream();
    return true;
}

std::uint64_t
EventHeap::runTo(Tick limit)
{
    // Arm fireInPlace for this call only; a callback that throws must
    // not leave it armed for a later step().
    struct Arm
    {
        EventHeap &heap;
        bool running;
        Tick limit;
        ~Arm()
        {
            heap.running_ = running;
            heap.runLimit_ = limit;
        }
    } arm{*this, running_, runLimit_};
    running_ = true;
    runLimit_ = limit;
    const std::uint64_t executed0 = owner_.executed_;
    // Host code may have changed what the stream depends on since
    // the last run.
    checkStream();
    for (;;) {
        dropStale();
        if (stream_.owner)
            runStream(limit, std::numeric_limits<std::uint64_t>::max());
        if (heap_.empty() || heap_.front().when > limit)
            return owner_.executed_ - executed0;
        fire(popEntry());
        checkStream();
    }
}

bool
EventHeap::fireInPlace(Tick when, std::uint64_t rank, const char *name)
{
    if (!running_ || when > runLimit_ || inPlaceRun_ == maxInPlaceRun)
        return false;
    SHRIMP_ASSERT(when >= owner_.curTick_, "time went backwards");
    dropStale();
    // The key the event would have: allocStamp's next stamp.
    const Entry key{when, rank, owner_.stampBase_ | owner_.nextSeq_, 0, 0};
    if (!heap_.empty() && !After{}(heap_.front(), key))
        return false;
    if (stream_.owner && !After{}(streamEntry(), key))
        return false;
    (void)owner_.allocStamp();
    ++inPlaceRun_;
    owner_.curTick_ = when;
    owner_.flight_.record(when, name, priorityOf(rank));
    ++owner_.executed_;
    ++owner_.firedInPlace_;
    return true;
}

bool
EventHeap::parkStream(Tick when, Tick period, std::uint64_t rank,
                      const char *name, StreamOwner &owner)
{
    if (!running_ || stream_.owner || period == 0)
        return false;
    if (when < owner_.curTick_) {
        panic("stream '", name ? name : "?",
              "' parked in the past: when=", when,
              " now=", owner_.curTick_);
    }
    // The engine's front hint stays as it is: a stream never posts,
    // so it neither holds its node nor its shard's promise.
    stream_ = Stream{when, rank, owner_.allocStamp(), period, name, &owner};
    ++owner_.liveEvents_;
    return true;
}

void
EventHeap::wakeStream()
{
    if (!stream_.owner)
        return;
    StreamOwner &owner = *stream_.owner;
    stream_.owner = nullptr;
    // Still one pending event: liveEvents_ already counts it. It is a
    // heap event from now on, so the front hint must not lie past it.
    const Key key{stream_.when, stream_.rank};
    if (owner_.front_ && key < *owner_.front_)
        *owner_.front_ = key;
    push(stream_.when, stream_.rank, stream_.stamp, stream_.name,
         owner.streamWoken());
}

std::uint64_t
EventHeap::advanceStream(Tick limit)
{
    if (!stream_.owner)
        return 0;
    dropStale();
    return runStream(limit, std::numeric_limits<std::uint64_t>::max());
}

std::uint64_t
EventHeap::runStream(Tick limit, std::uint64_t most)
{
    Stream &s = stream_;
    // Event k of the stream is due at s.when + k * period. Those up to
    // the limit and up to the front's tick are candidates; one at
    // the front's tick fires first only if its key is smaller.
    Tick last = limit;
    const Entry *front = heap_.empty() ? nullptr : &heap_.front();
    if (front && front->when < last)
        last = front->when;
    if (s.when > last)
        return 0;
    std::uint64_t n = (last - s.when) / s.period + 1;
    if (front && s.when + (n - 1) * s.period == front->when) {
        // Event 0 holds its stamp; event k > 0 takes the one its
        // predecessor's firing allocates.
        const std::uint64_t stamp =
            n == 1 ? s.stamp
                   : owner_.stampBase_ | (owner_.nextSeq_ + n - 2);
        if (!After{}(*front, Entry{front->when, s.rank, stamp, 0, 0}))
            --n;
    }
    n = std::min(n, most);
    // No firing may leave its repeat past maxTick: the event whose
    // repeat would not fit fires from the heap instead.
    const std::uint64_t fits = (maxTick - s.when) / s.period;
    const bool overflows = n > fits;
    n = std::min(n, fits);
    if (n > 0) {
        SHRIMP_ASSERT(s.when >= owner_.curTick_, "time went backwards");
        SHRIMP_ASSERT(owner_.nextSeq_ + n
                          <= (std::uint64_t(1) << EventQueue::stampSeqBits),
                      "per-source stamp space exhausted");
        const Tick at = s.when + (n - 1) * s.period;
        owner_.flight_.recordEvery(s.when, s.period, n, s.name,
                                   priorityOf(s.rank));
        owner_.curTick_ = at;
        owner_.executed_ += n;
        owner_.firedInPlace_ += n;
        // Each firing took the stamp of the repeat it issued.
        owner_.nextSeq_ += n;
        s.stamp = owner_.stampBase_ | (owner_.nextSeq_ - 1);
        s.when = at + s.period;
        s.owner->streamFired(n);
    }
    if (overflows)
        wakeStream();
    return n;
}

EventQueue::EventQueue(std::uint32_t node, EventHeap::Key *front)
    : front_(front), stampBase_(std::uint64_t(node) << stampSeqBits),
      node_(node)
{
    SHRIMP_ASSERT(stampBase_ >> stampSeqBits == node,
                  "node id does not fit the stamp");
}

EventQueue::~EventQueue() = default;

EventHandle
EventQueue::scheduleStamped(Tick when, std::uint64_t stamp,
                            const char *name, EventCallback &&fn,
                            EventPriority prio)
{
    if (when < curTick_) {
        panic("event '", name ? name : "?",
              "' scheduled in the past: when=", when, " now=", curTick_);
    }
    ++liveEvents_;
    const std::uint64_t rank = EventHeap::rankOf(prio, node_);
    if (front_ && EventHeap::Key{when, rank} < *front_)
        *front_ = {when, rank};
    return heap_.push(when, rank, stamp, name, std::move(fn));
}

} // namespace shrimp::sim
