#include "sim/event_queue.hh"

#include <algorithm>

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
EventHeap::nextKey()
{
    dropStale();
    if (heap_.empty())
        return {maxTick, 0};
    return {heap_.front().when, heap_.front().rank};
}

bool
EventHeap::step()
{
    dropStale();
    if (heap_.empty())
        return false;
    fire(popEntry());
    return true;
}

std::uint64_t
EventHeap::runTo(Tick limit)
{
    std::uint64_t fired = 0;
    for (;;) {
        dropStale();
        if (heap_.empty() || heap_.front().when > limit)
            return fired;
        fire(popEntry());
        ++fired;
    }
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
