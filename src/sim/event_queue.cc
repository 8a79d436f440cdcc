#include "sim/event_queue.hh"

#include <algorithm>

namespace shrimp::sim
{

EventHandle
EventQueue::scheduleStamped(Tick when, std::uint64_t stamp,
                            const char *name, EventCallback fn,
                            EventPriority prio)
{
    if (when < curTick_) {
        panic("event '", name ? name : "?",
              "' scheduled in the past: when=", when, " now=", curTick_);
    }

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
    rec.when = when;
    rec.seq = stamp;
    rec.name = name;
    rec.fn = std::move(fn);
    rec.prio = static_cast<std::int32_t>(prio);
    rec.inUse = true;

    if (heap_.size() == heap_.capacity())
        ++containerGrowths_;
    heap_.push_back(HeapEntry{rec.when, rec.seq, rec.prio, slot, rec.gen});
    std::push_heap(heap_.begin(), heap_.end(), After{});
    ++liveEvents_;
    return EventHandle(slot + 1, rec.gen);
}

bool
EventQueue::deschedule(EventHandle handle)
{
    if (!handle.valid())
        return false;
    const std::uint32_t slot = handle.slotPlus1_ - 1;
    if (slot >= slots_.size())
        return false;
    Record &rec = slots_[slot];
    if (!rec.inUse || rec.gen != handle.gen_)
        return false; // fired, cancelled, or recycled: detected no-op
    rec.fn.reset();
    freeSlot(slot);
    --liveEvents_;
    ++cancelled_;
    // The heap entry stays behind with a now-mismatched generation;
    // dropStale() discards it, or maybeCompact() sweeps it early.
    ++staleInHeap_;
    maybeCompact();
    return true;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = slots_[slot];
    rec.inUse = false;
    rec.name = nullptr;
    ++rec.gen;
    if (freeSlots_.size() == freeSlots_.capacity())
        ++containerGrowths_;
    freeSlots_.push_back(slot);
}

void
EventQueue::dropStale()
{
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        heap_.pop_back();
        SHRIMP_ASSERT(staleInHeap_ > 0, "stale-entry accounting underflow");
        --staleInHeap_;
    }
}

EventQueue::HeapEntry
EventQueue::popEntry()
{
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    HeapEntry e = heap_.back();
    heap_.pop_back();
    return e;
}

void
EventQueue::maybeCompact()
{
    if (staleInHeap_ <= 64 || staleInHeap_ * 2 <= heap_.size())
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const HeapEntry &e) {
                                   return stale(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), After{});
    staleInHeap_ = 0;
    ++compactions_;
}

void
EventQueue::fire(const HeapEntry &e)
{
    Record &rec = slots_[e.slot];
    SHRIMP_ASSERT(rec.when >= curTick_, "time went backwards");
    curTick_ = rec.when;
    lastFired_ = rec.when;
    flight_.record(rec.when, rec.name, rec.prio);
    // Move the callback out so the slot can be recycled even if the
    // callback schedules further events.
    EventCallback fn = std::move(rec.fn);
    rec.fn.reset();
    freeSlot(e.slot);
    --liveEvents_;
    ++executed_;
    fn();
}

std::pair<Tick, std::int32_t>
EventQueue::nextEventKey()
{
    dropStale();
    if (heap_.empty())
        return {maxTick, 0};
    return {heap_.front().when, heap_.front().prio};
}

bool
EventQueue::step()
{
    dropStale();
    if (heap_.empty())
        return false;
    fire(popEntry());
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (liveEvents_ > 0) {
        dropStale();
        if (heap_.empty())
            break;
        if (heap_.front().when > limit) {
            // The front event stays pending; time advances to the limit.
            curTick_ = limit;
            return curTick_;
        }
        fire(popEntry());
    }
    return curTick_;
}

} // namespace shrimp::sim
