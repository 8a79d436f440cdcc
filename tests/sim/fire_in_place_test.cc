/**
 * @file
 * Unit tests for EventQueue::fireInPlace on a standalone queue: when
 * it fires an event in place and when it declines, and that a firing
 * looks exactly like scheduling the event and firing it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

using namespace shrimp;
using namespace shrimp::sim;

namespace
{

/** Run @p body inside eq.run(@p limit), from an event at @p at. */
void
runInside(EventQueue &eq, Tick at, Tick limit, std::function<void()> body)
{
    eq.schedule(at, "probe", [body = std::move(body)] { body(); });
    eq.run(limit);
}

std::string
dumpRecorders()
{
    std::ostringstream os;
    FlightRecorder::dumpAll(os);
    return os.str();
}

} // namespace

TEST(FireInPlace, DeclinesOutsideRunTo)
{
    EventQueue eq;
    // Host code before any run, at tick 0 with nothing pending: tick 0
    // is a real tick, not a "not running" marker.
    EXPECT_FALSE(eq.fireInPlace(0, "host"));
    EXPECT_FALSE(eq.fireInPlace(5, "host"));

    // Inside an event fired by step().
    bool fired = true;
    eq.schedule(10, "stepped", [&] { fired = eq.fireInPlace(20, "x"); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(fired);

    // Host code between runs.
    eq.run();
    EXPECT_FALSE(eq.fireInPlace(eq.now(), "host"));
    EXPECT_EQ(eq.firedInPlace(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

TEST(FireInPlace, FiresAtTickZeroInsideRunTo)
{
    EventQueue eq;
    bool fired = false;
    runInside(eq, 0, 0, [&] { fired = eq.fireInPlace(0, "zero"); });
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.firedInPlace(), 1u);
}

TEST(FireInPlace, DeclinesPastTheLimit)
{
    EventQueue eq;
    bool past = true, at = false;
    runInside(eq, 50, 100, [&] {
        past = eq.fireInPlace(101, "past");
        at = eq.fireInPlace(100, "at");
    });
    EXPECT_FALSE(past);
    EXPECT_TRUE(at);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(FireInPlace, DeclinesWhenAnEarlierTickIsPending)
{
    EventQueue eq;
    bool fired = true;
    eq.schedule(60, "pending", [] {});
    runInside(eq, 50, maxTick, [&] { fired = eq.fireInPlace(70, "x"); });
    EXPECT_FALSE(fired);
}

TEST(FireInPlace, DeclinesWhenALowerPriorityNumberIsPendingAtTheTick)
{
    EventQueue eq;
    bool fired = true;
    eq.schedule(70, "dma.done", [] {}, EventPriority::DeviceCompletion);
    runInside(eq, 50, maxTick, [&] {
        fired = eq.fireInPlace(70, "cpu", EventPriority::CpuResume);
    });
    EXPECT_FALSE(fired);
}

TEST(FireInPlace, DeclinesWhenASmallerStampIsPendingAtTheKey)
{
    EventQueue eq;
    bool fired = true;
    // Scheduled first, so its stamp is smaller than the probe's.
    eq.schedule(70, "earlier", [] {}, EventPriority::CpuResume);
    runInside(eq, 50, maxTick, [&] {
        fired = eq.fireInPlace(70, "cpu", EventPriority::CpuResume);
    });
    EXPECT_FALSE(fired);
}

TEST(FireInPlace, FiresAheadOfALaterPendingKey)
{
    EventQueue eq;
    std::vector<std::string> order;
    eq.schedule(70, "stats", [&] { order.push_back("stats"); },
                EventPriority::Stats);
    runInside(eq, 50, maxTick, [&] {
        if (eq.fireInPlace(70, "cpu", EventPriority::CpuResume))
            order.push_back("cpu@" + std::to_string(eq.now()));
    });
    EXPECT_EQ(order, (std::vector<std::string>{"cpu@70", "stats"}));
}

TEST(FireInPlace, FiresPastACancelledFront)
{
    EventQueue eq;
    bool fired = false;
    EventHandle front = eq.schedule(60, "cancelled", [] {});
    eq.schedule(80, "later", [] {});
    runInside(eq, 50, maxTick, [&] {
        ASSERT_TRUE(eq.deschedule(front));
        fired = eq.fireInPlace(70, "x");
    });
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.eventsCancelled(), 1u);
}

TEST(FireInPlace, ConsumesExactlyOneStamp)
{
    // Two queues run the same script; one fires the event at 20 in
    // place, the other schedules it and fires it off the heap. The
    // stamp of the next event scheduled, and so every later tie, is
    // the same.
    EventQueue in_place, scheduled;
    bool fired = false;
    runInside(in_place, 10, maxTick,
              [&] { fired = in_place.fireInPlace(20, "e"); });
    scheduled.schedule(10, "probe", [&] {
        scheduled.schedule(20, "e", [] {});
    });
    scheduled.run();
    ASSERT_TRUE(fired);
    EXPECT_EQ(in_place.now(), scheduled.now());
    EXPECT_EQ(in_place.eventsExecuted(), scheduled.eventsExecuted());
    EXPECT_EQ(in_place.allocStamp(), scheduled.allocStamp());
}

TEST(FireInPlace, CountsLikeAFiredEvent)
{
    FlightRecorder::clearAll();
    EventQueue eq;
    eq.setFlightLabel("in-place-probe");
    bool fired = false;
    eq.schedule(10, "probe", [&] { fired = eq.fireInPlace(25, "inplace"); });
    eq.schedule(40, "after", [] {});
    const std::uint64_t ran = eq.runTo(maxTick);
    ASSERT_TRUE(fired);
    EXPECT_EQ(ran, 3u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
    EXPECT_EQ(eq.firedInPlace(), 1u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.flightRecorder().recorded(), 3u);
    const std::string text = dumpRecorders();
    EXPECT_NE(text.find("[1] t=25 prio=50 inplace"), std::string::npos)
        << text;
    FlightRecorder::clearAll();
}

TEST(FireInPlace, ChainsGoThroughTheHeapEveryBoundPlusOneFirings)
{
    // A compute loop alone on its node: every step fires in place
    // until the queue declines, then schedules itself.
    EventQueue eq;
    constexpr std::uint64_t steps = 1000;
    std::uint64_t done = 0, heapFires = 0, longestRun = 0;
    std::function<void()> loop = [&] {
        ++heapFires;
        ++done;
        std::uint64_t run = 0;
        while (done < steps) {
            if (!eq.fireInPlace(eq.now() + 1, "op")) {
                eq.scheduleIn(1, "op", loop);
                break;
            }
            ++done;
            ++run;
        }
        longestRun = std::max(longestRun, run);
    };
    eq.schedule(0, "op", loop);
    eq.run();
    EXPECT_EQ(done, steps);
    EXPECT_EQ(eq.now(), steps - 1);
    EXPECT_EQ(eq.eventsExecuted(), steps);
    EXPECT_EQ(longestRun, EventHeap::maxInPlaceRun);
    // At least one heap fire in every maxInPlaceRun + 1 firings.
    EXPECT_GE(heapFires * (EventHeap::maxInPlaceRun + 1), steps);
    EXPECT_EQ(eq.firedInPlace() + heapFires, steps);
}

TEST(FireInPlace, AThrowingCallbackDisarmsIt)
{
    EventQueue eq;
    eq.schedule(10, "throws", [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(eq.run(), std::runtime_error);
    bool fired = true;
    eq.schedule(20, "stepped", [&] { fired = eq.fireInPlace(30, "x"); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(fired);
}
