/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace shrimp;
using namespace shrimp::sim;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, "c", [&] { order.push_back(3); });
    eq.schedule(10, "a", [&] { order.push_back(1); });
    eq.schedule(20, "b", [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, "late", [&] { order.push_back(2); },
                EventPriority::CpuResume);
    eq.schedule(5, "fifo1", [&] { order.push_back(0); },
                EventPriority::DeviceCompletion);
    eq.schedule(5, "fifo2", [&] { order.push_back(1); },
                EventPriority::DeviceCompletion);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, "outer", [&] {
        eq.scheduleIn(50, "inner", [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool ran = false;
    auto h = eq.schedule(10, "x", [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(h));
    EXPECT_FALSE(eq.deschedule(h)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, "a", [&] { ++count; });
    eq.schedule(20, "b", [&] { ++count; });
    eq.schedule(30, "c", [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, "x", [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, "past", [] {}), PanicError);
}

TEST(EventQueue, EventsExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(Tick(i + 1), "e", [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, "a", [&] { ++count; });
    eq.schedule(2, "b", [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(1, "chain", chain);
    };
    eq.schedule(0, "start", chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
}
