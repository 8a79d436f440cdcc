/**
 * @file
 * Unit tests for EventQueue::parkStream on a standalone queue: a
 * parked stream fires the events a self-rescheduling event would, in
 * the same order against the heap, with the same stamps, clock,
 * counts and flight-recorder tail, and it wakes into the heap with
 * its own key.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace shrimp;
using namespace shrimp::sim;

namespace
{

constexpr EventPriority cpu = EventPriority::CpuResume;

/** A stream owner that logs what the queue tells it. */
class Owner final : public StreamOwner
{
  public:
    explicit Owner(EventQueue &eq) : eq_(eq) {}

    void
    streamFired(std::uint64_t n) override
    {
        fired += n;
        runs.emplace_back(eq_.now(), n);
    }

    bool
    streamMustWake() override
    {
        ++checks;
        return wake;
    }

    EventCallback
    streamWoken() override
    {
        return [this] { wokenAt.push_back(eq_.now()); };
    }

    /** Total events reported fired. */
    std::uint64_t fired = 0;
    /** (now, n) of each report. */
    std::vector<std::pair<Tick, std::uint64_t>> runs;
    std::uint64_t checks = 0;
    bool wake = false;
    /** Ticks at which the woken event fired from the heap. */
    std::vector<Tick> wokenAt;

  private:
    EventQueue &eq_;
};

std::string
dumpRecorders()
{
    std::ostringstream os;
    FlightRecorder::dumpAll(os);
    return os.str();
}

/** Park a stream at @p when every @p period from an event at
 *  @p at, inside run(@p limit). */
bool
parkInside(EventQueue &eq, Owner &owner, Tick at, Tick when,
           Tick period, Tick limit)
{
    bool parked = false;
    eq.schedule(at, "park", [&] {
        parked = eq.parkStream(when, period, "stream", cpu, owner);
    });
    eq.run(limit);
    return parked;
}

/** What one scripted run leaves behind. */
struct Outcome
{
    std::uint64_t ran = 0;
    Tick now = 0;
    std::uint64_t executed = 0;
    std::size_t pending = 0;
    EventHeap::Key next;
    std::uint64_t nextStamp = 0;
    std::string recorder;
    std::vector<std::string> order;
};

/**
 * The script both sides run: from an event at 10, a repeating event
 * at 20 every 3 ticks; heap events at and between its ticks, some
 * scheduled before it and some while it repeats, of lower, equal
 * and higher priority, all among the last 128 events; run to 1,000.
 * @p start issues the repeating event at 20 (park it, or schedule
 * it).
 */
Outcome
runScript(const std::function<void(EventQueue &, std::vector<std::string> &)>
              &start)
{
    FlightRecorder::clearAll();
    Outcome out;
    EventQueue eq;
    eq.setFlightLabel("script");
    auto log = [&out, &eq](const char *what) {
        out.order.push_back(std::string(what) + "@"
                            + std::to_string(eq.now()));
    };
    // Scheduled before the stream: a smaller stamp at its tick.
    eq.schedule(701, "early", [&] { log("early"); }, cpu);
    eq.schedule(10, "start", [&] { start(eq, out.order); });
    // Lower priority number at a stream tick.
    eq.schedule(710, "device", [&] { log("device"); },
                EventPriority::DeviceCompletion);
    eq.schedule(721, "sched", [&] {
        log("sched");
        // The stream's event at 722 took its stamp at 719: the
        // stream goes first. Its event at 725 takes its stamp at
        // 722, after this one's: this one goes first.
        eq.schedule(722, "late", [&] { log("late"); }, cpu);
        eq.schedule(725, "sooner", [&] { log("sooner"); }, cpu);
    });
    eq.schedule(800, "stats", [&] { log("stats"); },
                EventPriority::Stats);
    out.ran = eq.runTo(1000);
    out.now = eq.now();
    out.executed = eq.eventsExecuted();
    out.pending = eq.pendingEvents();
    out.next = eq.nextKey();
    out.recorder = dumpRecorders();
    out.nextStamp = eq.allocStamp();
    FlightRecorder::clearAll();
    return out;
}

} // namespace

TEST(EventStream, FiresWhatASelfReschedulingEventWould)
{
    Owner *owner = nullptr;
    std::unique_ptr<Owner> keep;
    const Outcome streamed =
        runScript([&](EventQueue &eq, std::vector<std::string> &) {
            keep = std::make_unique<Owner>(eq);
            owner = keep.get();
            ASSERT_TRUE(eq.parkStream(20, 3, "stream", cpu, *owner));
        });
    std::uint64_t repeats = 0;
    std::function<void()> repeat;
    const Outcome scheduled =
        runScript([&](EventQueue &eq, std::vector<std::string> &) {
            repeat = [&eq, &repeat, &repeats] {
                ++repeats;
                eq.schedule(eq.now() + 3, "stream", repeat, cpu);
            };
            eq.schedule(20, "stream", repeat, cpu);
        });
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(streamed.order, scheduled.order);
    EXPECT_EQ(streamed.order,
              (std::vector<std::string>{"early@701", "device@710",
                                        "sched@721", "late@722",
                                        "sooner@725", "stats@800"}));
    EXPECT_EQ(streamed.ran, scheduled.ran);
    EXPECT_EQ(streamed.now, scheduled.now);
    EXPECT_EQ(streamed.now, 998u);
    EXPECT_EQ(streamed.executed, scheduled.executed);
    EXPECT_EQ(streamed.pending, scheduled.pending);
    EXPECT_EQ(streamed.pending, 1u);
    EXPECT_EQ(streamed.next, scheduled.next);
    EXPECT_EQ(streamed.nextStamp, scheduled.nextStamp);
    // Over 128 repeats: only the ring's tail is written, and it reads
    // the same.
    EXPECT_EQ(owner->fired, repeats);
    EXPECT_GT(repeats, FlightRecorder::capacity);
    EXPECT_EQ(streamed.recorder, scheduled.recorder);
    const std::string &rec = streamed.recorder;
    auto at = [&rec](const char *line) {
        const std::size_t pos = rec.find(line);
        EXPECT_NE(pos, std::string::npos) << line << " in\n" << rec;
        return pos;
    };
    EXPECT_LT(at("t=701 prio=60 early"), at("t=701 prio=60 stream"));
    EXPECT_LT(at("t=710 prio=0 device"), at("t=710 prio=60 stream"));
    EXPECT_LT(at("t=722 prio=60 stream"), at("t=722 prio=60 late"));
    EXPECT_LT(at("t=725 prio=60 sooner"), at("t=725 prio=60 stream"));
    at("t=998 prio=60 stream");
}

TEST(EventStream, DeclinesOutsideRunTo)
{
    EventQueue eq;
    Owner owner(eq);
    EXPECT_FALSE(eq.parkStream(10, 5, "host", cpu, owner));

    bool parked = true;
    eq.schedule(10, "stepped",
                [&] { parked = eq.parkStream(20, 5, "x", cpu, owner); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(parked);
    EXPECT_FALSE(eq.streamParked());
    EXPECT_EQ(eq.pendingEvents(), 0u);
    // No stamp was taken.
    EXPECT_EQ(eq.allocStamp(), 2u);
}

TEST(EventStream, DeclinesASecondStreamAndAZeroPeriod)
{
    EventQueue eq;
    Owner a(eq), b(eq);
    bool zero = true, first = false, second = true;
    eq.schedule(10, "park", [&] {
        zero = eq.parkStream(20, 0, "zero", cpu, a);
        first = eq.parkStream(20, 5, "a", cpu, a);
        second = eq.parkStream(30, 5, "b", cpu, b);
    });
    eq.run(15);
    EXPECT_FALSE(zero);
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventStream, StopsAtAnEarlierFront)
{
    EventQueue eq;
    Owner owner(eq);
    std::vector<Tick> front;
    eq.schedule(45, "front", [&] { front.push_back(eq.now()); });
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 75));
    EXPECT_EQ(front, (std::vector<Tick>{45}));
    // 20, 30, 40 before the front; 50, 60, 70 after it.
    using Run = std::pair<Tick, std::uint64_t>;
    EXPECT_EQ(owner.runs, (std::vector<Run>{{40, 3}, {70, 3}}));
    // Checked after each of the two events off the heap (nothing was
    // parked on entry to the run).
    EXPECT_EQ(owner.checks, 2u);
}

TEST(EventStream, StopsAtAnEqualTickWithALowerPriorityNumber)
{
    EventQueue eq;
    Owner owner(eq);
    eq.schedule(40, "device", [] {}, EventPriority::DeviceCompletion);
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 45));
    using Run = std::pair<Tick, std::uint64_t>;
    EXPECT_EQ(owner.runs, (std::vector<Run>{{30, 2}, {40, 1}}));
}

TEST(EventStream, StopsAtAnEqualKeyWithASmallerStamp)
{
    using Run = std::pair<Tick, std::uint64_t>;
    {
        // The heap event's stamp is older than that of the pending
        // event parked at its tick.
        EventQueue eq;
        Owner owner(eq);
        eq.schedule(20, "older", [] {}, cpu);
        ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 25));
        EXPECT_EQ(owner.runs, (std::vector<Run>{{20, 1}}));
        EXPECT_NE(dumpRecorders().find("t=20 prio=60 older"),
                  std::string::npos);
    }
    {
        // The event at 40 took its stamp when the one at 30 fired,
        // before the heap event was scheduled at 35: it goes first.
        EventQueue eq;
        Owner owner(eq);
        std::vector<Tick> tieAt;
        eq.schedule(35, "sched", [&] {
            eq.schedule(40, "tie", [&] { tieAt.push_back(eq.now()); },
                        cpu);
        });
        ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 45));
        EXPECT_EQ(owner.runs, (std::vector<Run>{{30, 2}, {40, 1}}));
        EXPECT_EQ(tieAt, (std::vector<Tick>{40}));
    }
    {
        // The heap event at 40 was scheduled before the stream took
        // the stamp of its event at 40 (at 30's firing): it goes
        // first, and the stream's event at 40 fires after it.
        EventQueue eq;
        Owner owner(eq);
        eq.schedule(25, "sched",
                    [&] { eq.schedule(40, "tie", [] {}, cpu); });
        ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 45));
        EXPECT_EQ(owner.runs, (std::vector<Run>{{20, 1}, {30, 1}, {40, 1}}));
    }
}

TEST(EventStream, StopsAtTheLimit)
{
    EventQueue eq;
    Owner owner(eq);
    EXPECT_TRUE(parkInside(eq, owner, 10, 20, 10, 55));
    EXPECT_EQ(owner.fired, 4u);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.eventsExecuted(), 5u);
    EXPECT_EQ(eq.firedInPlace(), 4u);
    EXPECT_TRUE(eq.streamParked());
    EXPECT_EQ(eq.nextKey(), (EventHeap::Key{60, EventHeap::rankOf(cpu, 0)}));
    // The next run picks the stream up where it stopped.
    EXPECT_EQ(eq.runTo(60), 1u);
    EXPECT_EQ(owner.fired, 5u);
}

TEST(EventStream, StepFiresExactlyOneEvent)
{
    EventQueue eq;
    Owner owner(eq);
    std::vector<Tick> heapAt;
    eq.schedule(25, "heap", [&] { heapAt.push_back(eq.now()); });
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 15));
    ASSERT_EQ(owner.fired, 0u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(owner.fired, 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(heapAt, (std::vector<Tick>{25}));
    EXPECT_EQ(owner.fired, 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(owner.fired, 2u);
    EXPECT_EQ(eq.eventsExecuted(), 4u);
}

TEST(EventStream, WakingMovesThePendingEventIntoTheHeapWithItsStamp)
{
    EventQueue eq;
    Owner owner(eq);
    std::vector<std::string> order;
    // At 45 an event schedules a tie at 50 and wakes the stream. The
    // stream's event at 50 took its stamp when the one at 40 fired,
    // so it still fires before the tie.
    eq.schedule(45, "waker", [&] {
        eq.schedule(50, "tie", [&] { order.push_back("tie"); }, cpu);
        owner.wake = true;
    });
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 45));
    EXPECT_FALSE(eq.streamParked());
    EXPECT_EQ(owner.fired, 3u);
    EXPECT_EQ(eq.pendingEvents(), 2u);
    EXPECT_EQ(eq.nextKey(), (EventHeap::Key{50, EventHeap::rankOf(cpu, 0)}));
    eq.schedule(50, "later", [&] { order.push_back("later"); }, cpu);
    eq.run();
    EXPECT_EQ(owner.wokenAt, (std::vector<Tick>{50}));
    EXPECT_EQ(owner.fired, 3u);
    EXPECT_EQ(eq.eventsExecuted(), 1u + 1u + 3u + 3u);
    EXPECT_EQ(order, (std::vector<std::string>{"tie", "later"}));
}

TEST(EventStream, WakesOnEntryToARun)
{
    // Host code between runs: the check on entry to the next run
    // wakes the stream before anything fires.
    EventQueue eq;
    Owner owner(eq);
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 35));
    EXPECT_EQ(owner.fired, 2u);
    owner.wake = true;
    eq.run(100);
    EXPECT_EQ(owner.fired, 2u);
    EXPECT_EQ(owner.wokenAt, (std::vector<Tick>{40}));
    EXPECT_EQ(eq.pendingEvents(), 0u);

    EventQueue stepped;
    Owner steppedOwner(stepped);
    ASSERT_TRUE(parkInside(stepped, steppedOwner, 10, 20, 10, 15));
    steppedOwner.wake = true;
    EXPECT_TRUE(stepped.step());
    EXPECT_EQ(steppedOwner.fired, 0u);
    EXPECT_EQ(steppedOwner.wokenAt, (std::vector<Tick>{20}));
}

TEST(EventStream, NextKeyAndPendingCountIncludeItTheFrontHintDoesNot)
{
    // The engine's front hint follows the heap alone: a stream never
    // posts, so parking one leaves the hint where it was. Waking it
    // makes its event a heap event, and that lowers the hint.
    EventHeap::Key front{maxTick, 0};
    EventQueue eq(3, &front);
    Owner owner(eq);
    eq.schedule(90, "later", [] {});
    bool parked = false;
    eq.schedule(10, "park", [&] {
        front = eq.heapKey();
        parked = eq.parkStream(20, 10, "stream", cpu, owner);
    });
    eq.run(15);
    ASSERT_TRUE(parked);
    const EventHeap::Key streamKey{20, EventHeap::rankOf(cpu, 3)};
    const EventHeap::Key laterKey{
        90, EventHeap::rankOf(EventPriority::Default, 3)};
    EXPECT_EQ(eq.nextKey(), streamKey);
    EXPECT_EQ(eq.heapKey(), laterKey);
    EXPECT_EQ(front, laterKey);
    EXPECT_EQ(eq.pendingEvents(), 2u);
    EXPECT_FALSE(eq.empty());

    eq.wakeStream();
    EXPECT_FALSE(eq.streamParked());
    EXPECT_EQ(eq.heapKey(), streamKey);
    EXPECT_EQ(front, streamKey);
    EXPECT_EQ(eq.pendingEvents(), 2u);
    EXPECT_EQ(owner.checks, 1u) << "waking asks the owner nothing";
}

TEST(EventStream, AdvanceFiresToTheLimitOrTheFrontAndAsksNothing)
{
    // What the sharded engine does where a run ends: the stream's
    // events up to the limit fire in closed form, none past the heap
    // front, and the owner is told, never asked.
    EventQueue eq;
    Owner owner(eq);
    eq.schedule(75, "front", [] {});
    ASSERT_TRUE(parkInside(eq, owner, 10, 20, 10, 15));
    const std::uint64_t checks = owner.checks;
    EXPECT_EQ(eq.advanceStream(45), 3u);
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(eq.advanceStream(100), 3u);
    EXPECT_EQ(eq.now(), 70u);
    EXPECT_EQ(owner.fired, 6u);
    EXPECT_EQ(eq.firedInPlace(), 6u);
    EXPECT_EQ(owner.checks, checks);
    EXPECT_EQ(eq.nextKey(), (EventHeap::Key{75, EventHeap::rankOf(
                                                    EventPriority::Default,
                                                    0)}));
    EXPECT_TRUE(eq.streamParked());
}

TEST(EventStream, FireInPlaceDeclinesBehindIt)
{
    EventQueue eq;
    Owner owner(eq);
    bool behind = true, ahead = false;
    eq.schedule(10, "probe", [&] {
        ASSERT_TRUE(eq.parkStream(30, 10, "stream", cpu, owner));
        behind = eq.fireInPlace(30, "x", cpu);
        ahead = eq.fireInPlace(25, "y", cpu);
    });
    eq.run(26);
    EXPECT_FALSE(behind);
    EXPECT_TRUE(ahead);
}

TEST(EventStream, ARunNearMaxTickDoesNotOverflow)
{
    // Events at maxTick - 10 and - 6 fire in the stream. The one at
    // maxTick - 2 would issue its repeat past maxTick, so it fires
    // from the heap instead.
    EventQueue eq;
    Owner owner(eq);
    bool parked = false;
    eq.schedule(maxTick - 20, "park", [&] {
        parked = eq.parkStream(maxTick - 10, 4, "stream", cpu, owner);
    });
    eq.run(maxTick);
    ASSERT_TRUE(parked);
    EXPECT_EQ(owner.fired, 2u);
    EXPECT_EQ(owner.wokenAt, (std::vector<Tick>{maxTick - 2}));
    EXPECT_EQ(eq.now(), maxTick - 2);
    EXPECT_EQ(eq.eventsExecuted(), 4u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_FALSE(eq.streamParked());
}
