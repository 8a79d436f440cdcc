/**
 * @file
 * Fuzz/soak tests for the event queue's slab allocator and
 * generation-tagged handles: a handle to a fired, cancelled, or
 * recycled slot must make deschedule() a detected no-op — never a
 * use-after-free (this suite carries the `sanitize` ctest label in
 * SHRIMP_SANITIZE builds) — and cancel-heavy load must trigger heap
 * compaction without losing live events.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace shrimp;
using namespace shrimp::sim;

TEST(EventSlabFuzz, RecycledSlotHandleIsStale)
{
    EventQueue eq;
    bool a_ran = false, b_ran = false;
    EventHandle ha = eq.schedule(1, "a", [&] { a_ran = true; });
    ASSERT_TRUE(eq.step());
    EXPECT_TRUE(a_ran);

    // The next schedule recycles a's slab slot; a's stale handle must
    // not be able to cancel (or corrupt) the new occupant.
    EventHandle hb = eq.schedule(2, "b", [&] { b_ran = true; });
    EXPECT_FALSE(eq.deschedule(ha));
    eq.run();
    EXPECT_TRUE(b_ran);
    EXPECT_FALSE(eq.deschedule(hb)); // already fired
}

TEST(EventSlabFuzz, DoubleDescheduleIsNoOp)
{
    EventQueue eq;
    bool ran = false;
    EventHandle h = eq.schedule(10, "x", [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(h));
    EXPECT_FALSE(eq.deschedule(h));
    // The freed slot gets recycled; the old handle must still miss.
    eq.schedule(20, "y", [] {});
    EXPECT_FALSE(eq.deschedule(h));
    eq.run();
    EXPECT_FALSE(ran);
}

/**
 * Soak: a random mix of schedule / fire / deschedule where deschedule
 * deliberately targets handles of *any* age, including long-fired and
 * long-recycled ones. A shadow model predicts the exact result:
 * deschedule succeeds iff the event has neither fired nor been
 * cancelled. At the end every event fired XOR was cancelled.
 */
TEST(EventSlabFuzz, HandleSoakMatchesShadowModel)
{
    EventQueue eq;
    Random rng(0xF1DD1E);

    // Fired flags live in a deque so references stay stable as the
    // population grows (callbacks capture a pointer to their flag).
    std::deque<char> fired;
    struct Tracked
    {
        EventHandle h;
        std::size_t idx;
        bool cancelled = false;
    };
    std::vector<Tracked> evs;

    for (int iter = 0; iter < 200000; ++iter) {
        unsigned roll = rng.below(100);
        if (roll < 50 || evs.empty()) {
            fired.push_back(0);
            char *flag = &fired.back();
            EventHandle h =
                eq.scheduleIn(1 + rng.below(700), "fuzz",
                              [flag] { *flag = 1; });
            evs.push_back(Tracked{h, fired.size() - 1});
        } else if (roll < 80) {
            eq.step();
        } else {
            Tracked &t = evs[rng.below(std::uint64_t(evs.size()))];
            bool expect = !fired[t.idx] && !t.cancelled;
            bool got = eq.deschedule(t.h);
            ASSERT_EQ(got, expect)
                << "deschedule disagreed with the shadow model at "
                << "iteration " << iter;
            if (got)
                t.cancelled = true;
        }
    }
    eq.run();

    for (const Tracked &t : evs) {
        EXPECT_NE(bool(fired[t.idx]), t.cancelled)
            << "event must fire exactly when it was not cancelled";
    }
}

/**
 * Satellite: cancelled entries may not accumulate in the heap
 * forever. A cancel-heavy phase must trigger compaction, and the
 * surviving events must all still fire.
 */
TEST(EventSlabFuzz, CancelHeavyLoadCompactsHeap)
{
    EventQueue eq;
    Random rng(0xC0FFEE);

    constexpr unsigned total = 20000;
    std::vector<EventHandle> handles;
    unsigned fired = 0;
    for (unsigned i = 0; i < total; ++i) {
        handles.push_back(eq.schedule(
            1 + rng.below(1000000), "bulk", [&fired] { ++fired; }));
    }

    // Cancel ~95% without advancing time at all: lazy deletion alone
    // would leave every entry sitting in the heap.
    unsigned cancelled = 0;
    for (unsigned i = 0; i < total; ++i) {
        if (rng.below(100) < 95 && eq.deschedule(handles[i]))
            ++cancelled;
    }
    EXPECT_GE(eq.heap().compactions(), 1u)
        << "cancel-heavy load must compact the heap";
    EXPECT_LE(eq.heap().heapEntries(), std::size_t(2 * (total - cancelled)))
        << "stale entries must not dominate the heap after cancels";

    eq.run();
    EXPECT_EQ(fired, total - cancelled);
    EXPECT_EQ(eq.eventsCancelled(), cancelled);
}

/**
 * Steady-state scheduling allocates nothing: once the slab and heap
 * reach the workload's high-water mark, a sustained
 * schedule/fire/cancel mix must not grow any container, and small
 * callbacks must never hit the EventCallback heap fallback.
 */
TEST(EventSlabFuzz, SteadyStateIsAllocationFree)
{
    EventQueue eq;
    Random rng(0x5EED);

    std::vector<EventHandle> spec(64);
    std::uint64_t fired = 0;
    // Self-rescheduling workload, warmed up past the high-water mark.
    struct Pump
    {
        EventQueue *eq;
        Random *rng;
        std::vector<EventHandle> *spec;
        std::uint64_t *fired;
        unsigned idx;

        void
        operator()()
        {
            ++*fired;
            auto self = *this;
            eq->scheduleIn(1 + rng->below(100), "pump", self);
            if ((*spec)[idx].valid())
                eq->deschedule((*spec)[idx]);
            (*spec)[idx] =
                eq->scheduleIn(100000, "spec", [] {});
        }
    };
    for (unsigned i = 0; i < 64; ++i)
        eq.scheduleIn(1 + i, "seed", Pump{&eq, &rng, &spec, &fired, i});

    while (fired < 50000 && eq.step()) {
    }
    std::uint64_t growths0 = eq.heap().containerGrowths();
    std::uint64_t fallbacks0 = EventCallback::heapFallbacks();
    while (fired < 150000 && eq.step()) {
    }
    EXPECT_EQ(eq.heap().containerGrowths(), growths0)
        << "steady-state scheduling must not grow slab/heap storage";
    EXPECT_EQ(EventCallback::heapFallbacks(), fallbacks0)
        << "small callbacks must stay in inline storage";
}

/** Captures larger than the inline buffer take the counted heap
 *  fallback and still run correctly. */
TEST(EventSlabFuzz, OversizeCaptureUsesHeapFallbackAndRuns)
{
    EventQueue eq;
    struct Big
    {
        char payload[128];
    };
    Big big{};
    big.payload[0] = 42;
    big.payload[127] = 7;

    std::uint64_t before = EventCallback::heapFallbacks();
    int seen = 0;
    eq.schedule(1, "big", [big, &seen] {
        seen = big.payload[0] + big.payload[127];
    });
    EXPECT_EQ(EventCallback::heapFallbacks(), before + 1);
    eq.run();
    EXPECT_EQ(seen, 49);
}
