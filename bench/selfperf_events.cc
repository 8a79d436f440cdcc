/**
 * @file
 * Self-performance benchmark of the simulation core (host wall clock,
 * not simulated time): how fast does the simulator itself run?
 *
 * Two workloads:
 *
 *  1. "events" — the event-core microworkload: a mesh of
 *     self-rescheduling actors with mixed priorities plus a
 *     speculative-cancel stream (schedule + deschedule), the
 *     steady-state pattern every simulated component produces. This is
 *     the headline events/sec number: it isolates the scheduling fast
 *     path from model code.
 *
 *  2. "udma" — a saturating multi-node UDMA traffic mix: a 4-node
 *     ring streaming user-level channel records, exercising proxy
 *     faults, context switches, NI delivery and DMA completion events.
 *     Reports host ns per simulated event, heap allocations per
 *     simulated event (counted by this binary's operator new), and
 *     TLB and proxy-translation-cache hit rates.
 *
 * Output: BENCH_selfperf.json via --stats-json=<path>. With
 * --check-against=<committed.json> the run is the CI self-perf gate
 * in tools/run_checks.sh. It first checks that the udma mix simulated
 * exactly the committed number of events (a faster run of different
 * work proves nothing), then that its allocations per event and the
 * events-core events/sec are within --tolerance (default 0.20) of the
 * committed baseline; it exits nonzero, loudly, on any failure.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/system.hh"
#include "msg/channel.hh"
#include "sim/random.hh"

namespace
{

/** Every operator new call in this binary (the udma mix's counter). */
std::atomic<std::uint64_t> g_heapAllocs{0};

void *
countedNew(std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedNew(n); }
void *operator new[](std::size_t n) { return countedNew(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace shrimp;
using namespace shrimp::core;

namespace
{

double
hostSeconds(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Results of the event-core microworkload. */
struct EventCoreResult
{
    std::uint64_t fired = 0;
    std::uint64_t cancels = 0;
    std::uint64_t compactions = 0;
    double hostSec = 0;
    double allocsPerEvent = 0;
    double heapFallbacksPerEvent = 0;

    double
    eventsPerSec() const
    {
        return hostSec > 0 ? double(fired) / hostSec : 0;
    }

    double
    nsPerEvent() const
    {
        return fired > 0 ? hostSec * 1e9 / double(fired) : 0;
    }
};

/**
 * The event-core microworkload: @p actors self-rescheduling callbacks
 * with a rotating priority mix; every firing also schedules a
 * speculative event and cancels the previous speculative one, so the
 * deschedule path (and the cancelled-entry compaction) is part of the
 * steady state being measured.
 */
EventCoreResult
runEventCore(std::uint64_t target_events, unsigned actors)
{
    sim::EventQueue eq;
    sim::Random rng(0xBEEF);

    EventCoreResult res;
    std::uint64_t fired = 0;
    std::vector<sim::EventHandle> speculative(actors);

    // Pre-computed pseudo-random delays: the workload should measure
    // the queue, not the PRNG.
    constexpr std::size_t delayMask = 1023;
    std::vector<Tick> delays(delayMask + 1);
    for (auto &d : delays)
        d = 1 + rng.below(5000);

    struct Actor
    {
        sim::EventQueue *eq;
        std::vector<Tick> *delays;
        std::vector<sim::EventHandle> *spec;
        std::uint64_t *fired;
        std::uint64_t *cancels;
        std::uint64_t target;
        unsigned idx;
        unsigned n;

        void
        fire()
        {
            ++*fired;
            if (*fired >= target)
                return;
            Tick d = (*delays)[(*fired + idx) & delayMask];
            // Re-arm this actor, alternating priority classes.
            auto self = *this;
            eq->scheduleIn(
                d, "selfperf.actor", [self]() mutable { self.fire(); },
                (*fired % 3 == 0)
                    ? sim::EventPriority::DeviceCompletion
                    : sim::EventPriority::Default);
            // Speculative event: cancel the previous one, park a new
            // one. Keeps a steady deschedule load on the queue.
            if ((*spec)[idx].valid()) {
                if (eq->deschedule((*spec)[idx]))
                    ++*cancels;
            }
            (*spec)[idx] = eq->scheduleIn(
                d + 100000, "selfperf.spec", [] {},
                sim::EventPriority::Stats);
        }
    };

    std::uint64_t cancels = 0;
    for (unsigned a = 0; a < actors; ++a) {
        Actor actor{&eq,    &delays, &speculative, &fired,
                    &cancels, target_events, a,       actors};
        eq.scheduleIn(1 + a, "selfperf.seed",
                      [actor]() mutable { actor.fire(); });
    }

    // Warm up to the workload's high-water mark so the measurement
    // covers the steady state: after this, the slab and heap are at
    // capacity and scheduling should allocate nothing at all.
    std::uint64_t warmup = target_events / 10;
    while (fired < warmup && eq.step()) {
    }
    std::uint64_t growths0 = eq.heap().containerGrowths();
    std::uint64_t fallbacks0 = sim::EventCallback::heapFallbacks();
    std::uint64_t fired0 = fired;

    auto t0 = std::chrono::steady_clock::now();
    while (fired < target_events && eq.step()) {
    }
    auto t1 = std::chrono::steady_clock::now();

    std::uint64_t measured = fired - fired0;
    res.fired = measured; // events inside the timed (steady-state) region
    res.cancels = cancels;
    res.compactions = eq.heap().compactions();
    res.hostSec = hostSeconds(t0, t1);
    if (measured > 0) {
        res.allocsPerEvent =
            double(eq.heap().containerGrowths() - growths0) / double(measured);
        res.heapFallbacksPerEvent =
            double(sim::EventCallback::heapFallbacks() - fallbacks0)
            / double(measured);
    }
    return res;
}

/** Results of the multi-node UDMA traffic mix. */
struct UdmaMixResult
{
    std::uint64_t simEvents = 0;
    std::uint64_t heapAllocs = 0;
    double hostSec = 0;
    double tlbHitRate = 0;
    double tcacheHitRate = 0;
    double aggregateMbs = 0;

    double
    eventsPerSec() const
    {
        return hostSec > 0 ? double(simEvents) / hostSec : 0;
    }

    double
    nsPerEvent() const
    {
        return simEvents > 0 ? hostSec * 1e9 / double(simEvents) : 0;
    }

    double
    allocsPerEvent() const
    {
        return simEvents > 0 ? double(heapAllocs) / double(simEvents) : 0;
    }
};

/**
 * Saturating 4-node UDMA ring (user-level channels): every node
 * streams records to its right neighbour while receiving from the
 * left, with sender and receiver time-slicing one CPU per node.
 */
UdmaMixResult
runUdmaMix(unsigned records)
{
    constexpr unsigned nodes = 4;
    constexpr std::uint32_t recordBytes = 4080;

    SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.node.memBytes = 8 << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);

    std::vector<msg::ChannelRendezvous> rv(nodes);
    std::vector<Tick> started(nodes, 0), done(nodes, 0);

    for (unsigned n = 0; n < nodes; ++n) {
        auto *me = &sys.node(n);
        auto *right = &sys.node((n + 1) % nodes);

        me->kernel().spawn(
            "recv" + std::to_string(n),
            [&, me, n](os::UserContext &ctx) -> sim::ProcTask {
                NodeId left = (n + nodes - 1) % nodes;
                msg::ReceiverChannel ch(ctx, 0, *me->ni(), left);
                if (!co_await ch.bind(rv[left]))
                    fatal("bind failed on node ", n);
                for (unsigned r = 0; r < records; ++r) {
                    std::uint32_t len = 0;
                    (void)co_await ch.recvZeroCopy(len);
                    co_await ch.ackLast();
                }
                done[n] = ctx.kernel().eq().now();
            });

        me->kernel().spawn(
            "send" + std::to_string(n),
            [&, me, right, n](os::UserContext &ctx) -> sim::ProcTask {
                msg::SenderChannel ch(ctx, 0, *me->ni(), right->id());
                if (!co_await ch.connect(rv[n]))
                    fatal("connect failed on node ", n);
                Addr buf = co_await ctx.sysAllocMemory(recordBytes);
                for (Addr off = 0; off < recordBytes; off += 4096)
                    co_await ctx.store(buf + off, n);
                started[n] = ctx.kernel().eq().now();
                for (unsigned r = 0; r < records; ++r)
                    co_await ch.send(buf, recordBytes);
            });
    }

    const std::uint64_t allocs0 = g_heapAllocs.load();
    auto t0 = std::chrono::steady_clock::now();
    sys.runUntilAllDone(Tick(600) * tickSec);
    sys.run();
    auto t1 = std::chrono::steady_clock::now();

    UdmaMixResult res;
    res.heapAllocs = g_heapAllocs.load() - allocs0;
    res.simEvents = sys.simEvents();
    res.hostSec = hostSeconds(t0, t1);

    std::uint64_t tlb_hits = 0, tlb_misses = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const auto &tlb = sys.node(n).mmu().tlb();
        tlb_hits += tlb.hits();
        tlb_misses += tlb.misses();
    }
    if (tlb_hits + tlb_misses > 0) {
        res.tlbHitRate =
            double(tlb_hits) / double(tlb_hits + tlb_misses);
    }

    std::uint64_t tc_hits = 0, tc_misses = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const auto &tc = sys.node(n).kernel().proxyTcache();
        tc_hits += tc.hits();
        tc_misses += tc.misses();
    }
    if (tc_hits + tc_misses > 0) {
        res.tcacheHitRate =
            double(tc_hits) / double(tc_hits + tc_misses);
    }

    double aggregate = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        Tick t_start = started[(n + nodes - 1) % nodes];
        if (done[n] > t_start && t_start > 0) {
            double us = ticksToUs(done[n] - t_start);
            aggregate +=
                records * double(recordBytes) / us * 1e6 / (1 << 20);
        }
    }
    res.aggregateMbs = aggregate;

    bench::captureSystem(sys);
    return res;
}

/**
 * Extract "key": <number> from a flat JSON file with a crude scan —
 * enough for the committed-baseline regression gate without a JSON
 * parser dependency in bench/.
 */
bool
scanJsonNumber(const std::string &text, const std::string &key,
               double &out)
{
    std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    while (pos < text.size()
           && (text[pos] == ' ' || text[pos] == '\t'))
        ++pos;
    char *end = nullptr;
    out = std::strtod(text.c_str() + pos, &end);
    return end != text.c_str() + pos;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;

    std::uint64_t target_events = 2000000;
    unsigned actors = 64;
    unsigned records = 48;
    std::string check_against;
    double tolerance = 0.20;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--events=", 0) == 0) {
            target_events = std::strtoull(arg.c_str() + 9, nullptr, 10);
        } else if (arg.rfind("--records=", 0) == 0) {
            records = unsigned(std::strtoul(arg.c_str() + 10, nullptr,
                                            10));
        } else if (arg.rfind("--check-against=", 0) == 0) {
            check_against = arg.substr(16);
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            tolerance = std::strtod(arg.c_str() + 12, nullptr);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }

    bench::BenchReport report("selfperf_events", opts);
    report.setParam("target_events", double(target_events));
    report.setParam("actors", double(actors));
    report.setParam("records", double(records));
    report.setParam("host_cores", double(sim::hostCoreCount()));
    report.setParam("host_hw_threads",
                    double(std::max(1u, std::thread::hardware_concurrency())));

    std::printf("# simulation-core self-performance (host wall clock)\n");

    EventCoreResult ev = runEventCore(target_events, actors);
    std::printf("events-core: %llu events, %llu cancels, "
                "%llu compactions, %.3f s host, %.0f events/s, "
                "%.1f ns/event, %.6f allocs/event, "
                "%.6f heap-fallbacks/event\n",
                (unsigned long long)ev.fired,
                (unsigned long long)ev.cancels,
                (unsigned long long)ev.compactions, ev.hostSec,
                ev.eventsPerSec(), ev.nsPerEvent(), ev.allocsPerEvent,
                ev.heapFallbacksPerEvent);

    UdmaMixResult mix = runUdmaMix(records);
    std::printf("udma-mix: %llu sim events, %.3f s host, %.0f events/s,"
                " %.1f ns/event, %.4f allocs/event, tlb-hit %.3f, "
                "tcache-hit %.3f, %.1f MB/s aggregate\n",
                (unsigned long long)mix.simEvents, mix.hostSec,
                mix.eventsPerSec(), mix.nsPerEvent(), mix.allocsPerEvent(),
                mix.tlbHitRate, mix.tcacheHitRate, mix.aggregateMbs);

    report.addMetric("events_per_sec", ev.eventsPerSec());
    report.addMetric("host_ns_per_event", ev.nsPerEvent());
    report.addMetric("cancels", double(ev.cancels));
    report.addMetric("allocs_per_event", ev.allocsPerEvent);
    report.addMetric("callback_heap_fallbacks_per_event",
                     ev.heapFallbacksPerEvent);
    report.addMetric("udma_events_per_sec", mix.eventsPerSec());
    report.addMetric("udma_host_ns_per_event", mix.nsPerEvent());
    report.addMetric("udma_sim_events", double(mix.simEvents));
    report.addMetric("udma_allocs_per_event", mix.allocsPerEvent());
    report.addMetric("tlb_hit_rate", mix.tlbHitRate);
    report.addMetric("tcache_hit_rate", mix.tcacheHitRate);
    report.addMetric("udma_aggregate_mb_s", mix.aggregateMbs);
    report.write();

    if (!check_against.empty()) {
        std::ifstream in(check_against);
        if (!in) {
            std::fprintf(stderr,
                         "SELF-PERF GATE ERROR: cannot read baseline "
                         "%s\n",
                         check_against.c_str());
            return 3;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();

        // Identity before speed: the committed figures describe one
        // exact simulated workload.
        double base_events = 0;
        if (!scanJsonNumber(text, "udma_sim_events", base_events)) {
            std::fprintf(stderr,
                         "SELF-PERF GATE ERROR: no udma_sim_events in "
                         "%s\n",
                         check_against.c_str());
            return 3;
        }
        std::printf("self-perf gate: udma mix simulated %llu events, "
                    "committed baseline %.0f\n",
                    (unsigned long long)mix.simEvents, base_events);
        if (double(mix.simEvents) != base_events) {
            std::fprintf(stderr,
                         "SELF-PERF WORKLOAD CHANGED: the udma mix ran "
                         "%llu simulated events, the committed baseline "
                         "%.0f (%s); its figures no longer describe this "
                         "workload — regenerate the baseline\n",
                         (unsigned long long)mix.simEvents, base_events,
                         check_against.c_str());
            return 1;
        }

        double base_allocs = 0;
        if (!scanJsonNumber(text, "udma_allocs_per_event", base_allocs)) {
            std::fprintf(stderr,
                         "SELF-PERF GATE ERROR: no udma_allocs_per_event "
                         "in %s\n",
                         check_against.c_str());
            return 3;
        }
        const double alloc_ceiling = base_allocs * (1.0 + tolerance);
        std::printf("self-perf gate: %.4f allocs/event vs committed "
                    "baseline %.4f (ceiling %.4f)\n",
                    mix.allocsPerEvent(), base_allocs, alloc_ceiling);
        if (mix.allocsPerEvent() > alloc_ceiling) {
            std::fprintf(stderr,
                         "SELF-PERF ALLOCATION REGRESSION: %.4f heap "
                         "allocations per simulated event is more than "
                         "%.0f%% above the committed baseline %.4f (%s)\n",
                         mix.allocsPerEvent(), tolerance * 100,
                         base_allocs, check_against.c_str());
            return 1;
        }

        double base = 0;
        if (!scanJsonNumber(text, "events_per_sec", base) || base <= 0) {
            std::fprintf(stderr,
                         "SELF-PERF GATE ERROR: no events_per_sec in "
                         "%s\n",
                         check_against.c_str());
            return 3;
        }
        double now = ev.eventsPerSec();
        double floor = base * (1.0 - tolerance);
        std::printf("self-perf gate: %.0f events/s vs committed "
                    "baseline %.0f (floor %.0f, tolerance %.0f%%)\n",
                    now, base, floor, tolerance * 100);
        if (now < floor) {
            std::fprintf(stderr,
                         "SELF-PERF REGRESSION: %.0f events/s is more "
                         "than %.0f%% below the committed baseline "
                         "%.0f events/s (%s)\n",
                         now, tolerance * 100, base,
                         check_against.c_str());
            return 1;
        }
    }
    return 0;
}
