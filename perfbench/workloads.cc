#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "alloc_count.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"
#include "msg/channel.hh"
#include "sim/profiler.hh"
#include "sim/random.hh"

namespace perfbench
{

using namespace shrimp;

namespace
{

const auto g_origin = std::chrono::steady_clock::now();

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    mixDouble(double d)
    {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        mix(v);
    }
};

/** A derived, independent stream seed for one part of a workload. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    sim::Random r(seed ^ (salt * 0x9E3779B97F4A7C15ull));
    return r.next();
}

/** Times the benchmark's calls into the simulator; keeps a span per
 *  call when tracing. */
class HostClock
{
  public:
    explicit HostClock(std::vector<HostSpan> *spans) : spans_(spans) {}

    template <typename F>
    double
    time(const char *name, F &&fn)
    {
        const std::uint64_t t0 = hostNowNs();
        fn();
        const std::uint64_t t1 = hostNowNs();
        if (spans_)
            spans_->push_back(HostSpan{name, t0, t1});
        return double(t1 - t0) * 1e-9;
    }

  private:
    std::vector<HostSpan> *spans_;
};

/**
 * Samples and outcome counts of one lane: a node (channel workloads)
 * or a process (paging). Each lane is written only by the events of
 * its own node, so the sharded engine's workers never share one; the
 * alignment keeps neighbouring lanes off each other's cache lines.
 */
struct alignas(64) Lane
{
    std::vector<Tick> opLatency;
    std::vector<Tick> sendWait;
    std::vector<SimSpan> spans;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t bytes = 0;
    Tick lastDone = 0;
};

/**
 * Read every component's statistics into res.simLayer, fold them into
 * res.digest, and collect the lanes' samples and outcome counts.
 */
void
readout(core::System &sys, std::vector<Lane> &lanes, Tick data_start,
        IterationResult &res)
{
    const Tick now = sys.simNow();
    Fnv fnv;
    fnv.mix(now);
    fnv.mix(sys.simEvents());

    // Aggregate bandwidth: the sum of each lane's own rate, so one
    // slow lane does not set the whole figure.
    double mb_s = 0;
    for (Lane &lane : lanes) {
        for (Tick t : lane.opLatency)
            fnv.mix(t);
        for (Tick t : lane.sendWait)
            fnv.mix(t);
        res.opLatency.insert(res.opLatency.end(), lane.opLatency.begin(),
                             lane.opLatency.end());
        res.sendWait.insert(res.sendWait.end(), lane.sendWait.begin(),
                            lane.sendWait.end());
        if (lane.lastDone > data_start) {
            mb_s += double(lane.bytes) * double(tickSec)
                    / double(lane.lastDone - data_start) / 1e6;
        }
    }
    res.simMbS = mb_s;
    res.simEvents = sys.simEvents();
    res.simSeconds = double(now) / tickSec;

    // Sums over nodes and device slots.
    std::uint64_t cancelled = 0;
    std::uint64_t ctx_sw = 0, faults = 0, pfaults = 0, upgrades = 0,
                  evictions = 0, i1 = 0, i2 = 0, i3 = 0, i4 = 0;
    double fault_us_sum = 0;
    std::uint64_t fault_samples = 0;
    std::uint64_t tc_hits = 0, tc_misses = 0, tlb_hits = 0,
                  tlb_misses = 0;
    std::uint64_t swap_r = 0, swap_w = 0;
    std::uint64_t xfers = 0, status_loads = 0, invals = 0, refusals = 0,
                  bad_loads = 0, engine_bytes = 0, engine_stalls = 0;
    double busy_frac_sum = 0;
    std::uint64_t bursts = 0, words = 0;
    std::uint64_t msgs = 0, delivered_bytes = 0, rtx = 0, fast_rtx = 0,
                  timeouts = 0, acks = 0, ooo = 0, dups = 0, corrupt = 0,
                  ecn = 0, cwnd_cuts = 0, spurious = 0;
    const unsigned nodes = sys.nodeCount();
    for (unsigned n = 0; n < nodes; ++n) {
        core::Node &node = sys.node(n);
        cancelled += sys.nodeEq(n).eventsCancelled();
        os::Kernel &k = node.kernel();
        ctx_sw += k.contextSwitches();
        faults += k.pageFaults();
        pfaults += k.proxyFaults();
        upgrades += k.proxyWriteUpgrades();
        evictions += k.evictions();
        i1 += k.i1Invals();
        i2 += k.i2Shootdowns();
        i3 += k.i3DirtyFaults();
        i4 += k.evictionI4Skips();
        fault_us_sum += k.faultLatency().summary().sum();
        fault_samples += k.faultLatency().summary().count();
        tc_hits += k.proxyTcache().hits();
        tc_misses += k.proxyTcache().misses();
        tlb_hits += node.mmu().tlb().hits();
        tlb_misses += node.mmu().tlb().misses();
        swap_r += k.backingStore().pageReads();
        swap_w += k.backingStore().pageWrites();
        for (dma::UdmaController *c : k.controllers()) {
            xfers += c->transfersStarted();
            status_loads += c->statusLoads();
            invals += c->invalsApplied();
            refusals += c->queueRefusals();
            bad_loads += c->badLoads();
            engine_bytes += c->engine().bytesMoved();
            engine_stalls += c->engine().stallEvents();
        }
        busy_frac_sum += now > 0 ? node.ioBus().busyTicks() / double(now)
                                 : 0.0;
        bursts += node.ioBus().burstCount();
        words += node.ioBus().wordCount();
        if (net::NetworkInterface *ni = node.ni()) {
            msgs += ni->messagesDelivered();
            delivered_bytes += ni->bytesDelivered();
            rtx += ni->retransmits();
            fast_rtx += ni->fastRetransmits();
            timeouts += ni->timeouts();
            acks += ni->acksSent();
            ooo += ni->rxOutOfOrderBuffered();
            dups += ni->rxDuplicatesDropped();
            corrupt += ni->rxCorruptDropped();
            ecn += ni->ecnMarked();
            cwnd_cuts += ni->cwndCuts();
            spurious += ni->rescueSpurious();
        }
    }
    const net::FaultCounters wire = sys.net().faults().totals();
    const std::uint64_t losses =
        wire.dropped + wire.corrupted + wire.downDropped;
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto us = [](Tick t) { return double(t) / tickUs; };

    auto &m = res.simLayer;
    m = {
        {"sim.events", double(sys.simEvents()), "count"},
        {"sim.events_cancelled", double(cancelled), "count"},
        {"sim.cross_posts",
         double(sys.engine() ? sys.engine()->crossPosts() : 0), "count"},
        {"os.context_switches", double(ctx_sw), "count"},
        {"os.page_faults", double(faults), "count"},
        {"os.proxy_faults", double(pfaults), "count"},
        {"os.proxy_write_upgrades", double(upgrades), "count"},
        {"os.evictions", double(evictions), "count"},
        {"os.i1_invals", double(i1), "count"},
        {"os.i2_shootdowns", double(i2), "count"},
        {"os.i3_dirty_faults", double(i3), "count"},
        {"os.i4_skips", double(i4), "count"},
        {"os.fault_us_mean", ratio(fault_us_sum, double(fault_samples)),
         "us"},
        {"os.tcache_lookups", double(tc_hits + tc_misses), "count"},
        {"os.tcache_hit_rate",
         ratio(double(tc_hits), double(tc_hits + tc_misses)), "ratio"},
        {"vm.tlb_lookups", double(tlb_hits + tlb_misses), "count"},
        {"vm.tlb_hit_rate",
         ratio(double(tlb_hits), double(tlb_hits + tlb_misses)), "ratio"},
        {"mem.swap_reads", double(swap_r), "count"},
        {"mem.swap_writes", double(swap_w), "count"},
        {"dma.transfers", double(xfers), "count"},
        {"dma.status_loads_per_transfer",
         ratio(double(status_loads), double(xfers)), "ratio"},
        {"dma.invals_applied", double(invals), "count"},
        {"dma.queue_refusals", double(refusals), "count"},
        {"dma.bad_loads", double(bad_loads), "count"},
        {"dma.engine_bytes", double(engine_bytes), "bytes"},
        {"dma.engine_stalls", double(engine_stalls), "count"},
        {"bus.busy_frac", ratio(busy_frac_sum, double(nodes)), "ratio"},
        {"bus.bursts", double(bursts), "count"},
        {"bus.words", double(words), "count"},
        {"msg.send_wait_us_p50", us(percentile(res.sendWait, 50)), "us"},
        {"msg.send_wait_us_p99", us(percentile(res.sendWait, 99)), "us"},
        {"shrimp.msgs_delivered", double(msgs), "count"},
        {"shrimp.routed_per_delivered_byte",
         ratio(double(sys.net().bytesRouted()), double(delivered_bytes)),
         "ratio"},
        {"shrimp.retransmits", double(rtx), "count"},
        {"shrimp.fast_retransmits", double(fast_rtx), "count"},
        {"shrimp.timeouts", double(timeouts), "count"},
        {"shrimp.wire_losses", double(losses), "count"},
        {"shrimp.rtx_per_loss", ratio(double(rtx), double(losses)),
         "ratio"},
        {"shrimp.acks_sent", double(acks), "count"},
        {"shrimp.rx_ooo_buffered", double(ooo), "count"},
        {"shrimp.rx_dup_dropped", double(dups), "count"},
        {"shrimp.rx_corrupt_dropped", double(corrupt), "count"},
        {"shrimp.ecn_marked", double(ecn), "count"},
        {"shrimp.cwnd_cuts", double(cwnd_cuts), "count"},
        {"shrimp.rescue_spurious", double(spurious), "count"},
    };
    for (const Metric &x : m)
        fnv.mixDouble(x.value);
    res.digest = fnv.h;

    // The window shape depends on the shard count, so it stays out of
    // the digest (which must match between shards=1 and shards=N).
    const std::uint64_t windows =
        sys.engine() ? sys.engine()->windows() : 0;
    m.push_back({"sim.windows", double(windows), "count"});
    m.push_back({"sim.events_per_window",
                 ratio(double(sys.simEvents()), double(windows)),
                 "count"});
}

/** Host-side per-layer figures that need no tracing. */
void
readHostLayers(core::System &sys, IterationResult &res)
{
    res.hostLayer = {
        {"core.build_s", res.buildS, "s"},
        {"core.setup_phase_s", res.setupPhaseS, "s"},
        {"sim.host_ns_per_event",
         res.dataEvents ? res.wallS * 1e9 / double(res.dataEvents) : 0.0,
         "ns/event"},
        {"sim.barrier_spin_wakes",
         double(sys.engine() ? sys.engine()->barrierSpinWakes() : 0),
         "count"},
        {"sim.barrier_futex_sleeps",
         double(sys.engine() ? sys.engine()->barrierFutexSleeps() : 0),
         "count"},
    };
}

/** The profiler's time budget as shares of the accounted wall time. */
void
readProfile(const sim::ShardProfiler &prof, IterationResult &res)
{
    const sim::ShardProfiler::Slot t = prof.totals();
    const double all = double(t.accountedNs());
    auto share = [all](std::uint64_t ns) {
        return all > 0 ? double(ns) / all : 0.0;
    };
    res.hostLayer.push_back({"sim.execute_frac", share(t.executeNs),
                             "ratio"});
    res.hostLayer.push_back({"sim.barrier_frac",
                             share(t.planNs + t.syncNs), "ratio"});
    res.hostLayer.push_back({"sim.drain_frac", share(t.drainNs),
                             "ratio"});
    res.hostLayer.push_back({"sim.idle_frac", share(t.idleNs), "ratio"});
}

/**
 * The phases every workload shares: build the System, spawn through
 * @p spawn_all, rendezvous under runSetup until @p ready, then the
 * timed data phase, verification and the statistics readout.
 */
template <typename Spawn, typename Ready, typename Verify>
void
runPhases(const core::SystemConfig &scfg, Tick limit,
          const IterationControl &ctl, std::vector<Lane> &lanes,
          IterationResult &res, Spawn &&spawn_all, Ready &&ready,
          Verify &&verify)
{
    HostClock clock(ctl.trace ? &res.hostSpans : nullptr);

    std::unique_ptr<core::System> sys;
    res.buildS = clock.time("core.System", [&] {
        sys = std::make_unique<core::System>(scfg);
    });

    std::unique_ptr<sim::ShardProfiler> prof;
    if (ctl.trace && sys->engine()) {
        prof = std::make_unique<sim::ShardProfiler>(
            sys->engine()->shardCount());
        sys->engine()->setProfiler(prof.get());
    }

    res.setupPhaseS = spawn_all(*sys, clock);
    res.setupPhaseS += clock.time("core.runSetup", [&] {
        sys->runSetup(ready, limit);
    });
    if (ctl.setupOnly)
        return;
    const Tick data_start = sys->simNow();
    const std::uint64_t events0 = sys->simEvents();

    if (prof)
        prof->beginRun();
    const std::uint64_t allocs0 = heapAllocations();
    res.wallS = clock.time("core.runUntilAllDone",
                           [&] { sys->runUntilAllDone(limit); });
    res.wallS += clock.time("core.run.drain", [&] { sys->run(limit); });
    res.heapAllocs = heapAllocations() - allocs0;
    if (prof)
        prof->endRun();
    res.dataEvents = sys->simEvents() - events0;

    clock.time("verify", [&] { verify(*sys); });
    clock.time("stats.readout", [&] {
        for (const Lane &lane : lanes)
            res.failed += lane.failed;
        readout(*sys, lanes, data_start, res);
        readHostLayers(*sys, res);
        if (prof)
            readProfile(*prof, res);
    });
}

// ------------------------------------------------------------------
// ring64 and mesh16-lossy: user-level channels around a ring
// ------------------------------------------------------------------

struct ChannelSpec
{
    unsigned nodes;
    const char *topology;
    unsigned shards;
    unsigned records;          ///< per link
    std::uint32_t maxBytes;    ///< record lengths are maxBytes - 8*[0,15]
    double drop;
    double corrupt;
    std::uint64_t memBytes;
    double quantumUs;
    Tick limit;
};

ChannelSpec
channelSpec(const std::string &workload, bool tiny)
{
    const std::uint64_t mem = std::uint64_t(8) << 20;
    const Tick limit = Tick(300) * tickSec;
    if (workload == "ring64") {
        return tiny ? ChannelSpec{8, "crossbar", 4, 8, 4080, 0, 0, mem,
                                  200, limit}
                    : ChannelSpec{64, "crossbar", 4, 128, 4080, 0, 0, mem,
                                  200, limit};
    }
    return tiny ? ChannelSpec{4, "mesh:2x2", 1, 16, 2048, 0.02, 0.01, mem,
                              200, limit}
                : ChannelSpec{16, "mesh:4x4", 1, 512, 2048, 0.02, 0.01,
                              mem, 200, limit};
}

std::uint64_t
recordId(NodeId src, std::uint64_t seq)
{
    return (std::uint64_t(src) << 32) | seq;
}

IterationResult
runChannels(const IterationControl &ctl)
{
    const ChannelSpec spec = channelSpec(ctl.workload, ctl.tiny);
    IterationResult res;

    // Generated inputs: every link n -> n+1 carries `records` records
    // whose lengths and tags come from the seed.
    struct Record
    {
        std::uint32_t len;
        std::uint64_t tag;
    };
    const unsigned links = spec.nodes;
    std::vector<std::vector<Record>> inputs(links);
    for (unsigned li = 0; li < links; ++li) {
        sim::Random r(subSeed(ctl.seed, li + 1));
        for (unsigned k = 0; k < spec.records; ++k) {
            const auto len = std::uint32_t(spec.maxBytes - 8 * r.below(16));
            inputs[li].push_back(Record{len, r.next()});
        }
    }

    std::vector<Lane> lanes(spec.nodes);
    for (Lane &lane : lanes) {
        lane.opLatency.reserve(spec.records);
        lane.sendWait.reserve(spec.records);
        if (ctl.trace)
            lane.spans.reserve(2 * spec.records);
    }
    std::vector<msg::ChannelRendezvous> rv(links);
    unsigned ready = 0;
    const bool trace = ctl.trace;

    core::SystemConfig scfg;
    scfg.nodes = spec.nodes;
    scfg.shards = ctl.shardsOverride ? ctl.shardsOverride : spec.shards;
    scfg.node.memBytes = spec.memBytes;
    scfg.params.quantumUs = spec.quantumUs;
    scfg.node.devices.push_back(core::DeviceConfig{});
    scfg.faults.specified = true;
    scfg.faults.dropProb = spec.drop;
    scfg.faults.corruptProb = spec.corrupt;
    scfg.faults.seed = subSeed(ctl.seed, 0xFA17);
    if (!sim::parseTopologySpec(spec.topology, scfg.topology, &std::cerr))
        fatal("bad topology ", spec.topology);

    auto spawn_all = [&](core::System &sys, HostClock &clock) {
        double s = 0;
        for (unsigned li = 0; li < links; ++li) {
            const NodeId src = li;
            const NodeId dst = (li + 1) % spec.nodes;
            core::Node *src_node = &sys.node(src);
            core::Node *dst_node = &sys.node(dst);

            s += clock.time("kernel.spawn", [&] {
                dst_node->kernel().spawn(
                    "recv" + std::to_string(li),
                    [&, li, src, dst,
                     dst_node](os::UserContext &ctx) -> sim::ProcTask {
                        Lane &lane = lanes[dst];
                        const std::vector<Record> &in = inputs[li];
                        msg::ReceiverChannel ch(ctx, 0, *dst_node->ni(),
                                                src);
                        if (!co_await ch.bind(rv[li]))
                            fatal("bind failed on link ", li);
                        ++ready;
                        for (std::uint32_t seq = 0; seq < in.size();
                             ++seq) {
                            const Record &want = in[seq];
                            const Tick r0 = ctx.kernel().eq().now();
                            std::uint32_t len = 0;
                            const Addr p = co_await ch.recvZeroCopy(len);
                            const Tick arrive = ctx.kernel().eq().now();
                            const std::uint64_t id = co_await ctx.load(p);
                            const std::uint64_t tag =
                                co_await ctx.load(p + 8);
                            const Tick sent = co_await ctx.load(p + 16);
                            bool ok = len == want.len
                                      && id == recordId(src, seq)
                                      && tag == want.tag && sent <= arrive;
                            if (ok) {
                                const std::uint64_t tail =
                                    co_await ctx.load(p + len - 8);
                                ok = tail == ~want.tag;
                            }
                            co_await ch.ackLast();
                            if (ok) {
                                lane.opLatency.push_back(arrive - sent);
                                lane.bytes += len;
                                ++lane.completed;
                            } else {
                                ++lane.failed;
                            }
                            lane.lastDone = arrive;
                            if (trace) {
                                lane.spans.push_back(SimSpan{
                                    "msg.recv", recordId(src, seq), r0,
                                    arrive});
                            }
                        }
                    });
            });

            s += clock.time("kernel.spawn", [&] {
                src_node->kernel().spawn(
                    "send" + std::to_string(li),
                    [&, li, src, dst,
                     src_node](os::UserContext &ctx) -> sim::ProcTask {
                        Lane &lane = lanes[src];
                        const std::vector<Record> &in = inputs[li];
                        msg::SenderChannel ch(ctx, 0, *src_node->ni(),
                                              dst);
                        if (!co_await ch.connect(rv[li]))
                            fatal("connect failed on link ", li);
                        const std::uint64_t slots = rv[li].slots;
                        const Addr buf =
                            co_await ctx.sysAllocMemory(spec.maxBytes);
                        co_await ctx.store(buf, 0);
                        ++ready;
                        for (std::uint32_t seq = 0; seq < in.size();
                             ++seq) {
                            const Record &rec = in[seq];
                            const std::uint64_t id = recordId(src, seq);
                            co_await ctx.store(buf, id);
                            co_await ctx.store(buf + 8, rec.tag);
                            co_await ctx.store(buf + rec.len - 8,
                                               ~rec.tag);
                            // Wait for a free slot before stamping,
                            // so the record's latency is the
                            // transport's and the flow-control wait
                            // shows in msg.send_wait instead.
                            const Tick w0 = ctx.kernel().eq().now();
                            while (co_await ch.unacked() >= slots) {
                            }
                            const Tick t0 = ctx.kernel().eq().now();
                            co_await ctx.store(buf + 16, t0);
                            const bool sent =
                                co_await ch.send(buf, rec.len);
                            const Tick w1 = ctx.kernel().eq().now();
                            if (!sent)
                                fatal("send refused on link ", li);
                            lane.sendWait.push_back(w1 - w0);
                            if (trace) {
                                lane.spans.push_back(
                                    SimSpan{"msg.send", id, t0, w1});
                            }
                        }
                    });
            });
        }
        return s;
    };

    auto verify = [&](core::System &) {
        res.attempted = std::uint64_t(links) * spec.records;
        std::uint64_t done = 0;
        for (const Lane &lane : lanes)
            done += lane.completed + lane.failed;
        // Records never received by the sim-time limit.
        res.failed += res.attempted - std::min(done, res.attempted);
    };

    runPhases(scfg, spec.limit, ctl, lanes, res, spawn_all,
              [&] { return ready == 2 * links; }, verify);

    for (unsigned n = 0; n < spec.nodes; ++n)
        res.laneNames.push_back("node" + std::to_string(n));
    if (trace) {
        for (Lane &lane : lanes)
            res.simSpans.push_back(std::move(lane.spans));
    }
    return res;
}

// ------------------------------------------------------------------
// multiprog-paging: eight processes share one UDMA frame buffer
// ------------------------------------------------------------------

struct PagingSpec
{
    unsigned procs;
    std::uint64_t memBytes;
    unsigned wsPages;   ///< per process; procs * wsPages ~ 1.5x frames
    unsigned devPages;  ///< each process's private frame-buffer window
    unsigned transfers; ///< per process
    double quantumUs;
    Tick limit;
};

PagingSpec
pagingSpec(bool tiny)
{
    return PagingSpec{8, std::uint64_t(1) << 20, 48, 32,
                      tiny ? 40u : 50000u, 200, Tick(10800) * tickSec};
}

IterationResult
runPaging(const IterationControl &ctl)
{
    const PagingSpec spec = pagingSpec(ctl.tiny);
    constexpr std::uint32_t pb = 4096;
    const std::uint32_t ws_bytes = spec.wsPages * pb;
    const std::uint32_t dev_bytes = spec.devPages * pb;
    IterationResult res;

    // Generated inputs: per process, a seeded list of random-page,
    // mixed-size transfers in both directions.
    struct Xfer
    {
        bool toDevice;
        std::uint32_t memOff;
        std::uint32_t devOff;
        std::uint32_t len;
        std::uint64_t tag;
    };
    std::vector<std::vector<Xfer>> inputs(spec.procs);
    for (unsigned p = 0; p < spec.procs; ++p) {
        sim::Random r(subSeed(ctl.seed, 0x1000 + p));
        for (unsigned i = 0; i < spec.transfers; ++i) {
            Xfer x;
            x.toDevice = r.chance(0.5);
            // Log-uniform sizes from 8 B to 8 KiB (8-byte granules).
            const auto hi = std::uint32_t(1) << r.between(3, 13);
            x.len = 8 * std::uint32_t(r.between(
                            std::max<std::uint32_t>(1, hi / 16), hi / 8));
            x.memOff = std::uint32_t(r.below(spec.wsPages) * pb
                                     + 8 * r.below(pb / 8));
            x.memOff = std::min(x.memOff, ws_bytes - x.len);
            x.devOff = 8 * std::uint32_t(r.below(dev_bytes / 8));
            x.devOff = std::min(x.devOff, dev_bytes - x.len);
            x.tag = r.next();
            inputs[p].push_back(x);
        }
    }

    // Each process's memory as it exits (it is released at exit).
    std::vector<std::vector<std::uint8_t>> final_mem(
        spec.procs, std::vector<std::uint8_t>(ws_bytes));
    std::vector<bool> finished(spec.procs, false);

    std::vector<Lane> lanes(spec.procs);
    for (Lane &lane : lanes) {
        lane.opLatency.reserve(spec.transfers);
        if (ctl.trace)
            lane.spans.reserve(spec.transfers);
    }
    unsigned ready = 0;
    const bool trace = ctl.trace;

    core::SystemConfig scfg;
    scfg.nodes = 1;
    scfg.shards = 1;
    scfg.node.memBytes = spec.memBytes;
    scfg.params.quantumUs = spec.quantumUs;
    core::DeviceConfig fb;
    fb.kind = core::DeviceKind::FrameBuffer;
    fb.fbWidth = 512;
    fb.fbHeight = std::uint32_t(std::uint64_t(spec.procs) * dev_bytes
                                / (4 * fb.fbWidth));
    scfg.node.devices.push_back(fb);
    scfg.faults.specified = true;
    scfg.topology.specified = true;

    auto spawn_all = [&](core::System &sys, HostClock &clock) {
        double s = 0;
        for (unsigned p = 0; p < spec.procs; ++p) {
            s += clock.time("kernel.spawn", [&] {
                sys.node(0).kernel().spawn(
                    "proc" + std::to_string(p),
                    [&, p](os::UserContext &ctx) -> sim::ProcTask {
                        Lane &lane = lanes[p];
                        const Addr buf =
                            co_await ctx.sysAllocMemory(ws_bytes);
                        const Addr win = co_await ctx.sysMapDeviceProxy(
                            0, std::uint64_t(p) * spec.devPages,
                            spec.devPages, true);
                        if (win == 0)
                            fatal("proxy mapping refused for proc ", p);
                        ++ready;
                        for (std::uint32_t i = 0; i < inputs[p].size();
                             ++i) {
                            const Xfer &x = inputs[p][i];
                            // Stamp the source so every transfer
                            // to the device carries fresh content.
                            if (x.toDevice)
                                co_await ctx.store(buf + x.memOff, x.tag);
                            const Tick t0 = ctx.kernel().eq().now();
                            if (x.toDevice) {
                                co_await core::udmaTransfer(
                                    ctx, 0, win + x.devOff,
                                    buf + x.memOff, x.len);
                            } else {
                                co_await core::udmaTransferFromDevice(
                                    ctx, 0, buf + x.memOff,
                                    win + x.devOff, x.len);
                            }
                            const Tick t1 = ctx.kernel().eq().now();
                            lane.opLatency.push_back(t1 - t0);
                            lane.bytes += x.len;
                            ++lane.completed;
                            lane.lastDone = t1;
                            if (trace) {
                                lane.spans.push_back(SimSpan{
                                    x.toDevice ? "udmaTransfer"
                                               : "udmaTransferFromDevice",
                                    (std::uint64_t(p) << 32) | i, t0, t1});
                            }
                        }
                        ctx.kernel().peekBytes(ctx.process(), buf,
                                               final_mem[p].data(),
                                               ws_bytes);
                        finished[p] = true;
                    });
            });
        }
        return s;
    };

    // Replays each finished process's transfers on host shadows of its
    // memory and device window, then compares both page by page.
    auto verify = [&](core::System &sys) {
        res.attempted = std::uint64_t(spec.procs) * spec.transfers;
        const dev::FrameBuffer &fbdev = *sys.node(0).frameBuffer();
        std::uint64_t done = 0;
        for (unsigned p = 0; p < spec.procs; ++p) {
            done += lanes[p].completed;
            if (!finished[p])
                continue;
            std::vector<std::uint8_t> mem(ws_bytes, 0), dev(dev_bytes, 0);
            for (const Xfer &x : inputs[p]) {
                if (x.toDevice) {
                    std::memcpy(&mem[x.memOff], &x.tag, 8);
                    std::memcpy(&dev[x.devOff], &mem[x.memOff], x.len);
                } else {
                    std::memcpy(&mem[x.memOff], &dev[x.devOff], x.len);
                }
            }
            for (std::uint32_t off = 0; off < ws_bytes; off += pb) {
                if (std::memcmp(&final_mem[p][off], &mem[off], pb))
                    ++lanes[p].failed;
            }
            for (std::uint32_t off = 0; off < dev_bytes; off += pb) {
                bool same = true;
                for (std::uint32_t b = off; b < off + pb && same; b += 4) {
                    const std::uint64_t px =
                        (std::uint64_t(p) * dev_bytes + b) / 4;
                    const std::uint32_t v = fbdev.pixel(
                        std::uint32_t(px % fbdev.width()),
                        std::uint32_t(px / fbdev.width()));
                    same = std::memcmp(&v, &dev[b], 4) == 0;
                }
                if (!same)
                    ++lanes[p].failed;
            }
        }
        // Transfers never finished by the sim-time limit.
        res.failed += res.attempted - std::min(done, res.attempted);
    };

    runPhases(scfg, spec.limit, ctl, lanes, res, spawn_all,
              [&] { return ready == spec.procs; }, verify);

    for (unsigned p = 0; p < spec.procs; ++p)
        res.laneNames.push_back("proc" + std::to_string(p));
    if (trace) {
        for (Lane &lane : lanes)
            res.simSpans.push_back(std::move(lane.spans));
    }
    return res;
}

} // namespace

Tick
percentile(std::vector<Tick> samples, double pct)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const auto rank = std::size_t(
        std::ceil(pct / 100.0 * double(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::uint64_t
hostNowNs()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - g_origin)
                             .count());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ring64", "mesh16-lossy", "multiprog-paging"};
    return names;
}

unsigned
workloadShards(const std::string &workload)
{
    if (workload == "multiprog-paging")
        return 1;
    return channelSpec(workload, false).shards;
}

IterationResult
runIteration(const IterationControl &ctl)
{
    if (ctl.workload == "multiprog-paging")
        return runPaging(ctl);
    return runChannels(ctl);
}

} // namespace perfbench
