#include "workload/ring.hh"

#include <chrono>
#include <string>
#include <vector>

#include "core/system.hh"
#include "msg/channel.hh"
#include "sim/profiler.hh"

namespace shrimp::workload
{

namespace
{

/** FNV-1a, folding counters into the run digest. */
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
};

} // namespace

RingResult
runRing(const RingConfig &cfg)
{
    using namespace shrimp::core;

    SHRIMP_ASSERT(cfg.nodes >= 2, "ring needs >= 2 nodes");

    SystemConfig scfg;
    scfg.nodes = cfg.nodes;
    scfg.shards = cfg.shards;
    scfg.node.memBytes = cfg.memBytes;
    scfg.params.quantumUs = cfg.quantumUs;
    scfg.node.devices.push_back(DeviceConfig{});
    // Always install the caller's fault config (specified = true), so
    // a default-constructed RingConfig is genuinely fault-free even
    // when the process saw --faults= or SHRIMP_FAULTS.
    scfg.faults = cfg.faults;
    scfg.faults.specified = true;
    // Same deliberateness for the wiring: the caller's topology always
    // wins over SHRIMP_TOPO / --topo= seen by the surrounding main.
    scfg.topology = cfg.topology;
    scfg.topology.specified = true;
    System sys(scfg);

    if (cfg.profiler)
        sys.engine()->setProfiler(cfg.profiler);

    const unsigned nodes = cfg.nodes;

    // The traffic topology as a link list: ring streams n -> n+1,
    // hotspot streams every n >= 1 into node 0 (N-1 credit windows
    // converging on one receive FIFO — the congestion stress case).
    struct Link
    {
        unsigned src;
        unsigned dst;
    };
    std::vector<Link> links;
    if (cfg.hotspot) {
        for (unsigned n = 1; n < nodes; ++n)
            links.push_back(Link{n, 0});
    } else {
        for (unsigned n = 0; n < nodes; ++n)
            links.push_back(Link{n, (n + 1) % nodes});
    }
    const unsigned nlinks = unsigned(links.size());

    std::vector<msg::ChannelRendezvous> rv(nlinks);
    for (auto &r : rv) {
        SHRIMP_ASSERT(cfg.recordBytes <= r.payloadCapacity(),
                      "record larger than a channel slot");
    }

    // Host-shared, but written only under runSetup (sequential) or by
    // exactly one node's shard (its own slot), so the data phase is
    // race-free.
    std::vector<Tick> linkStarted(nlinks, 0);
    std::vector<Tick> linkDone(nlinks, 0);
    unsigned ready = 0;

    for (unsigned li = 0; li < nlinks; ++li) {
        auto *src_node = &sys.node(links[li].src);
        auto *dst_node = &sys.node(links[li].dst);
        NodeId src_id = links[li].src;
        NodeId dst_id = links[li].dst;

        // Receiver half of this link, on its destination node.
        dst_node->kernel().spawn(
            "recv" + std::to_string(li),
            [&, dst_node, src_id, li](os::UserContext &ctx)
                -> sim::ProcTask {
                msg::ReceiverChannel ch(ctx, 0, *dst_node->ni(),
                                        src_id);
                if (!co_await ch.bind(rv[li]))
                    fatal("bind failed on link ", li);
                ++ready;
                for (unsigned r = 0; r < cfg.records; ++r) {
                    std::uint32_t len = 0;
                    (void)co_await ch.recvZeroCopy(len);
                    co_await ch.ackLast();
                }
                linkDone[li] = ctx.kernel().eq().now();
            });

        // Sender half of this link, on its source node.
        src_node->kernel().spawn(
            "send" + std::to_string(li),
            [&, src_node, dst_id, li](os::UserContext &ctx)
                -> sim::ProcTask {
                msg::SenderChannel ch(ctx, 0, *src_node->ni(), dst_id);
                if (!co_await ch.connect(rv[li]))
                    fatal("connect failed on link ", li);
                Addr buf = co_await ctx.sysAllocMemory(cfg.recordBytes);
                for (Addr off = 0; off < cfg.recordBytes; off += 4096)
                    co_await ctx.store(buf + off, li);
                ++ready;
                linkStarted[li] = ctx.kernel().eq().now();
                for (unsigned r = 0; r < cfg.records; ++r)
                    co_await ch.send(buf, cfg.recordBytes);
            });
    }

    // Phase 1: channel setup, sequential canonical order (the only
    // phase whose events read host state across nodes).
    sys.runSetup([&] { return ready == 2 * nlinks; }, cfg.limit);

    // Phase 2: the timed, parallel data phase.
    if (cfg.profiler)
        cfg.profiler->beginRun();
    // shrimp-lint: allow(D1) host wall time for the speedup report only; never feeds sim state
    auto wall0 = std::chrono::steady_clock::now();
    sys.runUntilAllDone(cfg.limit);
    sys.run(cfg.limit); // drain trailing credit/delivery events
    // shrimp-lint: allow(D1) host wall time for the speedup report only; never feeds sim state
    auto wall1 = std::chrono::steady_clock::now();
    if (cfg.profiler)
        cfg.profiler->endRun();

    RingResult res;
    res.hostSec =
        std::chrono::duration<double>(wall1 - wall0).count();
    res.simTicks = sys.simNow();
    res.simEvents = sys.simEvents();
    res.bytesRouted = sys.net().bytesRouted();
    res.crossPosts = sys.engine()->crossPosts();
    res.windows = sys.engine()->windows();
    res.subWindows = sys.engine()->subWindows();

    res.faults = sys.net().faults().totals();
    res.linksTotal = nlinks;

    // Per-node start/done ticks derived from the links: a node's
    // start is its sender link's first record (each node sends on at
    // most one link in both topologies); a node is done only when
    // every link it receives on has seen all its records.
    std::vector<Tick> started(nodes, 0);
    std::vector<Tick> done(nodes, 0);
    std::vector<bool> allDone(nodes, true);
    std::vector<bool> receives(nodes, false);
    for (unsigned li = 0; li < nlinks; ++li) {
        started[links[li].src] = linkStarted[li];
        receives[links[li].dst] = true;
        if (linkDone[li] == 0)
            allDone[links[li].dst] = false;
        else if (linkDone[li] > done[links[li].dst])
            done[links[li].dst] = linkDone[li];
        if (linkDone[li] != 0)
            ++res.linksDone;
    }
    for (unsigned n = 0; n < nodes; ++n) {
        if (!allDone[n])
            done[n] = 0;
        // Send-only nodes (hotspot) never count: completion there is
        // linksDone == linksTotal, not a per-receiver-node property.
        if (receives[n] && done[n] != 0)
            ++res.nodesDone;
    }

    Fnv fnv;
    fnv.mix(res.simTicks);
    fnv.mix(res.simEvents);
    fnv.mix(res.bytesRouted);
    Fnv data;
    for (unsigned n = 0; n < nodes; ++n) {
        auto &node = sys.node(n);
        auto *ni = node.ni();
        res.messagesDelivered += ni->messagesDelivered();
        res.bytesDelivered += ni->bytesDelivered();
        res.contextSwitches += node.kernel().contextSwitches();
        res.retransmits += ni->retransmits();
        res.fastRetransmits += ni->fastRetransmits();
        res.timeouts += ni->timeouts();
        res.acksSent += ni->acksSent();
        res.rxDupDropped += ni->rxDuplicatesDropped();
        res.rxCorruptDropped += ni->rxCorruptDropped();
        res.rxOooBuffered += ni->rxOutOfOrderBuffered();
        res.ecnMarked += ni->ecnMarked();
        res.cwndCuts += ni->cwndCuts();
        res.rescueSpurious += ni->rescueSpurious();
        for (unsigned dst = 0; dst < nodes; ++dst) {
            const net::TxFlow *f = ni->txFlow(dst);
            if (!f || f->unackedChunks() == 0)
                continue;
            res.chunksUnacked += f->unackedChunks();
            res.lostFlows.push_back(
                "node" + std::to_string(n) + " -> node"
                + std::to_string(dst) + ": "
                + std::to_string(f->unackedChunks())
                + " chunks unacked (next seq "
                + std::to_string(f->nextSeq()) + ", cum acked "
                + std::to_string(f->cumAcked()) + ", "
                + std::to_string(f->sackedChunks())
                + " sacked, cwnd " + std::to_string(f->cwnd().cwnd)
                + (f->inRecovery() ? ", in RTO recovery)" : ")"));
        }
        data.mix(ni->rxDataDigest());

        fnv.mix(started[n]);
        fnv.mix(done[n]);
        fnv.mix(ni->messagesSent());
        fnv.mix(ni->messagesDelivered());
        fnv.mix(ni->bytesDelivered());
        fnv.mix(ni->lastDeliveryTick());
        fnv.mix(node.kernel().contextSwitches());
        fnv.mix(ni->retransmits());
        fnv.mix(ni->fastRetransmits());
        fnv.mix(ni->timeouts());
        fnv.mix(ni->acksSent());
        fnv.mix(ni->rxDuplicatesDropped());
        fnv.mix(ni->rxCorruptDropped());
        fnv.mix(ni->rxOutOfOrderBuffered());
        fnv.mix(ni->ecnMarked());
        fnv.mix(ni->cwndCuts());
        fnv.mix(ni->rescueSpurious());
        fnv.mix(ni->rxDataDigest());
    }
    res.dataDigest = data.h;
    fnv.mix(res.faults.decisions);
    fnv.mix(res.faults.dropped);
    fnv.mix(res.faults.corrupted);
    fnv.mix(res.faults.duplicated);
    fnv.mix(res.faults.delayed);
    fnv.mix(res.faults.downDropped);
    res.digest = fnv.h;

    for (unsigned li = 0; li < nlinks; ++li) {
        Tick dt = linkDone[li] > linkStarted[li]
                      ? linkDone[li] - linkStarted[li]
                      : 0;
        if (dt == 0)
            continue;
        double us = ticksToUs(dt);
        res.aggregateMbS += cfg.records * double(cfg.recordBytes)
                            / us * 1e6 / (1 << 20);
    }
    if (cfg.onSystemDone)
        cfg.onSystemDone(sys);
    return res;
}

} // namespace shrimp::workload
