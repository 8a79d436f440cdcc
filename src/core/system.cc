#include "core/system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>

#include "check/monitor.hh"
#include "sim/flight_recorder.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace shrimp::core
{

namespace
{

/**
 * Audit spec from `--audit=` awaiting the next System construction
 * (parseRunOptions runs before the System exists in every main).
 */
std::string g_pendingAuditSpec;

/**
 * Fault spec from `--faults=` awaiting the next System construction
 * (same pattern as the audit spec above).
 */
std::string g_pendingFaultSpec;

/**
 * Topology spec from `--topo=` awaiting the next System construction
 * in this process (same lifecycle as the audit/fault specs above).
 */
std::string g_pendingTopoSpec;

/**
 * Honour SHRIMP_TRACE=dma,vm,os,ni,bus,xfer (or "all"): enable those
 * trace categories on stderr. Lets every example and bench be traced
 * without recompilation.
 */
void
applyTraceEnv()
{
    const char *env = std::getenv("SHRIMP_TRACE");
    if (!env || !*env)
        return;
    if (!trace::applySpec(env, &std::cerr))
        std::cerr << "SHRIMP_TRACE: unknown category in '" << env
                  << "' (want dma,vm,os,ni,bus,xfer,net.fault or "
                     "all)\n";
}

} // namespace

Node::Node(System &sys, NodeId id, const SystemConfig &cfg,
           sim::EventQueue &eq)
    : id_(id)
{
    const auto &params = sys.params();
    const auto &layout = sys.layout();

    memory_ = std::make_unique<mem::PhysicalMemory>(
        cfg.node.memBytes, params.pageBytes);
    ioBus_ = std::make_unique<bus::IoBus>(eq, params);
    mmu_ = std::make_unique<vm::Mmu>(layout);
    kernel_ = std::make_unique<os::Kernel>(eq, params, layout,
                                           *memory_, *ioBus_, *mmu_);

    for (unsigned slot = 0; slot < cfg.node.devices.size(); ++slot) {
        const DeviceConfig &dc = cfg.node.devices[slot];
        slotKinds_.push_back(dc.kind);
        controllers_.emplace_back(nullptr);
        drivers_.emplace_back(nullptr);

        if (dc.kind == DeviceKind::FifoNic) {
            devices_.emplace_back(nullptr);
            fifoNic_ = std::make_unique<baseline::FifoNic>(
                eq, *sys.engine(), params, id, *ioBus_, sys.fifoFabric(),
                slot, params.pageBytes);
            kernel_->registerDeviceWindow(
                slot, fifoNic_->proxyExtentBytes());
            continue;
        }

        std::unique_ptr<dma::UdmaDevice> udev;
        switch (dc.kind) {
          case DeviceKind::ShrimpNi: {
            auto ni = std::make_unique<net::NetworkInterface>(
                eq, *sys.engine(), params, id, *memory_, *ioBus_,
                sys.net(), params.pageBytes);
            ni_ = ni.get();
            udev = std::move(ni);
            break;
          }
          case DeviceKind::FrameBuffer: {
            auto fb = std::make_unique<dev::FrameBuffer>(dc.fbWidth,
                                                         dc.fbHeight);
            fb_ = fb.get();
            udev = std::move(fb);
            break;
          }
          case DeviceKind::Disk: {
            auto disk =
                std::make_unique<dev::Disk>(params, dc.diskBytes);
            disk_ = disk.get();
            udev = std::move(disk);
            break;
          }
          case DeviceKind::StreamSink: {
            auto sink = std::make_unique<dev::StreamSink>(dc.sinkBytes);
            sink_ = sink.get();
            udev = std::move(sink);
            break;
          }
          case DeviceKind::FifoNic:
            break; // handled above
        }

        if (dc.driver == DriverKind::Udma) {
            controllers_[slot] = std::make_unique<dma::UdmaController>(
                eq, params, layout, *memory_, *ioBus_, *udev, slot,
                dc.queueDepth);
            kernel_->attachController(controllers_[slot].get());
            if (cfg.nodes > 1) {
                // Per-node span timelines (and Perfetto tracks).
                controllers_[slot]->setSpanOwner(
                    "node" + std::to_string(id) + ".udma"
                    + std::to_string(slot));
            }
        } else {
            drivers_[slot] =
                std::make_unique<baseline::TraditionalDmaDriver>(
                    eq, params, *memory_, *ioBus_, *udev);
        }
        devices_.push_back(std::move(udev));
    }

    // The SHRIMP board snoops the memory bus for automatic update.
    if (ni_) {
        auto *ni = ni_;
        kernel_->addStoreSnooper([ni](Addr paddr, std::uint64_t value) {
            return ni->snoopStore(paddr, value);
        });
    }
}

Node::~Node() = default;

dma::UdmaController *
Node::controller(unsigned device)
{
    return device < controllers_.size() ? controllers_[device].get()
                                        : nullptr;
}

baseline::TraditionalDmaDriver *
Node::tradDriver(unsigned device)
{
    return device < drivers_.size() ? drivers_[device].get() : nullptr;
}

int
Node::deviceIndexOf(DeviceKind kind) const
{
    for (unsigned i = 0; i < slotKinds_.size(); ++i) {
        if (slotKinds_[i] == kind)
            return int(i);
    }
    return -1;
}

/**
 * The wiring this System runs with. Mirrors the fault precedence: a
 * deliberately filled SystemConfig::topology wins; otherwise
 * SHRIMP_TOPO wins over a --topo= seen by parseRunOptions. A non-flat
 * grid that does not match the node count is a configuration error,
 * not something to silently pad: routing math indexes the grid.
 */
static sim::TopologyConfig
resolvedTopology(const SystemConfig &cfg)
{
    sim::TopologyConfig topo = cfg.topology;
    if (!topo.specified) {
        const char *tenv = std::getenv("SHRIMP_TOPO");
        std::string tspec = tenv && *tenv ? tenv : g_pendingTopoSpec;
        if (!tspec.empty())
            sim::parseTopologySpec(tspec, topo, &std::cerr);
    }
    if (!topo.flat() && topo.gridNodes() != cfg.nodes) {
        fatal("topology ", topo.describe(), " wires ",
              topo.gridNodes(), " nodes but the system has ",
              cfg.nodes);
    }
    return topo;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      layout_(cfg.node.memBytes, cfg.params.pageBytes,
              std::max<unsigned>(1, unsigned(cfg.node.devices.size()))),
      topo_(resolvedTopology(cfg_)), net_(cfg_.params, topo_),
      fifoFabric_(cfg_.params, cfg_.nodes, topo_)
{
    if (cfg.nodes == 0)
        fatal("a system needs at least one node");
    applyTraceEnv();

    // The synchronization horizon comes from the interconnect: nothing
    // crosses nodes faster than the smallest packet's injection
    // serialization plus the backplane hop — per hop of the
    // dimension-order route, so on a mesh/torus the per-pair floor
    // scales with distance (DESIGN.md §10, §14). The engine folds the
    // per-pair floors into its shard-pair lookahead matrix (and clamps
    // the shard count to [1, nodes]); multi-hop forwarding re-posts at
    // every intermediate node, so each individual post only needs the
    // adjacent-pair floor, which the fold always covers. A FIFO NIC
    // posts a single word straight to its peer, which can be faster
    // than the NI's header: its floor wins when one is configured.
    const bool fifo = std::any_of(
        cfg_.node.devices.begin(), cfg_.node.devices.end(),
        [](const DeviceConfig &dc) {
            return dc.kind == DeviceKind::FifoNic;
        });
    engine_ = std::make_unique<sim::ShardedEngine>(
        cfg_.nodes, cfg_.shards,
        sim::ShardedEngine::PairLookahead(
            [this, fifo](NodeId src, NodeId dst) {
                const Tick l = net_.minDeliveryLatency(src, dst);
                if (!fifo)
                    return l;
                return std::min(l,
                                fifoFabric_.minDeliveryLatency(src, dst));
            }));

    for (unsigned i = 0; i < cfg.nodes; ++i)
        nodes_.push_back(
            std::make_unique<Node>(*this, i, cfg_, nodeEq(i)));

    // Fault injection: a deliberately filled SystemConfig::faults
    // wins; otherwise SHRIMP_FAULTS wins over a --faults= seen by
    // parseRunOptions (mirroring the audit precedence below).
    net::FaultConfig fcfg = cfg_.faults;
    if (!fcfg.specified) {
        const char *fenv = std::getenv("SHRIMP_FAULTS");
        std::string fspec = fenv && *fenv ? fenv : g_pendingFaultSpec;
        if (!fspec.empty())
            net::parseFaultSpec(fspec, fcfg, &std::cerr);
    }
    if (fcfg.specified)
        net_.setFaults(fcfg);

    // SHRIMP_AUDIT wins over a --audit= seen by parseRunOptions.
    const char *env = std::getenv("SHRIMP_AUDIT");
    std::string spec = env && *env ? env : g_pendingAuditSpec;
    if (!spec.empty() && !enableAudit(spec)) {
        std::cerr << "audit: unknown mode '" << spec
                  << "' (want every-event, on-switch, at-barrier or "
                     "off)\n";
    }
}

System::~System() = default;

bool
System::enableAudit(const std::string &spec, bool fail_fast)
{
    audit::Mode mode;
    if (!audit::parseMode(spec, mode))
        return false;
    engine_->setBarrierHook({});
    auditor_.reset();
    if (mode == audit::Mode::Off)
        return true;
    // On several shards, per-event hooks would fire concurrently on
    // worker threads and read other shards' state mid-window; audit
    // where the world is quiescent instead. One shard runs every
    // event on one thread, so every mode works there as requested.
    if (engine_->shardCount() > 1)
        mode = audit::Mode::AtBarrier;
    auditor_ = std::make_unique<audit::Monitor>(*this, mode, fail_fast);
    if (mode == audit::Mode::AtBarrier) {
        engine_->setBarrierHook(
            [this] { auditor_->auditNow("window-barrier"); });
    }
    return true;
}

void
System::dumpStats(std::ostream &os)
{
    os << "sim.ticks " << simNow() << "\n";
    os << "sim.events " << simEvents() << "\n";
    os << "net.topology " << topo_.describe() << "\n";
    os << "net.bytesRouted " << net_.bytesRouted() << "\n";
    {
        net::FaultCounters f = net_.faults().totals();
        os << "net.fault.decisions " << f.decisions << "\n";
        os << "net.fault.dropped " << f.dropped << "\n";
        os << "net.fault.corrupted " << f.corrupted << "\n";
        os << "net.fault.duplicated " << f.duplicated << "\n";
        os << "net.fault.delayed " << f.delayed << "\n";
        os << "net.fault.downDropped " << f.downDropped << "\n";
    }
    for (auto &np : nodes_) {
        Node &n = *np;
        std::string p = "node" + std::to_string(n.id()) + ".";
        auto &k = n.kernel();
        k.statGroup().dump(os, p);
        os << p << "swap.pageWrites "
           << k.backingStore().pageWrites() << "\n";
        os << p << "swap.pageReads " << k.backingStore().pageReads()
           << "\n";
        n.ioBus().statGroup().dump(os, p);
        os << p << "tlb.hits " << n.mmu().tlb().hits() << "\n";
        os << p << "tlb.misses " << n.mmu().tlb().misses() << "\n";
        for (auto *c : k.controllers()) {
            c->statGroup().dump(os, p);
            c->engineStatGroup().dump(
                os, p + c->statGroup().name() + ".");
        }
        if (auto *ni = n.ni())
            ni->statGroup().dump(os, p);
    }
}

void
System::dumpStatsJson(std::ostream &os)
{
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("sim");
    w.beginObject();
    w.field("ticks", simNow());
    w.field("events", simEvents());
    w.endObject();
    w.key("net");
    w.beginObject();
    w.field("topology", topo_.describe());
    w.field("bytesRouted", net_.bytesRouted());
    {
        net::FaultCounters f = net_.faults().totals();
        w.key("fault");
        w.beginObject();
        w.field("decisions", f.decisions);
        w.field("dropped", f.dropped);
        w.field("corrupted", f.corrupted);
        w.field("duplicated", f.duplicated);
        w.field("delayed", f.delayed);
        w.field("downDropped", f.downDropped);
        w.endObject();
    }
    w.endObject();
    w.key("nodes");
    w.beginArray();
    for (auto &np : nodes_) {
        Node &n = *np;
        auto &k = n.kernel();
        w.beginObject();
        w.field("id", std::uint64_t(n.id()));
        stats::JsonDumper d(w);
        k.statGroup().accept(d);
        w.key("swap");
        w.beginObject();
        w.field("pageWrites", k.backingStore().pageWrites());
        w.field("pageReads", k.backingStore().pageReads());
        w.endObject();
        n.ioBus().statGroup().accept(d);
        w.key("tlb");
        w.beginObject();
        w.field("hits", n.mmu().tlb().hits());
        w.field("misses", n.mmu().tlb().misses());
        w.endObject();
        for (auto *c : k.controllers()) {
            c->statGroup().accept(d);
            c->engineStatGroup().accept(d, c->statGroup().name() + ".");
        }
        if (auto *ni = n.ni())
            ni->statGroup().accept(d);
        w.endObject();
    }
    w.endArray();
    w.key("spans");
    span::registry().dumpJson(w, /*includeSpans=*/false);
    w.endObject();
    w.finish();
}

RunOptions
parseRunOptions(int &argc, char **argv)
{
    RunOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--stats-json=", 0) == 0) {
            opts.statsJsonPath = arg.substr(std::strlen("--stats-json="));
            if (opts.statsJsonPath.empty()) {
                std::cerr << "--stats-json: empty path\n";
                opts.ok = false;
            }
            continue;
        }
        if (arg.rfind("--trace=", 0) == 0) {
            opts.traceSpec = arg.substr(std::strlen("--trace="));
            if (!trace::applySpec(opts.traceSpec, &std::cerr)) {
                std::cerr << "--trace: unknown category in '"
                          << opts.traceSpec
                          << "' (want dma,vm,os,ni,bus,xfer,net.fault "
                             "or all)\n";
                opts.ok = false;
            }
            continue;
        }
        if (arg.rfind("--faults=", 0) == 0) {
            std::string spec = arg.substr(std::strlen("--faults="));
            if (!net::parseFaultSpec(spec, opts.faults, &std::cerr)) {
                opts.ok = false;
            } else {
                g_pendingFaultSpec = spec;
            }
            continue;
        }
        if (arg.rfind("--topo=", 0) == 0) {
            std::string spec = arg.substr(std::strlen("--topo="));
            if (!sim::parseTopologySpec(spec, opts.topology,
                                        &std::cerr)) {
                opts.ok = false;
            } else {
                g_pendingTopoSpec = spec;
            }
            continue;
        }
        if (arg.rfind("--audit=", 0) == 0) {
            opts.auditSpec = arg.substr(std::strlen("--audit="));
            audit::Mode mode;
            if (!audit::parseMode(opts.auditSpec, mode)) {
                std::cerr << "--audit: unknown mode '" << opts.auditSpec
                          << "' (want every-event, on-switch, "
                             "at-barrier or off)\n";
                opts.ok = false;
            } else {
                g_pendingAuditSpec = opts.auditSpec;
            }
            continue;
        }
        if (arg.rfind("--profile=", 0) == 0) {
            opts.profilePath = arg.substr(std::strlen("--profile="));
            if (opts.profilePath.empty()) {
                std::cerr << "--profile: empty path\n";
                opts.ok = false;
            } else {
                // A profiled run is a diagnostic run: make failures
                // produce their flight-recorder post-mortem too.
                sim::FlightRecorder::setDumpOnPanic(true);
            }
            continue;
        }
        if (arg.rfind("--shards=", 0) == 0) {
            std::string spec = arg.substr(std::strlen("--shards="));
            if (spec == "auto") {
                opts.shardsAuto = true;
            } else {
                char *end = nullptr;
                unsigned long n = std::strtoul(spec.c_str(), &end, 10);
                if (spec.empty() || (end && *end)) {
                    std::cerr << "--shards: want a count or 'auto', "
                                 "got '" << spec << "'\n";
                    opts.ok = false;
                } else {
                    opts.shards = unsigned(n);
                }
            }
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    // SHRIMP_TOPO fallback has to resolve *here*, not only inside
    // resolvedTopology(): workloads that pin their SystemConfig
    // topology from these options (ring.cc sets specified=true so a
    // default-constructed config stays crossbar regardless of the
    // environment) would otherwise never see the env var at all.
    if (!opts.topology.specified) {
        const char *tenv = std::getenv("SHRIMP_TOPO");
        if (tenv && *tenv
            && !sim::parseTopologySpec(tenv, opts.topology,
                                       &std::cerr))
            opts.ok = false;
    }
    return opts;
}

unsigned
resolveShards(const RunOptions &opts, unsigned nodes)
{
    if (opts.shardsAuto)
        return std::min(nodes, sim::hostCoreCount());
    return std::clamp(opts.shards, 1u, std::max(nodes, 1u));
}

void
writeStatsJson(System &sys, const RunOptions &opts)
{
    if (opts.statsJsonPath.empty())
        return;
    std::ofstream out(opts.statsJsonPath);
    if (!out) {
        std::cerr << "cannot write " << opts.statsJsonPath << "\n";
        return;
    }
    sys.dumpStatsJson(out);
}

Tick
System::runUntilAllDone(Tick limit)
{
    auto all_done = [this] {
        for (auto &n : nodes_) {
            if (!n->kernel().allProcessesDone())
                return false;
        }
        return true;
    };
    Tick t = runUntil(all_done, limit);
    for (auto &n : nodes_)
        n->kernel().rethrowProcessFailures();
    return t;
}

} // namespace shrimp::core
