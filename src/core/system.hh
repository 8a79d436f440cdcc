/**
 * @file
 * The public entry point: build a SHRIMP multicomputer.
 *
 * A System owns the sharded event engine (one event queue per node,
 * sim/sharded.hh), the backplane interconnect, and N identical nodes.
 * Each node is a Pentium-Xpress-class PC: physical memory, MMU, I/O
 * (EISA) bus, a kernel, and a configurable set of devices, each
 * fronted either by a UDMA controller (the paper's mechanism) or by
 * the traditional kernel-initiated DMA driver (the baseline), or — for
 * the FIFO-NIC baseline — by a plain memory-mapped interface.
 *
 * Typical use:
 *
 *   core::SystemConfig cfg;
 *   cfg.nodes = 2;
 *   cfg.node.devices.push_back({core::DeviceKind::ShrimpNi});
 *   core::System sys(cfg);
 *   sys.node(0).kernel().spawn("sender", ...);
 *   sys.runUntilAllDone();
 */

#ifndef SHRIMP_CORE_SYSTEM_HH
#define SHRIMP_CORE_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/fifo_nic.hh"
#include "baseline/traditional_dma.hh"
#include "bus/io_bus.hh"
#include "dev/disk.hh"
#include "dev/frame_buffer.hh"
#include "dev/stream_sink.hh"
#include "dma/udma_controller.hh"
#include "mem/physical_memory.hh"
#include "os/kernel.hh"
#include "shrimp/interconnect.hh"
#include "shrimp/network_interface.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/sharded.hh"
#include "vm/layout.hh"
#include "vm/mmu.hh"

namespace shrimp::audit
{
class Monitor;
} // namespace shrimp::audit

namespace shrimp::core
{

/** The kinds of devices a node can carry. */
enum class DeviceKind
{
    ShrimpNi,    ///< the SHRIMP network interface (Section 8)
    FrameBuffer, ///< graphics frame buffer
    Disk,        ///< block storage
    StreamSink,  ///< HIPPI-class channel endpoint (benchmarks)
    FifoNic,     ///< memory-mapped FIFO NIC baseline (Section 9)
};

/** How a DMA-capable device is driven. */
enum class DriverKind
{
    Udma,        ///< UDMA controller (the paper's mechanism)
    Traditional, ///< kernel-initiated DMA baseline
};

/** One device slot. */
struct DeviceConfig
{
    DeviceKind kind = DeviceKind::ShrimpNi;
    DriverKind driver = DriverKind::Udma;
    /** Section 7 hardware queue depth (0 = basic UDMA). */
    std::uint32_t queueDepth = 0;
    // Device-specific knobs.
    std::uint32_t fbWidth = 640;
    std::uint32_t fbHeight = 480;
    std::uint64_t diskBytes = std::uint64_t(16) << 20;
    std::uint64_t sinkBytes = std::uint64_t(1) << 30;
};

/** Per-node configuration (all nodes identical). */
struct NodeConfig
{
    std::uint64_t memBytes = std::uint64_t(16) << 20;
    std::vector<DeviceConfig> devices;
};

/** Whole-machine configuration. */
struct SystemConfig
{
    unsigned nodes = 1;
    /**
     * Simulation shards (worker threads). Every System builds one
     * EventQueue per node and runs them on clamp(shards, 1, nodes)
     * workers in conservative time windows (sim/sharded.hh); every
     * shard count produces bit-identical simulated time and counters.
     */
    unsigned shards = 1;
    sim::MachineParams params;
    /**
     * Backplane wiring (sim::TopologyConfig): crossbar by default, 2D
     * mesh/torus via `--topo=mesh:4x4`. When topology.specified is
     * false the System takes a `--topo=` spec seen by parseRunOptions;
     * a deliberately filled config wins over it. A non-flat grid must
     * match `nodes` exactly (fatal otherwise).
     */
    sim::TopologyConfig topology;
    NodeConfig node;
    /**
     * Backplane fault injection (shrimp/fault.hh). When
     * faults.specified is false the System takes a `--faults=` spec
     * seen by parseRunOptions; a deliberately filled config
     * (specified == true, even "off") wins over it.
     */
    net::FaultConfig faults;
};

class System;

/** One node of the multicomputer. */
class Node
{
  public:
    /** @param eq The node's own event queue in the sharded engine. */
    Node(System &sys, NodeId id, const SystemConfig &cfg,
         sim::EventQueue &eq);
    ~Node();

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    NodeId id() const { return id_; }
    mem::PhysicalMemory &memory() { return *memory_; }
    bus::IoBus &ioBus() { return *ioBus_; }
    vm::Mmu &mmu() { return *mmu_; }
    os::Kernel &kernel() { return *kernel_; }

    /** The first SHRIMP NI on the node (nullptr if none). */
    net::NetworkInterface *ni() { return ni_; }
    dev::FrameBuffer *frameBuffer() { return fb_; }
    dev::Disk *disk() { return disk_; }
    dev::StreamSink *streamSink() { return sink_; }
    baseline::FifoNic *fifoNic() { return fifoNic_.get(); }

    /** UDMA controller for device slot @p device (nullptr if that
     *  slot uses another driver). */
    dma::UdmaController *controller(unsigned device);

    /** Traditional driver for slot @p device (nullptr otherwise). */
    baseline::TraditionalDmaDriver *tradDriver(unsigned device);

    /** Device slot index of the first device of @p kind (or -1). */
    int deviceIndexOf(DeviceKind kind) const;

  private:
    NodeId id_;
    std::unique_ptr<mem::PhysicalMemory> memory_;
    std::unique_ptr<bus::IoBus> ioBus_;
    std::unique_ptr<vm::Mmu> mmu_;
    std::unique_ptr<os::Kernel> kernel_;

    std::vector<std::unique_ptr<dma::UdmaDevice>> devices_;
    std::vector<std::unique_ptr<dma::UdmaController>> controllers_;
    std::vector<std::unique_ptr<baseline::TraditionalDmaDriver>>
        drivers_;
    std::vector<DeviceKind> slotKinds_;
    std::unique_ptr<baseline::FifoNic> fifoNic_;

    net::NetworkInterface *ni_ = nullptr;
    dev::FrameBuffer *fb_ = nullptr;
    dev::Disk *disk_ = nullptr;
    dev::StreamSink *sink_ = nullptr;
};

/** The whole multicomputer. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** The queue node @p i's components schedule on. */
    sim::EventQueue &nodeEq(NodeId i) { return engine_->queue(i); }

    /** The sharded engine (never null). */
    sim::ShardedEngine *engine() { return engine_.get(); }

    const sim::MachineParams &params() const { return cfg_.params; }
    const vm::AddressLayout &layout() const { return layout_; }
    net::Interconnect &net() { return net_; }
    baseline::FifoFabric &fifoFabric() { return fifoFabric_; }

    unsigned nodeCount() const { return unsigned(nodes_.size()); }
    Node &node(unsigned i) { return *nodes_.at(i); }

    /** Global simulated time: the max of the per-node fired ticks. */
    Tick simNow() const { return engine_->now(); }

    /** Total events executed across all queues. */
    std::uint64_t simEvents() const { return engine_->eventsExecuted(); }

    /** Run the event loop up to @p limit. */
    Tick run(Tick limit = maxTick) { return engine_->run(limit); }

    /**
     * Sequential phase for workload setup that rendezvouses through
     * host-shared state (e.g. msg::Channel export/import): events of
     * all nodes are interleaved in one canonical global order on the
     * calling thread and @p pred is checked after every event.
     */
    Tick
    runSetup(const std::function<bool()> &pred, Tick limit = maxTick)
    {
        return engine_->runSetup(pred, limit);
    }

    /**
     * Run until every process on every node is done (or @p limit).
     * Each node's processes are checked at every round boundary by
     * the worker that owns the node; the run stops at the first
     * boundary where all are done. On one shard the first window
     * already reaches @p limit, so the check stops nothing early
     * there. Rethrows any exception a process body terminated with.
     */
    Tick runUntilAllDone(Tick limit = maxTick);

    /**
     * Dump every component's statistics as one JSON document:
     * `{ "sim": {...}, "net": {...}, "nodes": [ {...}, ... ],
     *    "spans": {...} }`, each node carrying its component groups
     * ("kernel", "bus", "udmaN", "udmaN.engine", "ni", ...).
     */
    void dumpStatsJson(std::ostream &os);

    /**
     * Turn on continuous invariant auditing (check/monitor.hh):
     * "on-switch" audits at context switches, "every-event" at every
     * kernel event and DMA completion, "at-barrier" every node at
     * every round boundary of the engine, on the worker that owns the
     * node, "off" detaches. On more than one shard every non-off mode
     * is coerced to at-barrier — a node is quiescent at its shard's
     * boundaries. Returns false on an unknown spec.
     * With @p fail_fast the monitor throws audit::ViolationError at
     * the first violation.
     */
    bool enableAudit(const std::string &spec, bool fail_fast = false);

    /** The active monitor (nullptr when auditing is off). */
    audit::Monitor *auditMonitor() { return auditor_.get(); }

  private:
    SystemConfig cfg_;
    /** Declared before nodes_: node components hold references into
     *  its per-node queues. */
    std::unique_ptr<sim::ShardedEngine> engine_;
    vm::AddressLayout layout_;
    /** Resolved wiring (cfg or --topo=): declared before the
     *  fabrics, which capture it by value at construction. */
    sim::TopologyConfig topo_;
    net::Interconnect net_;
    baseline::FifoFabric fifoFabric_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /** Declared after nodes_: must detach from live kernels first. */
    std::unique_ptr<audit::Monitor> auditor_;
};

/**
 * Options shared by every example and bench main: `--stats-json=<path>`
 * selects a machine-readable result file and `--trace=<cats>` enables
 * trace categories ("dma,vm,os,ni,bus,xfer,net.fault" or "all") on
 * stderr.
 */
struct RunOptions
{
    std::string statsJsonPath; ///< empty: no JSON dump requested
    std::string traceSpec;     ///< empty: tracing unchanged
    std::string auditSpec;     ///< empty: invariant auditing off
    std::string profilePath;   ///< `--profile=<file>`: Perfetto trace
    unsigned shards = 1;       ///< `--shards=N`
    bool shardsAuto = false;   ///< `--shards=auto` was given
    net::FaultConfig faults;   ///< `--faults=<spec>` (shrimp/fault.hh)
    sim::TopologyConfig topology; ///< `--topo=<spec>` (sim/params.hh)
    bool ok = true;            ///< false: a malformed option was seen
};

/**
 * Parse and strip `--stats-json=` / `--trace=` / `--audit=` /
 * `--shards=` / `--faults=` / `--topo=` / `--profile=` from argv
 * (compacting argc/argv in place
 * so argument-consuming frameworks never see them); a `--trace=` spec
 * is applied immediately, and an `--audit=` spec (`every-event`,
 * `on-switch`, `at-barrier` or `off`), a `--faults=` spec
 * (`drop=0.05,corrupt=0.02,...`, see parseFaultSpec), or a `--topo=`
 * spec (`crossbar`, `mesh:WxH`, `torus:WxH`, see parseTopologySpec)
 * is parsed here once and applied to every System constructed in
 * this process afterwards. `--shards=N|auto` is
 * reported in RunOptions for the caller to place into
 * SystemConfig::shards (resolveShards maps `auto` to the host's core
 * count). Other arguments are left untouched.
 */
RunOptions parseRunOptions(int &argc, char **argv);

/**
 * The shard count a run should use: `auto` resolves to
 * min(nodes, sim::hostCoreCount()), an explicit N is clamped to
 * [1, nodes].
 */
unsigned resolveShards(const RunOptions &opts, unsigned nodes);

/** Write sys.dumpStatsJson to opts.statsJsonPath if one was given. */
void writeStatsJson(System &sys, const RunOptions &opts);

} // namespace shrimp::core

#endif // SHRIMP_CORE_SYSTEM_HH
