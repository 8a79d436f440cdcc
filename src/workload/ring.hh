/**
 * @file
 * The multi-node traffic workload behind bench/multinode_traffic and
 * the shard-determinism tests: N nodes streaming fixed-size records
 * through user-level msg::Channels (deliberate-update payloads,
 * automatic-update credits), generalizing the paper's four-processor
 * prototype run to any node count. Two topologies: the default ring
 * (every node streams to its right neighbour) and hotspot (every
 * node streams to node 0 — the congestion-control stress case, where
 * N-1 credit windows converge on one receiver FIFO).
 *
 * The run has two phases. Channel setup rendezvouses through
 * host-shared ChannelRendezvous objects, so it executes under
 * System::runSetup — sequential, in the canonical global event order,
 * identical for any shard count. The data phase that follows is
 * entirely node-local plus NI traffic, so it runs under the parallel
 * engine and is the part the caller times.
 *
 * RingResult::digest folds every per-node counter into one FNV-1a
 * value, so "bit-identical across shard counts" is one integer
 * comparison.
 */

#ifndef SHRIMP_WORKLOAD_RING_HH
#define SHRIMP_WORKLOAD_RING_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "shrimp/fault.hh"
#include "sim/params.hh"
#include "sim/types.hh"

namespace shrimp::core
{
class System;
} // namespace shrimp::core

namespace shrimp::sim
{
class ShardProfiler;
} // namespace shrimp::sim

namespace shrimp::workload
{

/** One ring-traffic experiment. */
struct RingConfig
{
    unsigned nodes = 4;
    /**
     * Hotspot topology: every node n >= 1 streams its records to
     * node 0 instead of around the ring. Node 0 only receives.
     */
    bool hotspot = false;
    unsigned records = 64;
    /** Per-record payload; must fit one channel slot (<= 4080). */
    std::uint32_t recordBytes = 4080;
    /** SystemConfig::shards (clamped to [1, nodes]). */
    unsigned shards = 1;
    /** Fine quantum so each node's sender/receiver pair pipelines. */
    double quantumUs = 200.0;
    std::uint64_t memBytes = std::uint64_t(8) << 20;
    Tick limit = Tick(300) * tickSec;
    /**
     * Backplane fault injection. Always installed with
     * specified = true, so an in-process reference run with a
     * default-constructed config really is fault-free even when the
     * surrounding main saw `--faults=` or SHRIMP_FAULTS.
     */
    net::FaultConfig faults;
    /**
     * Backplane wiring (crossbar default, or mesh/torus — must match
     * `nodes` when non-flat). Always passed through to SystemConfig,
     * so an in-process reference run with a default-constructed
     * config really is a crossbar even under SHRIMP_TOPO / --topo=.
     */
    sim::TopologyConfig topology;
    /**
     * Optional time-budget profiler: attached to the sharded engine
     * and begun/ended around the timed data phase, so setup never
     * pollutes the budget.
     */
    sim::ShardProfiler *profiler = nullptr;
    /**
     * Called with the live System after the run's counters are
     * collected, just before it is destroyed — the hook benches use
     * to capture per-component stats (the System does not survive
     * runRing's return).
     */
    std::function<void(core::System &)> onSystemDone;
};

/** What one run produced (simulated time plus host wall time). */
struct RingResult
{
    // --- simulated-time outputs: must be bit-identical across
    //     shard counts for the same config.
    Tick simTicks = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t bytesRouted = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t bytesDelivered = 0;
    std::uint64_t contextSwitches = 0;
    /** FNV-1a over every per-node counter and the totals above. */
    std::uint64_t digest = 0;
    double aggregateMbS = 0;

    // --- reliability outputs (also folded into digest).
    std::uint64_t retransmits = 0;
    /** SACK-scoreboard fast retransmits (subset of retransmits). */
    std::uint64_t fastRetransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t acksSent = 0;
    std::uint64_t rxDupDropped = 0;
    std::uint64_t rxCorruptDropped = 0;
    /** Out-of-order chunks resequenced (never dropped anymore). */
    std::uint64_t rxOooBuffered = 0;
    /** Acks sent with the ECN (receive-FIFO overcommit) mark. */
    std::uint64_t ecnMarked = 0;
    /** Congestion-window halvings across all sender flows. */
    std::uint64_t cwndCuts = 0;
    /** Rescue retransmits the ack scoreboard later proved unneeded. */
    std::uint64_t rescueSpurious = 0;
    /** Merged interconnect fault counters (what the links did). */
    net::FaultCounters faults;
    /**
     * Digest of the payload bytes every receiver drained into memory
     * (per-source flows, sequence order). Unlike `digest`, which folds
     * timing-sensitive counters, this matches between a fault-free run
     * and a faulty run that recovered every byte exactly once.
     */
    std::uint64_t dataDigest = 0;

    // --- completion accounting (the lost-completion trace).
    /** Nodes all of whose receive links saw every record. */
    unsigned nodesDone = 0;
    /** Traffic links in the topology (ring: N, hotspot: N-1). */
    unsigned linksTotal = 0;
    /** Links whose receiver saw every record. */
    unsigned linksDone = 0;
    /** Chunks still sitting in sender retransmit buffers at the end. */
    std::uint64_t chunksUnacked = 0;
    /** Human-readable unfinished flows ("node0 -> node1: ..."). */
    std::vector<std::string> lostFlows;

    // --- host-side outputs: vary run to run.
    /** Wall seconds spent in the timed data phase. */
    double hostSec = 0;

    // --- sharded-engine introspection.
    std::uint64_t crossPosts = 0;
    std::uint64_t windows = 0;
    std::uint64_t subWindows = 0;
};

/** Build the system, run both phases, and report. */
RingResult runRing(const RingConfig &cfg);

} // namespace shrimp::workload

#endif // SHRIMP_WORKLOAD_RING_HH
