/**
 * @file
 * A memory-mapped FIFO network interface: the Section 9 baseline
 * ("the controller has no DMA capability. Instead, the host processor
 * communicates with the network interface by reading or writing
 * special memory locations that correspond to the FIFOs").
 *
 * The device window (protected by the ordinary VM system, exactly as
 * in the paper's related work) exposes:
 *
 *   page 0: control/status registers
 *     0x00  W  DEST_NODE     destination of subsequent TX words
 *     0x08  R  TX_SPACE      words free in the outgoing FIFO
 *     0x10  R  RX_AVAIL      words available in the incoming FIFO
 *     0x18  R  RX_DATA       pop one word (0 if empty)
 *   page 1+: TX data window — every STORE enqueues one word
 *
 * Each reference is an uncached I/O-bus transaction, so long messages
 * pay one bus word-cycle per word — which is why the DMA-based
 * controller wins for long messages (burst mode), the paper's point.
 *
 * Words are 64-bit (we model the PIO datapath as matching the CPU's
 * widest uncached store); the DMA-vs-PIO crossover is insensitive to
 * this choice since burst mode is several times faster either way.
 */

#ifndef SHRIMP_BASELINE_FIFO_NIC_HH
#define SHRIMP_BASELINE_FIFO_NIC_HH

#include <cstdint>
#include <deque>
#include <map>

#include "bus/io_bus.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace shrimp::baseline
{

class FifoNic;

/**
 * The fabric connecting FifoNics (same link model as SHRIMP's
 * Interconnect: per-source injection serialization plus routing
 * latency). On a mesh/torus wiring the routing latency scales with
 * the dimension-order hop count; the FIFO-NIC baseline only runs on
 * one shard, so it charges the whole route's latency up front instead
 * of modelling per-hop link arbitration.
 */
class FifoFabric
{
  public:
    explicit FifoFabric(const sim::MachineParams &params,
                        sim::TopologyConfig topo = {})
        : params_(params), topo_(topo)
    {}

    void
    attach(NodeId node, FifoNic *nic)
    {
        SHRIMP_ASSERT(nics_.count(node) == 0, "node already attached");
        nics_[node] = nic;
    }

    FifoNic *
    nic(NodeId node) const
    {
        auto it = nics_.find(node);
        SHRIMP_ASSERT(it != nics_.end(), "no FIFO NIC for node ", node);
        return it->second;
    }

    /** Occupy @p src's injection link for @p bytes starting no
     *  earlier than the caller's clock @p now; returns the tick the
     *  last byte has left. */
    Tick
    acquireLink(NodeId src, std::uint64_t bytes, Tick now)
    {
        Tick &free_at = linkFreeAt_[src];
        Tick start = std::max(now, free_at);
        free_at = start + params_.linkTransfer(bytes);
        return free_at;
    }

    Tick hopLatency() const { return params_.linkLatency(); }

    /** Routing latency of the whole src -> dst route (all hops). */
    Tick
    routeLatency(NodeId src, NodeId dst) const
    {
        return topo_.hops(src, dst) * params_.linkLatency();
    }

  private:
    const sim::MachineParams &params_;
    const sim::TopologyConfig topo_;
    std::map<NodeId, FifoNic *> nics_;
    std::map<NodeId, Tick> linkFreeAt_;
};

/**
 * One node's memory-mapped FIFO NIC. The pump reads the peer's FIFO
 * space synchronously and deliveries write the peer's FIFO from the
 * sender's own queue, so core::System builds it on one shard only
 * (DESIGN.md §10 says why the deliveries cannot go through
 * sim::NodeRouter::post).
 */
class FifoNic : public bus::ProxyClient
{
  public:
    static constexpr Addr regDestNode = 0x00;
    static constexpr Addr regTxSpace = 0x08;
    static constexpr Addr regRxAvail = 0x10;
    static constexpr Addr regRxData = 0x18;

    FifoNic(sim::EventQueue &eq, const sim::MachineParams &params,
            NodeId node, bus::IoBus &io_bus, FifoFabric &fabric,
            unsigned device_index, std::uint32_t page_bytes);

    NodeId node() const { return node_; }
    unsigned deviceIndex() const { return deviceIndex_; }

    /** Window size to register with the kernel (control + TX pages). */
    std::uint64_t proxyExtentBytes() const { return 16 * pageBytes_; }

    // ProxyClient interface.
    std::uint64_t proxyLoad(const vm::Decoded &decoded,
                            Addr paddr) override;
    void proxyStore(const vm::Decoded &decoded, Addr paddr,
                    std::int64_t value) override;

    /** Peer-facing: deliver one word into the incoming FIFO.
     *  @return false if the FIFO is full (sender must retry). */
    bool rxDeliver(std::uint64_t word);

    std::uint32_t rxFifoFree() const;

    std::uint64_t wordsSent() const
    {
        return std::uint64_t(txWordsStat_.value());
    }
    std::uint64_t wordsReceived() const
    {
        return std::uint64_t(rxWordsStat_.value());
    }

  private:
    void pump();

    std::uint32_t fifoWords() const
    {
        return params_.niFifoBytes / 8;
    }

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    NodeId node_;
    FifoFabric &fabric_;
    unsigned deviceIndex_;
    std::uint32_t pageBytes_;

    NodeId destNode_ = 0;
    std::deque<std::uint64_t> txFifo_;
    std::deque<std::uint64_t> rxFifo_;
    bool pumpBusy_ = false;

    stats::Scalar txWordsStat_;
    stats::Scalar rxWordsStat_;
    stats::Scalar txOverflows_;
};

} // namespace shrimp::baseline

#endif // SHRIMP_BASELINE_FIFO_NIC_HH
