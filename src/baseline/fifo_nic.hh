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
#include <vector>

#include "bus/io_bus.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace shrimp::sim
{
class NodeRouter;
} // namespace shrimp::sim

namespace shrimp::baseline
{

class FifoNic;

/**
 * The fabric connecting FifoNics: which NIC sits on which node, and
 * the route latency (same link model as SHRIMP's Interconnect). On a
 * mesh/torus wiring the routing latency scales with the
 * dimension-order hop count; a packet charges the whole route's
 * latency up front instead of modelling per-hop link arbitration.
 * Each FifoNic serializes its own injection link.
 */
class FifoFabric
{
  public:
    FifoFabric(const sim::MachineParams &params, unsigned nodes,
               sim::TopologyConfig topo = {})
        : params_(params), topo_(topo), nics_(nodes, nullptr)
    {}

    void
    attach(NodeId node, FifoNic *nic)
    {
        SHRIMP_ASSERT(node < nics_.size() && !nics_[node],
                      "node already attached");
        nics_[node] = nic;
    }

    FifoNic *
    nic(NodeId node) const
    {
        SHRIMP_ASSERT(node < nics_.size() && nics_[node],
                      "no FIFO NIC for node ", node);
        return nics_[node];
    }

    unsigned nodeCount() const { return unsigned(nics_.size()); }

    /** Routing latency of the whole src -> dst route (all hops). */
    Tick
    routeLatency(NodeId src, NodeId dst) const
    {
        return topo_.hops(src, dst) * params_.linkLatency();
    }

    /**
     * Lower bound on the delay of anything one FIFO NIC posts to
     * another: one word on the injection link plus the route. Words
     * and credits both keep it, so core::System sizes the engine's
     * lookahead from it when a FIFO NIC is configured.
     */
    Tick
    minDeliveryLatency(NodeId src, NodeId dst) const
    {
        return params_.linkTransfer(8) + routeLatency(src, dst);
    }

  private:
    const sim::MachineParams &params_;
    const sim::TopologyConfig topo_;
    std::vector<FifoNic *> nics_;
};

/**
 * One node's memory-mapped FIFO NIC. Words reach the peer through
 * sim::NodeRouter::post and land in its incoming FIFO on its own
 * queue. Flow control is sender-side: the NIC may send a peer one word
 * per credit, starts with one credit per word of the peer's FIFO, and
 * the peer returns a credit for every word its CPU pops.
 */
class FifoNic : public bus::ProxyClient
{
  public:
    static constexpr Addr regDestNode = 0x00;
    static constexpr Addr regTxSpace = 0x08;
    static constexpr Addr regRxAvail = 0x10;
    static constexpr Addr regRxData = 0x18;

    FifoNic(sim::EventQueue &eq, sim::NodeRouter &router,
            const sim::MachineParams &params, NodeId node,
            bus::IoBus &io_bus, FifoFabric &fabric,
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

    std::uint64_t wordsSent() const
    {
        return std::uint64_t(txWordsStat_.value());
    }
    std::uint64_t wordsReceived() const
    {
        return std::uint64_t(rxWordsStat_.value());
    }

  private:
    struct RxWord
    {
        std::uint64_t word;
        NodeId src;
    };

    void pump();

    /** On this node's queue: append @p words behind every word that
     *  landed before them. */
    void land(NodeId src, const std::vector<std::uint64_t> &words);

    std::uint32_t fifoWords() const { return params_.niFifoBytes / 8; }

    sim::EventQueue &eq_;
    sim::NodeRouter &router_;
    const sim::MachineParams &params_;
    NodeId node_;
    FifoFabric &fabric_;
    unsigned deviceIndex_;
    std::uint32_t pageBytes_;

    NodeId destNode_ = 0;
    std::deque<std::uint64_t> txFifo_;
    /**
     * Every landed word, in arrival order. The first fifoWords() are
     * the incoming FIFO; several senders' credits can oversubscribe
     * it, and the rest wait at the ejection port, each entering the
     * FIFO as the CPU pops the word ahead of it.
     */
    std::deque<RxWord> rxFifo_;
    /** credits_[n]: words this NIC may still send node n. */
    std::vector<std::uint32_t> credits_;
    /** When the injection link is next free. */
    Tick linkFreeAt_ = 0;
    bool pumpBusy_ = false;

    stats::Scalar txWordsStat_;
    stats::Scalar rxWordsStat_;
    stats::Scalar txOverflows_;
};

} // namespace shrimp::baseline

#endif // SHRIMP_BASELINE_FIFO_NIC_HH
