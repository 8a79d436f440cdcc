/**
 * @file
 * Machine timing parameters.
 *
 * One struct holds every latency and bandwidth constant in the
 * simulated machine, with defaults calibrated to the 1995/96 SHRIMP
 * prototype described in the paper: 60 MHz Pentium Xpress PC nodes, an
 * EISA expansion bus carrying the network interface, and an Intel
 * Paragon routing backplane. Experiments override individual fields.
 *
 * Calibration anchors from the paper's text:
 *  - two-reference UDMA initiation plus alignment check: ~2.8 us,
 *  - EISA burst DMA: ~23 MB/s sustained (SHRIMP's measured peak),
 *  - traditional DMA initiation: hundreds to thousands of
 *    instructions (syscall, translate, pin, descriptor, interrupt,
 *    unpin),
 *  - Paragon HIPPI: >350 us per-transfer overhead on a 100 MB/s
 *    channel.
 */

#ifndef SHRIMP_SIM_PARAMS_HH
#define SHRIMP_SIM_PARAMS_HH

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace shrimp::sim
{

/**
 * How the backplane wires the nodes together. The default crossbar is
 * distance-uniform (every pair one hop apart, each node serializing
 * its traffic onto a dedicated injection link); a 2D mesh or torus
 * routes packets dimension-order (X then Y) across shared physical
 * links, so latency and contention scale with distance — the shape of
 * the Paragon backplane the SHRIMP prototype actually rode.
 *
 * Nodes map onto the grid row-major: node = y * dimX + x. The struct
 * owns the pure routing arithmetic (distance, next hop) so the
 * Interconnect, the FIFO-NIC baseline fabric, and the tests all agree
 * on the path a packet takes.
 */
struct TopologyConfig
{
    enum class Kind
    {
        Crossbar,
        Mesh,
        Torus,
    };

    Kind kind = Kind::Crossbar;
    /** Grid dimensions (mesh/torus only; node = y * dimX + x). */
    unsigned dimX = 0;
    unsigned dimY = 0;
    /** True once a spec was parsed or a caller filled the struct
     *  deliberately; lets an explicit config override a `--topo=`
     *  flag in core::System. */
    bool specified = false;

    bool flat() const { return kind == Kind::Crossbar; }

    /** Nodes the grid wires (0 = any, for the crossbar). */
    unsigned
    gridNodes() const
    {
        return flat() ? 0 : dimX * dimY;
    }

    std::string
    describe() const
    {
        switch (kind) {
          case Kind::Mesh:
            return "mesh:" + std::to_string(dimX) + "x"
                   + std::to_string(dimY);
          case Kind::Torus:
            return "torus:" + std::to_string(dimX) + "x"
                   + std::to_string(dimY);
          case Kind::Crossbar:
          default:
            return "crossbar";
        }
    }

    /**
     * Hops a packet from @p src to @p dst traverses under
     * dimension-order routing; 1 for the crossbar (and for src == dst,
     * so the one-hop delivery floor survives degenerate self-sends).
     */
    unsigned
    hops(NodeId src, NodeId dst) const
    {
        if (flat() || src == dst)
            return 1;
        const unsigned d = axisDist(src % dimX, dst % dimX, dimX)
                           + axisDist(src / dimX, dst / dimX, dimY);
        return d == 0 ? 1 : d;
    }

    /**
     * The next node on the dimension-order (X-then-Y) route toward
     * @p dst. The crossbar delivers in one hop, so the next hop *is*
     * the destination. On the torus each axis walks the shorter way
     * around; an exact half-ring tie breaks toward +X/+Y, so the path
     * is a pure function of (src, dst) — per-flow FIFO order needs
     * every chunk of a flow on the same links.
     */
    NodeId
    nextHop(NodeId from, NodeId dst) const
    {
        if (flat() || from == dst)
            return dst;
        const unsigned x = unsigned(from) % dimX;
        const unsigned y = unsigned(from) / dimX;
        const unsigned dx = unsigned(dst) % dimX;
        const unsigned dy = unsigned(dst) / dimX;
        if (x != dx)
            return NodeId(y * dimX + axisStep(x, dx, dimX));
        return NodeId(axisStep(y, dy, dimY) * dimX + x);
    }

  private:
    unsigned
    axisDist(unsigned a, unsigned b, unsigned dim) const
    {
        const unsigned d = a > b ? a - b : b - a;
        if (kind != Kind::Torus)
            return d;
        return d < dim - d ? d : dim - d;
    }

    /** One dimension-order step from @p a toward @p b along an axis
     *  of @p dim slots (wrapping on the torus). */
    unsigned
    axisStep(unsigned a, unsigned b, unsigned dim) const
    {
        if (kind != Kind::Torus)
            return a < b ? a + 1 : a - 1;
        const unsigned fwd = b >= a ? b - a : b + dim - a;
        // Shorter way around; the half-ring tie goes forward (+).
        if (fwd <= dim - fwd)
            return (a + 1) % dim;
        return (a + dim - 1) % dim;
    }
};

/**
 * Parse a topology spec into @p out:
 *
 *   crossbar          the flat default
 *   mesh:WxH          2D mesh, W columns by H rows, row-major ids
 *   torus:WxH         same grid with wraparound links
 *
 * Returns false (and explains on @p err, if given) on a malformed
 * spec. The node-count match (W*H == nodes) is the System's job: the
 * parser does not know the machine size.
 */
inline bool
parseTopologySpec(const std::string &spec, TopologyConfig &out,
                  std::ostream *err)
{
    auto fail = [&](const char *why) {
        if (err)
            *err << "topology spec '" << spec << "': " << why << "\n";
        return false;
    };
    if (spec == "crossbar") {
        out.kind = TopologyConfig::Kind::Crossbar;
        out.dimX = out.dimY = 0;
        out.specified = true;
        return true;
    }
    TopologyConfig::Kind kind;
    std::string dims;
    if (spec.rfind("mesh:", 0) == 0) {
        kind = TopologyConfig::Kind::Mesh;
        dims = spec.substr(5);
    } else if (spec.rfind("torus:", 0) == 0) {
        kind = TopologyConfig::Kind::Torus;
        dims = spec.substr(6);
    } else {
        return fail("want crossbar, mesh:WxH or torus:WxH");
    }
    const std::size_t x = dims.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= dims.size())
        return fail("dimensions want WxH");
    char *end = nullptr;
    const unsigned long w = std::strtoul(dims.c_str(), &end, 10);
    if (!end || *end != 'x')
        return fail("bad width");
    const unsigned long h = std::strtoul(end + 1, &end, 10);
    if (!end || *end != '\0')
        return fail("bad height");
    if (w < 1 || h < 1 || w * h < 2)
        return fail("want at least a 2-node grid");
    out.kind = kind;
    out.dimX = unsigned(w);
    out.dimY = unsigned(h);
    out.specified = true;
    return true;
}

/** All timing/size knobs for one simulated machine (all nodes alike). */
struct MachineParams
{
    // ------------------------------------------------------------- CPU
    /** CPU clock (Hz). Pentium 60. */
    double cpuFreqHz = 60e6;

    /** Average cycles retired per simulated "instruction". */
    double cyclesPerInstr = 1.0;

    // ---------------------------------------------------------- memory
    /** Virtual memory page size (bytes). */
    std::uint32_t pageBytes = 4096;

    /** Cache-missing main-memory reference latency (ns). */
    double memAccessNs = 150.0;

    /** Extra cycles for a hardware page-table walk on a TLB miss. */
    std::uint32_t tlbMissCycles = 24;

    /**
     * Uncached I/O-space reference latency (ns): CPU cycle across the
     * Xpress host bridge onto EISA and back. Each of the two UDMA
     * initiation references pays this.
     */
    double ioAccessNs = 900.0;

    /**
     * Instructions of user code around the two-reference initiation
     * (the paper's "check data alignment with regard to page
     * boundaries"). 60 instructions at 60 MHz ~= 1 us, which together
     * with two 0.9 us I/O references reproduces the paper's 2.8 us.
     */
    std::uint32_t udmaInitiateSoftwareInstr = 60;

    // ------------------------------------------------------------- bus
    /** EISA burst-mode DMA bandwidth (bytes/s). SHRIMP measured peak. */
    double eisaBurstBytesPerSec = 23e6;

    /** EISA single-word (non-burst) transaction latency (ns). */
    double eisaWordNs = 900.0;

    /** Bytes moved per burst beat (EISA is 32-bit). */
    std::uint32_t busWordBytes = 4;

    /** DMA engine start latency: setup + first bus arbitration (ns). */
    double dmaStartNs = 4000.0;

    // ------------------------------------------------ network interface
    /** NIPT lookup + packet header construction (ns). */
    double niptLookupNs = 2500.0;

    /** Outgoing/incoming FIFO capacity (bytes). */
    std::uint32_t niFifoBytes = 8192;

    /** Packet header size on the wire (bytes). */
    std::uint32_t niHeaderBytes = 16;

    /** Receive-side EISA DMA logic start latency (ns). */
    double rxDmaStartNs = 3000.0;

    /** Automatic-update write-combining window (ns): how long the
     *  board holds an open update packet for contiguous successors. */
    double autoCombineWindowNs = 1500.0;

    /** Receive-side completion visibility (flag lands in memory, ns). */
    double rxCompletionNs = 1000.0;

    /**
     * Initial sender-side retransmit timeout (us). Re-armed afresh on
     * every cumulative-ack advance, so on a healthy link the timer
     * never fires: fault-free runs pay no retransmissions. Doubled on
     * each expiry up to niRetryTimeoutMaxUs (capped exponential
     * backoff).
     */
    double niRetryTimeoutUs = 200.0;

    /** Retransmit-backoff ceiling (us). */
    double niRetryTimeoutMaxUs = 3200.0;

    /**
     * Floor for the RTT-adaptive retransmit timeout (us). Once the
     * sender has SRTT/RTTVAR samples the RTO tracks srtt + 4*rttvar,
     * but never below this — a spuriously small variance must not
     * turn one delayed ack into a retransmit storm.
     */
    double niRtoMinUs = 50.0;

    // ----------------------------------------------------- interconnect
    /** Backplane link bandwidth (bytes/s). Paragon mesh class. */
    double linkBytesPerSec = 200e6;

    /** Per-hop routing latency (ns). */
    double linkLatencyNs = 1000.0;

    // ------------------------------------------------- operating system
    /** Scheduler quantum (us). */
    double quantumUs = 10000.0;

    /** Context-switch instructions (save/restore, dispatch). */
    std::uint32_t contextSwitchInstr = 200;

    /** Syscall trap entry + exit instructions. */
    std::uint32_t syscallInstr = 300;

    /** Kernel page-fault handling instructions (excluding any I/O). */
    std::uint32_t pageFaultInstr = 350;

    /** Backing-store (swap disk) access latency for one page (us). */
    double swapPageUs = 12000.0;

    /** Data-disk access latency (seek + rotation) per request (us). */
    double diskAccessUs = 9000.0;

    // ------------------------------------ traditional DMA baseline costs
    /** Per-page virtual->physical translate + permission check. */
    std::uint32_t dmaTranslateInstrPerPage = 150;

    /** Per-page pin (and the matching unpin) page-table updates. */
    std::uint32_t dmaPinInstrPerPage = 250;
    std::uint32_t dmaUnpinInstrPerPage = 150;

    /** DMA descriptor construction. */
    std::uint32_t dmaDescriptorInstr = 100;

    /** Completion interrupt service (dispatch + handler + return). */
    std::uint32_t dmaInterruptInstr = 400;

    /** Copy cost for bounce-buffer mode (instructions per word moved). */
    double dmaCopyInstrPerWord = 1.5;

    // -------------------------------------------------- derived helpers
    /** One CPU cycle in ticks. */
    Tick
    cpuCycle() const
    {
        return Tick(double(tickSec) / cpuFreqHz);
    }

    /** Ticks to retire @p n instructions. */
    Tick
    instrTicks(double n) const
    {
        return Tick(n * cyclesPerInstr * double(cpuCycle()));
    }

    /** Ticks for an uncached memory reference. */
    Tick memAccess() const { return Tick(memAccessNs * tickNs); }

    /** Ticks for an uncached I/O-space reference. */
    Tick ioAccess() const { return Tick(ioAccessNs * tickNs); }

    /** Ticks to move @p bytes in EISA burst mode. */
    Tick
    eisaBurst(std::uint64_t bytes) const
    {
        return Tick(double(bytes) / eisaBurstBytesPerSec
                    * double(tickSec));
    }

    /** Ticks to move @p bytes across one backplane link. */
    Tick
    linkTransfer(std::uint64_t bytes) const
    {
        return Tick(double(bytes) / linkBytesPerSec * double(tickSec));
    }

    Tick dmaStart() const { return Tick(dmaStartNs * tickNs); }
    Tick niptLookup() const { return Tick(niptLookupNs * tickNs); }
    Tick rxDmaStart() const { return Tick(rxDmaStartNs * tickNs); }
    Tick autoCombineWindow() const
    {
        return Tick(autoCombineWindowNs * tickNs);
    }
    Tick rxCompletion() const { return Tick(rxCompletionNs * tickNs); }
    Tick niRetryTimeout() const
    {
        return Tick(niRetryTimeoutUs * tickUs);
    }
    Tick niRetryTimeoutMax() const
    {
        return Tick(niRetryTimeoutMaxUs * tickUs);
    }
    Tick niRtoMin() const { return Tick(niRtoMinUs * tickUs); }
    Tick linkLatency() const { return Tick(linkLatencyNs * tickNs); }
    Tick quantum() const { return Tick(quantumUs * tickUs); }
    Tick swapPage() const { return Tick(swapPageUs * tickUs); }
    Tick diskAccess() const { return Tick(diskAccessUs * tickUs); }
    Tick eisaWord() const { return Tick(eisaWordNs * tickNs); }
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_PARAMS_HH
