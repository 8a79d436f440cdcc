/**
 * @file
 * The node's I/O bus (EISA in the SHRIMP prototype).
 *
 * Two roles:
 *  - timing: a single shared resource; every transaction (CPU uncached
 *    I/O reference, DMA burst) occupies the bus for its duration and
 *    transactions serialize — this is what makes burst-mode DMA beat
 *    processor-generated single-word transfers for long messages
 *    (paper Section 9);
 *  - routing: physical proxy-space accesses are decoded and delivered
 *    to the owning UDMA controller.
 */

#ifndef SHRIMP_BUS_IO_BUS_HH
#define SHRIMP_BUS_IO_BUS_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace shrimp::bus
{

/**
 * Interface implemented by UDMA controllers: receives proxy-space bus
 * cycles. The controller cannot see which process issued the cycle —
 * protection came earlier, from the MMU (paper Section 4).
 */
class ProxyClient
{
  public:
    virtual ~ProxyClient() = default;

    /**
     * A LOAD bus cycle to a proxy address.
     * @param decoded The classified physical address.
     * @param paddr The full physical address.
     * @return The status word driven back on the data bus.
     */
    virtual std::uint64_t proxyLoad(const vm::Decoded &decoded,
                                    Addr paddr) = 0;

    /**
     * A STORE bus cycle to a proxy address. @p value is the stored
     * datum interpreted as a signed byte count (negative = Inval).
     */
    virtual void proxyStore(const vm::Decoded &decoded, Addr paddr,
                            std::int64_t value) = 0;
};

/** The shared I/O bus of one node. */
class IoBus
{
  public:
    IoBus(sim::EventQueue &eq, const sim::MachineParams &params)
        : eq_(eq), params_(params)
    {
        statGroup_.addScalar("bursts", &bursts_);
        statGroup_.addScalar("words", &words_);
        statGroup_.addScalar("busyTicks", &busyTicks_);
        statGroup_.addHistogram("burst_bytes", &burstBytes_);
    }

    /** Attach the proxy client for device index @p device. */
    void
    attach(unsigned device, ProxyClient *client)
    {
        if (clients_.size() <= device)
            clients_.resize(device + 1, nullptr);
        SHRIMP_ASSERT(!clients_[device], "device slot already attached");
        clients_[device] = client;
    }

    /** The client owning device index @p device (nullptr if none). */
    ProxyClient *
    client(unsigned device) const
    {
        return device < clients_.size() ? clients_[device] : nullptr;
    }

    /**
     * Occupy the bus for @p duration ticks starting no earlier than
     * now; transactions serialize. Returns the completion tick.
     */
    Tick
    acquire(Tick duration)
    {
        return acquireAt(eq_.now(), duration);
    }

    /** As acquire(), but the transaction cannot start before
     *  @p earliest (e.g. the CPU reaches the bus only then). */
    Tick
    acquireAt(Tick earliest, Tick duration)
    {
        Tick start = std::max({eq_.now(), earliest, freeAt_});
        busyTicks_ += double(duration);
        freeAt_ = start + duration;
        return freeAt_;
    }

    /** Completion tick of a burst-mode DMA transfer of @p bytes. */
    Tick
    burstTransfer(std::uint64_t bytes)
    {
        ++bursts_;
        burstBytes_.sample(double(bytes));
        return acquire(params_.eisaBurst(bytes));
    }

    /** As burstTransfer(), but starting no earlier than @p earliest
     *  (e.g. after a DMA engine's start latency). */
    Tick
    burstTransferAt(Tick earliest, std::uint64_t bytes)
    {
        ++bursts_;
        burstBytes_.sample(double(bytes));
        return acquireAt(earliest, params_.eisaBurst(bytes));
    }

    /** Completion tick of one single-word (PIO) transaction. */
    Tick
    wordTransaction()
    {
        ++words_;
        return acquire(params_.eisaWord());
    }

    /** Earliest tick at which the bus is free. */
    Tick freeAt() const { return freeAt_; }

    double busyTicks() const { return busyTicks_.value(); }
    std::uint64_t burstCount() const
    {
        return std::uint64_t(bursts_.value());
    }
    std::uint64_t wordCount() const
    {
        return std::uint64_t(words_.value());
    }

    /** The bus's registered stats ("bus.*"). */
    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    Tick freeAt_ = 0;
    std::vector<ProxyClient *> clients_;
    /** Ticks the bus was occupied. */
    stats::Scalar busyTicks_;
    /** Burst-mode (DMA) transactions. */
    stats::Scalar bursts_;
    /** Single-word (PIO) transactions. */
    stats::Scalar words_;
    /** Burst sizes in bytes: DMA chunking is visible here (256-byte
     *  chunks). */
    stats::Histogram burstBytes_{0, 4096, 16};
    stats::StatGroup statGroup_{"bus"};
};

} // namespace shrimp::bus

#endif // SHRIMP_BUS_IO_BUS_HH
