#include "baseline/fifo_nic.hh"

namespace shrimp::baseline
{

FifoNic::FifoNic(sim::EventQueue &eq, const sim::MachineParams &params,
                 NodeId node, bus::IoBus &io_bus, FifoFabric &fabric,
                 unsigned device_index, std::uint32_t page_bytes)
    : eq_(eq), params_(params), node_(node), fabric_(fabric),
      deviceIndex_(device_index), pageBytes_(page_bytes)
{
    io_bus.attach(device_index, this);
    fabric.attach(node, this);
}

std::uint64_t
FifoNic::proxyLoad(const vm::Decoded &decoded, Addr paddr)
{
    (void)paddr;
    if (decoded.space != vm::Space::DevProxy)
        return 0; // the FIFO NIC has no memory proxy semantics
    if (decoded.offset >= pageBytes_)
        return 0; // loads from the TX window are meaningless

    switch (decoded.offset) {
      case regTxSpace:
        return fifoWords() - txFifo_.size();
      case regRxAvail:
        return rxFifo_.size();
      case regRxData: {
        if (rxFifo_.empty())
            return 0;
        std::uint64_t w = rxFifo_.front();
        rxFifo_.pop_front();
        ++rxWordsStat_;
        return w;
      }
      default:
        return 0;
    }
}

void
FifoNic::proxyStore(const vm::Decoded &decoded, Addr paddr,
                    std::int64_t value)
{
    (void)paddr;
    if (decoded.space != vm::Space::DevProxy)
        return;
    if (decoded.offset < pageBytes_) {
        // Control page.
        if (decoded.offset == regDestNode)
            destNode_ = NodeId(value);
        return;
    }
    // TX data window: enqueue one word. A store into a full FIFO is
    // dropped (and counted); correct software checks TX_SPACE first.
    if (txFifo_.size() >= fifoWords()) {
        ++txOverflows_;
        return;
    }
    txFifo_.push_back(std::uint64_t(value));
    ++txWordsStat_;
    pump();
}

std::uint32_t
FifoNic::rxFifoFree() const
{
    return fifoWords() - std::uint32_t(rxFifo_.size());
}

bool
FifoNic::rxDeliver(std::uint64_t word)
{
    if (rxFifo_.size() >= fifoWords())
        return false;
    rxFifo_.push_back(word);
    return true;
}

void
FifoNic::pump()
{
    if (pumpBusy_ || txFifo_.empty())
        return;
    FifoNic *peer = fabric_.nic(destNode_);
    // Drain up to 8 words per wire transaction.
    std::uint32_t n = std::uint32_t(
        std::min<std::size_t>({txFifo_.size(), 8, peer->rxFifoFree()}));
    if (n == 0) {
        // Receiver full: poll again after a hop delay.
        pumpBusy_ = true;
        eq_.scheduleIn(fabric_.hopLatency(), "fifonic.retry", [this] {
            pumpBusy_ = false;
            pump();
        });
        return;
    }
    std::vector<std::uint64_t> words(txFifo_.begin(),
                                     txFifo_.begin() + n);
    txFifo_.erase(txFifo_.begin(), txFifo_.begin() + n);
    Tick injected = fabric_.acquireLink(node_, n * 8ull, eq_.now());
    Tick arrival = injected + fabric_.routeLatency(node_, destNode_);
    pumpBusy_ = true;
    // With several senders the credit check can be stale by arrival
    // time; undelivered words wait at the ejection port and retry.
    struct Delivery
    {
        static void
        run(sim::EventQueue &eq, FifoNic *peer,
            std::vector<std::uint64_t> words, std::size_t idx)
        {
            while (idx < words.size() && peer->rxDeliver(words[idx]))
                ++idx;
            if (idx < words.size()) {
                eq.scheduleIn(
                    peer->fabric_.hopLatency(), "fifonic.redeliver",
                    [&eq, peer, words = std::move(words), idx]() mutable {
                        run(eq, peer, std::move(words), idx);
                    },
                    sim::EventPriority::DeviceCompletion);
            }
        }
    };
    eq_.schedule(arrival, "fifonic.deliver",
                 [this, peer, words = std::move(words)]() mutable {
                     Delivery::run(eq_, peer, std::move(words), 0);
                 },
                 sim::EventPriority::DeviceCompletion);
    eq_.schedule(injected, "fifonic.pump", [this] {
        pumpBusy_ = false;
        pump();
    });
}

} // namespace shrimp::baseline
