#include "baseline/fifo_nic.hh"

#include <algorithm>

#include "sim/sharded.hh"

namespace shrimp::baseline
{

FifoNic::FifoNic(sim::EventQueue &eq, sim::NodeRouter &router,
                 const sim::MachineParams &params, NodeId node,
                 bus::IoBus &io_bus, FifoFabric &fabric,
                 unsigned device_index, std::uint32_t page_bytes)
    : eq_(eq), router_(router), params_(params), node_(node),
      fabric_(fabric), deviceIndex_(device_index),
      pageBytes_(page_bytes), credits_(fabric.nodeCount(), fifoWords())
{
    io_bus.attach(device_index, this);
    fabric.attach(node, this);
}

std::uint64_t
FifoNic::proxyLoad(const vm::Decoded &decoded, Addr)
{
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
        const RxWord w = rxFifo_.front();
        rxFifo_.pop_front();
        ++rxWordsStat_;
        // The popped slot goes back to its sender as one credit.
        FifoNic *sender = fabric_.nic(w.src);
        router_.post(
            node_, w.src,
            eq_.now() + fabric_.minDeliveryLatency(node_, w.src),
            "fifonic.credit",
            [sender, from = node_] {
                ++sender->credits_[from];
                sender->pump();
            },
            sim::EventPriority::DeviceCompletion);
        return w.word;
      }
      default:
        return 0;
    }
}

void
FifoNic::proxyStore(const vm::Decoded &decoded, Addr,
                    std::int64_t value)
{
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

void
FifoNic::pump()
{
    if (pumpBusy_ || txFifo_.empty())
        return;
    FifoNic *peer = fabric_.nic(destNode_);
    // Drain up to 8 words per wire transaction, as far as the peer's
    // credits reach; with none left, the next credit restarts the pump.
    const std::uint32_t n = std::uint32_t(
        std::min<std::size_t>({txFifo_.size(), 8, credits_[destNode_]}));
    if (n == 0)
        return;
    credits_[destNode_] -= n;
    std::vector<std::uint64_t> words(txFifo_.begin(),
                                     txFifo_.begin() + n);
    txFifo_.erase(txFifo_.begin(), txFifo_.begin() + n);
    linkFreeAt_ = std::max(eq_.now(), linkFreeAt_)
                  + params_.linkTransfer(n * 8ull);
    pumpBusy_ = true;
    router_.post(
        node_, destNode_, linkFreeAt_ + fabric_.routeLatency(node_, destNode_),
        "fifonic.deliver",
        [peer, src = node_, words = std::move(words)]() mutable {
            peer->land(src, std::move(words), 0);
        },
        sim::EventPriority::DeviceCompletion);
    eq_.schedule(linkFreeAt_, "fifonic.pump", [this] {
        pumpBusy_ = false;
        pump();
    });
}

void
FifoNic::land(NodeId src, std::vector<std::uint64_t> words,
              std::size_t idx)
{
    while (idx < words.size() && rxFifo_.size() < fifoWords())
        rxFifo_.push_back({words[idx++], src});
    if (idx == words.size())
        return;
    // Several senders' credits can oversubscribe the FIFO: the rest
    // waits at the ejection port and retries.
    eq_.scheduleIn(
        params_.linkLatency(), "fifonic.redeliver",
        [this, src, words = std::move(words), idx]() mutable {
            land(src, std::move(words), idx);
        },
        sim::EventPriority::DeviceCompletion);
}

} // namespace shrimp::baseline
