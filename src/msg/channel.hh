/**
 * @file
 * User-level message passing over UDMA (paper Section 8: "The network
 * interface supports efficient, protected, user-level message passing
 * based on the UDMA mechanism").
 *
 * A Channel is a one-way, single-producer/single-consumer ring of
 * fixed-size slots living in the *receiver's* exported memory:
 *
 *   slot i: [ payload (slotBytes-16) ][ len : 8 ][ seq : 8 ]
 *
 * The sender deliberately-updates the payload first and the header
 * last, so the receiver's poll on the seq word cannot observe a
 * partially-arrived message (the NI delivers a transfer's bytes in
 * order). Flow control runs the other way on SHRIMP's *other*
 * mechanism: the receiver's consumed-count is bound by automatic
 * update to a credit word in the sender's memory, so acknowledging
 * costs the receiver one ordinary store.
 *
 * Everything after the one-time setup is user-level: no syscalls on
 * the send or receive path.
 */

#ifndef SHRIMP_MSG_CHANNEL_HH
#define SHRIMP_MSG_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "os/user_context.hh"
#include "shrimp/network_interface.hh"
#include "sim/coro.hh"

namespace shrimp::msg
{

/**
 * Host-side rendezvous for channel setup. In a real system this is a
 * name service; here the two processes share the object out of band
 * (setup only — never on the data path).
 */
struct ChannelRendezvous
{
    /** Geometry (set by the creator before either side starts). */
    std::uint32_t slotBytes = 4096;
    std::uint32_t slots = 8;

    /** Receiver -> sender: the exported ring pages. */
    std::vector<Addr> dataPages;
    bool dataExported = false;

    /** Sender -> receiver: the physical page of the credit word. */
    Addr creditPagePaddr = 0;
    bool creditExported = false;

    std::uint32_t payloadCapacity() const { return slotBytes - 16; }
    std::uint64_t ringBytes() const
    {
        return std::uint64_t(slotBytes) * slots;
    }
};

/** The sending end. Construct inside the sender process's coroutine. */
class SenderChannel
{
  public:
    SenderChannel(os::UserContext &ctx, unsigned ni_device,
                  net::NetworkInterface &ni, NodeId peer)
        : ctx_(ctx), dev_(ni_device), ni_(ni), peer_(peer)
    {}

    /**
     * Complete the handshake: export the credit word, wait for the
     * receiver's ring, map it. Spins (simulated) while waiting.
     * @return false on mapping failure.
     */
    sim::Task<bool> connect(ChannelRendezvous &rv);

    /**
     * Send one message of @p len bytes from user memory at @p src_va.
     * Blocks (spinning on the credit word) while the ring is full.
     * @return false if len exceeds the slot payload capacity.
     */
    sim::Task<bool> send(Addr src_va, std::uint32_t len);

    std::uint64_t messagesSent() const { return seq_; }

    /** Messages in flight (unacknowledged). */
    sim::Task<std::uint64_t> unacked();

  private:
    os::UserContext &ctx_;
    unsigned dev_;
    net::NetworkInterface &ni_;
    NodeId peer_;

    std::uint32_t slotBytes_ = 0;
    std::uint32_t slots_ = 0;
    Addr ringProxy_ = 0;  ///< proxy va of slot 0 on the sender
    Addr headerBuf_ = 0;  ///< 16-byte staging buffer (user memory)
    Addr creditVa_ = 0;   ///< local word the receiver auto-updates
    std::uint64_t seq_ = 0;
};

/** The receiving end. Construct inside the receiver's coroutine. */
class ReceiverChannel
{
  public:
    ReceiverChannel(os::UserContext &ctx, unsigned ni_device,
                    net::NetworkInterface &ni, NodeId peer)
        : ctx_(ctx), dev_(ni_device), ni_(ni), peer_(peer)
    {}

    /**
     * Allocate and export the ring, wait for the sender's credit
     * word, and bind the automatic-update acknowledgment path.
     */
    sim::Task<bool> bind(ChannelRendezvous &rv);

    /**
     * Receive one message: poll the next slot, copy the payload into
     * @p dst_va (up to @p max_len), acknowledge, return the length.
     */
    sim::Task<std::uint32_t> recv(Addr dst_va, std::uint32_t max_len);

    /**
     * Zero-copy variant: wait for the next message and return the
     * ring address of its payload (valid until the next ackLast()).
     */
    sim::Task<Addr> recvZeroCopy(std::uint32_t &len_out);

    /** Acknowledge the message returned by recvZeroCopy. */
    sim::Task<std::uint64_t> ackLast();

  private:
    os::UserContext &ctx_;
    unsigned dev_;
    net::NetworkInterface &ni_;
    NodeId peer_;

    std::uint32_t slotBytes_ = 0;
    std::uint32_t slots_ = 0;
    Addr ringVa_ = 0;
    Addr creditMirror_ = 0; ///< local page bound by automatic update
    std::uint64_t rseq_ = 0;
};

} // namespace shrimp::msg

#endif // SHRIMP_MSG_CHANNEL_HH
