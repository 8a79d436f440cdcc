/**
 * @file
 * A block storage device as a UDMA device.
 *
 * The paper: "If the device is a disk, a device address might name a
 * block." Device proxy offset = byte offset into the disk; a block is
 * one page. Reads (device->memory) exercise the I3 content-consistency
 * invariant: the destination memory page must be dirty before the
 * proxy STORE that names it succeeds.
 *
 * Timing: a per-request seek+rotation latency is charged through
 * startLatency(); the media transfer itself is modelled as
 * speed-matched to the I/O bus through the drive's track buffer.
 */

#ifndef SHRIMP_DEV_DISK_HH
#define SHRIMP_DEV_DISK_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "dma/status.hh"
#include "dma/udma_device.hh"
#include "sim/logging.hh"
#include "sim/params.hh"

namespace shrimp::dev
{

/** A simple fixed-latency disk. */
class Disk : public dma::UdmaDevice
{
  public:
    Disk(const sim::MachineParams &params, std::uint64_t capacity_bytes,
         std::uint32_t block_bytes = 4096)
        : params_(params), blockBytes_(block_bytes),
          image_(capacity_bytes, 0)
    {
        if (capacity_bytes % block_bytes != 0)
            fatal("disk capacity not a multiple of the block size");
    }

    std::uint64_t capacity() const { return image_.size(); }

    /** Host-side image access for tests/examples. */
    void
    writeImage(std::uint64_t offset, const void *src, std::uint64_t len)
    {
        SHRIMP_ASSERT(offset + len <= image_.size(), "image overrun");
        std::memcpy(&image_[offset], src, len);
    }

    void
    readImage(std::uint64_t offset, void *dst, std::uint64_t len) const
    {
        SHRIMP_ASSERT(offset + len <= image_.size(), "image overrun");
        std::memcpy(dst, &image_[offset], len);
    }

    std::string deviceName() const override { return "disk"; }

    std::uint8_t
    validateTransfer(bool to_device, Addr dev_offset,
                     std::uint32_t nbytes) override
    {
        (void)to_device;
        if (dev_offset % 4 != 0 || nbytes % 4 != 0)
            return dma::device_error::alignment;
        if (dev_offset + nbytes > image_.size())
            return dma::device_error::range;
        return dma::device_error::none;
    }

    std::uint64_t
    deviceBoundary(Addr dev_offset) const override
    {
        // Transfers do not cross a block boundary.
        if (dev_offset >= image_.size())
            return 1;
        return blockBytes_ - dev_offset % blockBytes_;
    }

    Tick
    startLatency(bool to_device, Addr dev_offset) const override
    {
        (void)to_device;
        (void)dev_offset;
        return params_.diskAccess(); // seek + rotation
    }

    std::uint32_t
    pushCapacity(Addr dev_offset, std::uint32_t want) override
    {
        (void)dev_offset;
        return want;
    }

    void
    devicePush(Addr dev_offset, const std::uint8_t *data,
               std::uint32_t len) override
    {
        SHRIMP_ASSERT(dev_offset + len <= image_.size(), "write overrun");
        std::memcpy(&image_[dev_offset], data, len);
        ++writes_;
    }

    std::uint32_t
    pullAvailable(Addr dev_offset, std::uint32_t want) override
    {
        (void)dev_offset;
        return want;
    }

    void
    devicePull(Addr dev_offset, std::uint8_t *out,
               std::uint32_t len) override
    {
        SHRIMP_ASSERT(dev_offset + len <= image_.size(), "read overrun");
        std::memcpy(out, &image_[dev_offset], len);
        ++reads_;
    }

    void
    setEngineWakeup(std::function<void()> wakeup) override
    {
        (void)wakeup; // the track buffer never stalls the engine
    }

    std::uint64_t proxyExtentBytes() const override
    {
        return image_.size();
    }

    std::uint64_t blockReads() const { return reads_; }
    std::uint64_t blockWrites() const { return writes_; }

  private:
    const sim::MachineParams &params_;
    std::uint32_t blockBytes_;
    std::vector<std::uint8_t> image_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace shrimp::dev

#endif // SHRIMP_DEV_DISK_HH
