/**
 * @file
 * Unit tests for the public System/Node builders.
 */

#include <gtest/gtest.h>

#include "../support/resident.hh"
#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;

TEST(System, BuildsRequestedTopology)
{
    SystemConfig cfg;
    cfg.nodes = 3;
    cfg.node.memBytes = 1 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);
    EXPECT_EQ(sys.nodeCount(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(sys.node(i).id(), i);
        EXPECT_NE(sys.node(i).ni(), nullptr);
        EXPECT_TRUE(sys.net().hasNode(i));
        EXPECT_EQ(sys.node(i).memory().size(), 1u << 20);
    }
}

TEST(System, LargeRingCommitsOnlyTouchedMemory)
{
    // The ring64 benchmark machine: 64 nodes of 8 MiB, an NI each.
    SystemConfig cfg;
    cfg.nodes = 64;
    cfg.shards = 4;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    const std::uint64_t before = test::residentBytes();
    System sys(cfg);
    EXPECT_LT(test::residentGrowth(before), std::uint64_t(64) << 20)
        << "64 x (8 MiB of DRAM + a 512 KiB NIPT) are committed";
    EXPECT_EQ(sys.node(63).memory().size(), std::uint64_t(8) << 20);
    EXPECT_NE(sys.node(63).ni(), nullptr);
}

TEST(System, ZeroNodesIsFatal)
{
    SystemConfig cfg;
    cfg.nodes = 0;
    EXPECT_THROW(System sys(cfg), FatalError);
}

TEST(System, MultipleDevicesPerNode)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    DeviceConfig ni;
    ni.kind = DeviceKind::ShrimpNi;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    DeviceConfig disk;
    disk.kind = DeviceKind::Disk;
    cfg.node.devices = {ni, fb, disk};
    System sys(cfg);
    auto &n = sys.node(0);
    EXPECT_NE(n.ni(), nullptr);
    EXPECT_NE(n.frameBuffer(), nullptr);
    EXPECT_NE(n.disk(), nullptr);
    EXPECT_EQ(n.deviceIndexOf(DeviceKind::ShrimpNi), 0);
    EXPECT_EQ(n.deviceIndexOf(DeviceKind::FrameBuffer), 1);
    EXPECT_EQ(n.deviceIndexOf(DeviceKind::Disk), 2);
    EXPECT_EQ(n.deviceIndexOf(DeviceKind::FifoNic), -1);
    // Each slot has its own UDMA controller.
    EXPECT_NE(n.controller(0), nullptr);
    EXPECT_NE(n.controller(1), nullptr);
    EXPECT_NE(n.controller(2), nullptr);
    EXPECT_EQ(n.controller(1)->deviceIndex(), 1u);
    EXPECT_EQ(n.kernel().controllers().size(), 3u);
}

TEST(System, TraditionalSlotHasDriverNotController)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    DeviceConfig d;
    d.kind = DeviceKind::StreamSink;
    d.driver = DriverKind::Traditional;
    cfg.node.devices.push_back(d);
    System sys(cfg);
    EXPECT_EQ(sys.node(0).controller(0), nullptr);
    EXPECT_NE(sys.node(0).tradDriver(0), nullptr);
}

TEST(System, QueueDepthConfigurable)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    DeviceConfig d;
    d.kind = DeviceKind::StreamSink;
    d.queueDepth = 4;
    cfg.node.devices.push_back(d);
    System sys(cfg);
    EXPECT_EQ(sys.node(0).controller(0)->queueDepth(), 4u);
}

TEST(System, RunUntilLimitStops)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    cfg.node.devices.push_back(
        DeviceConfig{DeviceKind::StreamSink, DriverKind::Udma, 0,
                     640, 480, 16 << 20, 1 << 30});
    System sys(cfg);
    sys.node(0).kernel().spawn(
        "spinner", [](os::UserContext &ctx) -> sim::ProcTask {
            for (;;)
                co_await ctx.compute(1000);
        });
    const Tick limit = 5 * tickUs * 1000; // 5 ms cap
    Tick end = sys.runUntilAllDone(limit);
    // The clock is the last fired tick: at most the limit, and no
    // further short of it than one compute step.
    EXPECT_LE(end, limit);
    EXPECT_GE(end, limit - cfg.params.instrTicks(1000));
    EXPECT_FALSE(sys.node(0).kernel().allProcessesDone());
}
