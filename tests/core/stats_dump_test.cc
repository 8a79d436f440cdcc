/**
 * @file
 * Tests for System::dumpStatsJson.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../support/mini_json.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Parse @p sys's statistics document, which has a `nodes` array,
 *  into @p doc. */
void
parseStats(System &sys, minijson::Value &doc)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    std::string err;
    ASSERT_TRUE(minijson::parse(os.str(), doc, &err)) << err;
    ASSERT_NE(doc.find("nodes"), nullptr);
}

/** Node @p i's object in the document's `nodes` array. */
const minijson::Value &
node(const minijson::Value &doc, std::size_t i)
{
    return doc.find("nodes")->array.at(i);
}

} // namespace

TEST(StatsDump, EmitsAllComponentCounters)
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);

    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
        });
    sys.runUntilAllDone();

    minijson::Value doc;
    ASSERT_NO_FATAL_FAILURE(parseStats(sys, doc));
    for (const char *key : {"sim.ticks", "sim.events", "net.bytesRouted"})
        EXPECT_NE(doc.path(key), nullptr) << "missing stat: " << key;
    ASSERT_EQ(doc.find("nodes")->array.size(), 2u);
    for (const char *key :
         {"kernel.contextSwitches", "kernel.pageFaults",
          "udma0.transfersStarted", "ni.messagesSent", "bus.bursts",
          "tlb.hits", "swap.pageWrites"}) {
        EXPECT_NE(node(doc, 0).path(key), nullptr)
            << "missing stat: node0." << key;
    }
    EXPECT_NE(node(doc, 1).path("kernel.contextSwitches"), nullptr);
}

TEST(StatsDump, ValuesReflectActivity)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    System sys(cfg);

    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 7);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await udmaTransfer(ctx, 0, win, buf, 512, true);
        });
    sys.runUntilAllDone();

    minijson::Value doc;
    ASSERT_NO_FATAL_FAILURE(parseStats(sys, doc));
    const minijson::Value *started =
        node(doc, 0).path("udma0.transfersStarted");
    ASSERT_NE(started, nullptr);
    EXPECT_EQ(started->number, 1.0);
    const minijson::Value *moved =
        node(doc, 0).path("udma0.engine.bytesMoved");
    ASSERT_NE(moved, nullptr);
    EXPECT_EQ(moved->number, 512.0);
}
