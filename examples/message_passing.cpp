/**
 * @file
 * Two-node SHRIMP message passing with deliberate update (paper
 * Section 8): a ping-pong latency measurement followed by a one-way
 * bandwidth run, all driven from user level.
 *
 * The receive buffers are exported and mapped through the NIPT once
 * (the out-of-band control plane); after that, every message is just
 * the two-reference UDMA initiation — no kernel involvement.
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** A node's exported receive window, handed to its peer through host
 *  memory. The flags are read across nodes, so main() runs the
 *  rendezvous under runSetup until both peers have imported. */
struct Mailbox
{
    std::vector<Addr> pages;
    Addr va = 0;
    bool ready = false;
    bool imported = false;
};

} // namespace

int
main(int argc, char **argv)
{
    auto runOpts = core::parseRunOptions(argc, argv);
    if (!runOpts.ok)
        return 2;

    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 8 << 20;
    cfg.node.devices.push_back(DeviceConfig{}); // ShrimpNi, UDMA
    System sys(cfg);

    auto &a = sys.node(0);
    auto &b = sys.node(1);

    Mailbox box_a, box_b; // receive windows on each node
    constexpr unsigned pingPongs = 32;
    constexpr std::uint64_t bwBytes = 256 << 10;
    constexpr std::uint32_t pb = 4096;

    // Node A: initiator. Ping-pongs a 64-byte message, then streams
    // bwBytes to B.
    a.kernel().spawn("node-a", [&](os::UserContext &ctx)
                                   -> sim::ProcTask {
        Addr rx = co_await ctx.sysAllocMemory(pb);
        box_a.va = rx;
        box_a.pages = co_await sysExportRange(ctx, rx, pb);
        box_a.ready = true;
        Addr tx = co_await ctx.sysAllocMemory(pb);
        while (!box_b.ready)
            co_await ctx.compute(500);
        box_b.imported = true;
        Addr remote = co_await sysMapRemoteRange(ctx, 0, *a.ni(),
                                                 b.id(), box_b.pages);

        // Ping-pong: write a sequence number, wait for the echo.
        Tick t0 = ctx.kernel().eq().now();
        for (std::uint64_t i = 1; i <= pingPongs; ++i) {
            co_await ctx.store(tx, i);
            co_await ctx.store(tx + 56, i); // completion sentinel
            co_await udmaTransfer(ctx, 0, remote, tx, 64, true);
            co_await pollWord(ctx, rx + 56, i); // wait for the echo
        }
        Tick t1 = ctx.kernel().eq().now();
        std::printf("ping-pong: %u round trips, %.2f us each\n",
                    pingPongs, ticksToUs(t1 - t0) / pingPongs);

        // Bandwidth: stream a large buffer one page at a time through
        // the one mapped remote page (ring of size 1 for simplicity).
        Addr big = co_await ctx.sysAllocMemory(bwBytes);
        for (Addr off = 0; off < bwBytes; off += pb)
            co_await ctx.store(big + off, off);
        Tick t2 = ctx.kernel().eq().now();
        for (Addr off = 0; off < bwBytes; off += pb)
            co_await udmaTransfer(ctx, 0, remote, big + off, pb, true);
        Tick t3 = ctx.kernel().eq().now();
        double us = ticksToUs(t3 - t2);
        std::printf("bandwidth: %llu KB in %.0f us = %.2f MB/s\n",
                    (unsigned long long)(bwBytes >> 10), us,
                    double(bwBytes) / us * 1e6 / (1 << 20));
        // Tell B we are done (sentinel in the first word).
        co_await ctx.store(tx, ~0ull);
        co_await ctx.store(tx + 56, ~0ull);
        co_await udmaTransfer(ctx, 0, remote, tx, 64, true);
    });

    // Node B: echo server.
    b.kernel().spawn("node-b", [&](os::UserContext &ctx)
                                   -> sim::ProcTask {
        Addr rx = co_await ctx.sysAllocMemory(pb);
        box_b.va = rx;
        box_b.pages = co_await sysExportRange(ctx, rx, pb);
        box_b.ready = true;
        Addr tx = co_await ctx.sysAllocMemory(pb);
        while (!box_a.ready)
            co_await ctx.compute(500);
        box_a.imported = true;
        Addr remote = co_await sysMapRemoteRange(ctx, 0, *b.ni(),
                                                 a.id(), box_a.pages);

        for (std::uint64_t i = 1;; ++i) {
            // Wait for round i's sentinel or the final "done" marker.
            std::uint64_t w;
            do {
                w = co_await ctx.load(rx + 56);
            } while (w != i && w != ~0ull);
            std::uint64_t word = co_await ctx.load(rx);
            if (w == ~0ull || word == ~0ull)
                break; // A finished the bandwidth phase
            // Echo the sequence number back.
            co_await ctx.store(tx, word);
            co_await ctx.store(tx + 56, i);
            co_await udmaTransfer(ctx, 0, remote, tx, 64, true);
        }
        std::printf("node B: echo server done, %llu messages "
                    "delivered to B in total\n",
                    (unsigned long long)b.ni()->messagesDelivered());
    });

    sys.runSetup([&] { return box_a.imported && box_b.imported; },
                 Tick(120) * tickSec);
    sys.runUntilAllDone(Tick(120) * tickSec);
    sys.run();
    std::printf("network: %llu bytes routed over the backplane\n",
                (unsigned long long)sys.net().bytesRouted());
    core::writeStatsJson(sys, runOpts);
    return 0;
}
