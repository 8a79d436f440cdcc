/**
 * @file
 * A long chain of Task<> helpers whose references all complete in
 * place keeps the host stack flat. This file is compiled without
 * optimisation (tests/CMakeLists.txt): GCC then does not turn Task<>'s
 * symmetric transfer into a tail call, so every helper that completes
 * without suspending nests its caller's frame one level deeper. The
 * event queue's EventHeap::maxInPlaceRun sends every such chain back
 * through the heap, which unwinds it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Lowest and highest host stack frame seen by a helper. */
struct StackSpread
{
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;

    void
    note(const void *frame)
    {
        const auto at = reinterpret_cast<std::uintptr_t>(frame);
        lo = std::min(lo, at);
        hi = std::max(hi, at);
    }
};

sim::Task<void>
oneReference(os::UserContext &ctx, StackSpread &spread)
{
    co_await ctx.compute(1);
    spread.note(__builtin_frame_address(0));
}

} // namespace

TEST(InPlaceStack, LongTaskChainKeepsTheHostStackFlat)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    System sys(cfg);
    constexpr std::uint64_t calls = 100000;
    StackSpread spread;
    sys.node(0).kernel().spawn(
        "chain", [&](os::UserContext &ctx) -> sim::ProcTask {
            for (std::uint64_t i = 0; i < calls; ++i)
                co_await oneReference(ctx, spread);
        });
    sys.runUntilAllDone();
    // The chain really ran in place (one reference in
    // maxInPlaceRun + 1 goes through the heap) ...
    EXPECT_GT(sys.engine()->firedInPlace(), calls * 9 / 10);
    // ... and the stack stays flat: 8 KiB of spread measured, one
    // 128-byte nesting per firing up to the bound. With no bound the
    // chain nests 128 bytes per call and 10^5 calls overflow an 8 MiB
    // stack.
    EXPECT_LT(spread.hi - spread.lo, std::uintptr_t(64 * 1024))
        << "spread " << spread.hi - spread.lo << " bytes";
}
