#include "core/udma_lib.hh"

#include <algorithm>

#include "os/kernel.hh"

namespace shrimp::core
{

sim::Task<dma::Status>
udmaInitiate(os::UserContext &ctx, Addr dest_proxy_va, Addr src_proxy_va,
             std::uint32_t nbytes)
{
    // The SHRIMP library's alignment / page-boundary check around the
    // two-reference sequence (Section 8: initiation "includes the time
    // to perform the two-instruction initiation sequence and check
    // data alignment with regard to page boundaries").
    co_await ctx.compute(ctx.kernel().params().udmaInitiateSoftwareInstr);
    co_await ctx.store(dest_proxy_va, nbytes);
    std::uint64_t w = co_await ctx.load(src_proxy_va);
    co_return dma::Status::unpack(w);
}

sim::Task<dma::Status>
udmaStart(os::UserContext &ctx, Addr dest_proxy_va, Addr src_proxy_va,
          std::uint32_t nbytes)
{
    for (;;) {
        dma::Status st = co_await udmaInitiate(ctx, dest_proxy_va,
                                               src_proxy_va, nbytes);
        if (!st.initiationFailed)
            co_return st;
        // Real errors are returned to the caller: a BadLoad
        // (WRONG-SPACE) or any device error other than a momentarily
        // full Section 7 queue.
        bool real_error =
            st.wrongSpace
            || (st.deviceError != 0
                && st.deviceError != dma::device_error::queueFull);
        if (real_error)
            co_return st;
        // Otherwise the engine was busy, a context-switch Inval wiped
        // our STORE, or the queue was full — "the user process may
        // want to re-try its two-instruction transfer initiation
        // sequence" (Section 5).
    }
}

sim::Task<std::uint64_t>
udmaWait(os::UserContext &ctx, Addr src_proxy_va)
{
    std::uint64_t polls = 0;
    for (;;) {
        std::uint64_t w = co_await ctx.load(src_proxy_va);
        ++polls;
        if (!dma::loadSaysInFlight(w))
            co_return polls;
    }
}

namespace
{

/** Shared splitter for both directions. */
sim::Task<std::uint64_t>
transferLoop(os::UserContext &ctx, unsigned device, Addr mem_va,
             Addr other_proxy_va, std::uint64_t nbytes, bool to_device,
             bool wait_completion, Addr *last_src_proxy_out = nullptr)
{
    std::uint64_t transfers = 0;
    const std::uint32_t pb = ctx.pageBytes();
    Addr last_src_proxy = 0;
    while (nbytes > 0) {
        std::uint64_t chunk =
            std::min({nbytes, std::uint64_t(pb - mem_va % pb),
                      std::uint64_t(pb - other_proxy_va % pb)});
        Addr mem_proxy = ctx.proxyAddr(mem_va, device);
        Addr dest = to_device ? other_proxy_va : mem_proxy;
        Addr src = to_device ? mem_proxy : other_proxy_va;
        dma::Status st =
            co_await udmaStart(ctx, dest, src, std::uint32_t(chunk));
        if (st.initiationFailed || st.remainingBytes == 0) {
            fatal("udmaTransfer: device refused the transfer "
                  "(device error byte ",
                  unsigned(st.deviceError), ")");
        }
        std::uint32_t started = st.remainingBytes;
        mem_va += started;
        other_proxy_va += started;
        nbytes -= started;
        last_src_proxy = src;
        ++transfers;
    }
    if (last_src_proxy_out)
        *last_src_proxy_out = last_src_proxy;
    if (wait_completion && transfers > 0)
        co_await udmaWait(ctx, last_src_proxy);
    co_return transfers;
}

} // namespace

sim::Task<std::uint64_t>
udmaTransfer(os::UserContext &ctx, unsigned device, Addr dest_proxy_va,
             Addr src_va, std::uint64_t nbytes, bool wait_completion,
             Addr *last_src_proxy_out)
{
    return transferLoop(ctx, device, src_va, dest_proxy_va, nbytes,
                        true, wait_completion, last_src_proxy_out);
}

sim::Task<std::uint64_t>
udmaTransferFromDevice(os::UserContext &ctx, unsigned device,
                       Addr dst_va, Addr src_dev_proxy_va,
                       std::uint64_t nbytes, bool wait_completion)
{
    return transferLoop(ctx, device, dst_va, src_dev_proxy_va, nbytes,
                        false, wait_completion);
}

sim::Task<std::uint64_t>
udmaGather(os::UserContext &ctx, unsigned device, Addr dest_proxy_va,
           std::vector<GatherPiece> pieces, bool wait_completion)
{
    std::uint64_t transfers = 0;
    Addr last_src_proxy = 0;
    for (const auto &piece : pieces) {
        if (piece.len == 0)
            continue;
        // Each piece is itself page-split; no waiting between pieces
        // (the hardware queue absorbs them when present).
        transfers += co_await udmaTransfer(
            ctx, device, dest_proxy_va, piece.va, piece.len,
            /*wait_completion=*/false, &last_src_proxy);
        dest_proxy_va += piece.len;
    }
    if (wait_completion && transfers > 0)
        co_await udmaWait(ctx, last_src_proxy);
    co_return transfers;
}

sim::Task<std::uint64_t>
pollWord(os::UserContext &ctx, Addr va, std::uint64_t expected)
{
    std::uint64_t polls = 0;
    for (;;) {
        std::uint64_t w = co_await ctx.load(va);
        ++polls;
        if (w == expected)
            co_return polls;
    }
}

sim::Task<std::vector<Addr>>
sysExportRange(os::UserContext &ctx, Addr va, std::uint64_t bytes)
{
    SHRIMP_ASSERT(bytes > 0, "empty export");
    std::vector<Addr> pages;
    const std::uint32_t pb = ctx.pageBytes();
    Addr first = va - va % pb;
    Addr last = (va + bytes - 1) / pb * pb;
    for (Addr p = first; p <= last; p += pb) {
        std::uint64_t paddr = co_await ctx.syscall(
            [p](os::Kernel &k, os::Process &proc,
                os::SyscallControl &sc) {
                Tick lat = k.params().instrTicks(150);
                Addr pa = 0;
                sc.result = k.exportPage(proc, p, pa, lat)
                                ? pa
                                : ~std::uint64_t(0);
                sc.extraLatency = lat;
            });
        if (paddr == ~std::uint64_t(0))
            fatal("sysExportRange: export refused at va=", p);
        pages.push_back(paddr);
    }
    co_return pages;
}

sim::Task<Addr>
sysMapRemoteRange(os::UserContext &ctx, unsigned device,
                  net::NetworkInterface &ni, NodeId dst_node,
                  std::vector<Addr> dst_phys_pages)
{
    // The syscall body runs synchronously at issue time, so capturing
    // the parameter by reference is safe (and sidesteps a GCC 12
    // miscompile of move-captures inside co_await full-expressions).
    const std::vector<Addr> &pages = dst_phys_pages;
    std::function<void(os::Kernel &, os::Process &, os::SyscallControl &)>
        body = [&ni, device, dst_node, &pages](os::Kernel &k,
                                               os::Process &p,
                                               os::SyscallControl &sc) {
            sc.result = 0;
            if (pages.empty())
                return;
            std::size_t first = ni.nipt().allocateRun(pages.size());
            if (first == net::Nipt::numEntries)
                return;
            std::uint32_t pb = k.layout().pageBytes();
            for (std::size_t i = 0; i < pages.size(); ++i)
                ni.nipt().set(first + i, dst_node, pages[i] / pb);
            Tick lat =
                k.params().instrTicks(100.0 * double(pages.size()));
            sc.result = k.mapDeviceProxy(p, device, first,
                                         pages.size(), true, lat);
            sc.extraLatency = lat;
        };
    std::uint64_t base = co_await ctx.syscall(std::move(body));
    co_return Addr(base);
}

sim::Task<bool>
sysMapAutoUpdate(os::UserContext &ctx, net::NetworkInterface &ni,
                 Addr local_va, NodeId dst_node, Addr dst_phys_page)
{
    std::function<void(os::Kernel &, os::Process &, os::SyscallControl &)>
        body = [&ni, local_va, dst_node, dst_phys_page](
                   os::Kernel &k, os::Process &p,
                   os::SyscallControl &sc) {
            // Automatic update relies on a fixed source-destination
            // binding: pin the local page so its frame cannot move.
            Tick lat = k.params().instrTicks(200);
            Addr paddr = 0;
            if (!k.exportPage(p, local_va, paddr, lat)) {
                sc.result = 0;
                sc.extraLatency = lat;
                return;
            }
            Addr page_base = paddr - paddr % k.layout().pageBytes();
            ni.mapAutoUpdate(page_base, dst_node,
                             dst_phys_page / k.layout().pageBytes());
            // The binding names the frame, which exit frees: revoke it
            // first, or the frame's next owner's stores would leave.
            p.onRelease([&ni, page_base] { ni.unmapAutoUpdate(page_base); });
            sc.result = 1;
            sc.extraLatency = lat;
        };
    std::uint64_t ok = co_await ctx.syscall(std::move(body));
    co_return ok != 0;
}

} // namespace shrimp::core
