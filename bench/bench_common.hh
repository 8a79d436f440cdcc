/**
 * @file
 * Shared harness code for the reproduction benchmarks: build a
 * two-node SHRIMP system, send one message of a given size, and
 * measure user-visible bandwidth exactly as the paper does (send
 * initiation at the sender to last-byte-visible at the receiver).
 */

#ifndef SHRIMP_BENCH_BENCH_COMMON_HH
#define SHRIMP_BENCH_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/span.hh"

namespace shrimp::bench
{

/** Result of one timed message. */
struct MessageTiming
{
    std::uint64_t bytes = 0;
    Tick sendStart = 0;      ///< sender begins user-level initiation
    Tick delivered = 0;      ///< last byte + completion visible
    std::uint64_t transfers = 0;
    // Sender-side controller statistics (UDMA runs only).
    std::uint64_t statusLoads = 0;
    std::uint64_t queueRefusals = 0;

    double
    bandwidthBytesPerUs() const
    {
        Tick dt = delivered - sendStart;
        return dt == 0 ? 0.0 : double(bytes) / ticksToUs(dt);
    }

    double
    latencyUs() const
    {
        return delivered > sendStart ? ticksToUs(delivered - sendStart)
                                     : 0.0;
    }
};

/**
 * Machine-readable benchmark output (the BENCH_*.json format): name,
 * parameters, metrics, an end-to-end latency histogram, the kernel
 * invariant counters summed over every System the benchmark built,
 * and the span-registry summary. One report is active per process;
 * the time*Message helpers feed it automatically, and benchmarks that
 * build their own Systems call captureSystem() before the System
 * dies.
 *
 * Written only when the binary is invoked with `--stats-json=<path>`.
 */
class BenchReport
{
  public:
    BenchReport(std::string name, core::RunOptions opts)
        : name_(std::move(name)), opts_(std::move(opts))
    {
        active_ = this;
        // One experiment per process: start span accounting fresh.
        span::registry().clear();
    }

    ~BenchReport()
    {
        if (active_ == this)
            active_ = nullptr;
    }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    static BenchReport *active() { return active_; }

    void
    setParam(const std::string &key, const std::string &value)
    {
        params_.emplace_back(key, value);
    }

    void
    setParam(const std::string &key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", value);
        params_.emplace_back(key, buf);
    }

    void
    addMetric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    /** Sample one end-to-end message latency. */
    void recordLatencyUs(double us) { latencyUs_.sample(us); }

    void
    recordTiming(const MessageTiming &t)
    {
        if (t.delivered > t.sendStart)
            recordLatencyUs(t.latencyUs());
    }

    /**
     * Accumulate a System's invariant counters; call once per System,
     * after the run, while it is still alive.
     */
    void
    captureSystem(core::System &sys)
    {
        for (unsigned i = 0; i < sys.nodeCount(); ++i) {
            auto &k = sys.node(i).kernel();
            i1Invals_ += k.i1Invals();
            i2Shootdowns_ += k.i2Shootdowns();
            i3DirtyFaults_ += k.i3DirtyFaults();
            contextSwitches_ += k.contextSwitches();
            for (auto *c : k.controllers()) {
                transfersStarted_ += c->transfersStarted();
                statusLoads_ += c->statusLoads();
                queueRefusals_ += c->queueRefusals();
                invalsApplied_ += c->invalsApplied();
                badLoads_ += c->badLoads();
            }
            if (auto *ni = sys.node(i).ni()) {
                messagesDelivered_ += ni->messagesDelivered();
                bytesDelivered_ += ni->bytesDelivered();
                // The NI samples per-message send-enqueue -> delivery
                // sim-time latency; fold it into the report histogram
                // (exact mean/min/max, bucket shape remapped at the
                // report's geometry).
                latencyUs_.merge(ni->deliveryLatency());
            }
        }
        ++systemsCaptured_;
    }

    /**
     * Attach a shard time-budget profiler whose summary becomes the
     * report's `profile` block. The profiler must outlive write().
     */
    void
    attachProfiler(const sim::ShardProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** Write the report to the --stats-json path (no-op without one). */
    void
    write() const
    {
        if (opts_.statsJsonPath.empty())
            return;
        std::ofstream out(opts_.statsJsonPath);
        if (!out) {
            std::cerr << "cannot write " << opts_.statsJsonPath << "\n";
            return;
        }
        sim::JsonWriter w(out);
        w.beginObject();
        w.field("name", name_);
        w.key("params");
        w.beginObject();
        for (const auto &[k, v] : params_)
            w.field(k, v);
        w.endObject();
        w.key("metrics");
        w.beginObject();
        for (const auto &[k, v] : metrics_)
            w.field(k, v);
        w.endObject();
        w.key("counters");
        w.beginObject();
        w.field("i1_invals", i1Invals_);
        w.field("i2_shootdowns", i2Shootdowns_);
        w.field("i3_dirty_faults", i3DirtyFaults_);
        w.field("context_switches", contextSwitches_);
        w.field("transfers_started", transfersStarted_);
        w.field("status_loads", statusLoads_);
        w.field("queue_refusals", queueRefusals_);
        w.field("invals_applied", invalsApplied_);
        w.field("bad_loads", badLoads_);
        w.field("messages_delivered", messagesDelivered_);
        w.field("bytes_delivered", bytesDelivered_);
        w.field("systems_captured", systemsCaptured_);
        w.endObject();
        w.key("histograms");
        w.beginObject();
        stats::writeJson(w, "latency_us", latencyUs_);
        w.endObject();
        if (profiler_) {
            w.key("profile");
            profiler_->dumpJson(w);
        }
        w.key("spans");
        span::registry().dumpJson(w, /*includeSpans=*/false);
        w.endObject();
        w.finish();
    }

  private:
    inline static BenchReport *active_ = nullptr;

    std::string name_;
    core::RunOptions opts_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::pair<std::string, double>> metrics_;
    /** End-to-end message latency; 64 us buckets, overflow beyond. */
    stats::Histogram latencyUs_{0, 4096, 64};
    std::uint64_t i1Invals_ = 0;
    std::uint64_t i2Shootdowns_ = 0;
    std::uint64_t i3DirtyFaults_ = 0;
    std::uint64_t contextSwitches_ = 0;
    std::uint64_t transfersStarted_ = 0;
    std::uint64_t statusLoads_ = 0;
    std::uint64_t queueRefusals_ = 0;
    std::uint64_t invalsApplied_ = 0;
    std::uint64_t badLoads_ = 0;
    std::uint64_t messagesDelivered_ = 0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint64_t systemsCaptured_ = 0;
    const sim::ShardProfiler *profiler_ = nullptr;
};

/** Feed the active report (if any) from a finished System. */
inline void
captureSystem(core::System &sys)
{
    if (auto *r = BenchReport::active())
        r->captureSystem(sys);
}

/**
 * The receiver's exported pages, handed to the sender through host
 * memory. Both flags are read across nodes, so a bench runs under
 * System::runSetup until the sender has seen the export (`imported`);
 * the data phase that follows must read nothing of the other node.
 */
struct Rendezvous
{
    std::vector<Addr> rxPages;
    bool exported = false;
    bool imported = false;
};

/**
 * Send one @p bytes message over a fresh two-node UDMA system and
 * measure it. @p queue_depth configures the Section 7 hardware queue.
 */
inline MessageTiming
timeUdmaMessage(std::uint64_t bytes, const sim::MachineParams &params,
                std::uint32_t queue_depth = 0)
{
    core::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.params = params;
    cfg.node.memBytes = 4 << 20;
    core::DeviceConfig ni;
    ni.kind = core::DeviceKind::ShrimpNi;
    ni.queueDepth = queue_depth;
    cfg.node.devices.push_back(ni);
    core::System sys(cfg);

    MessageTiming result;
    result.bytes = bytes;

    const std::uint32_t pb = params.pageBytes;
    std::uint64_t buf_pages = (bytes + pb - 1) / pb;

    Rendezvous shared;

    auto &recv = sys.node(1);
    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(buf_pages * pb);
            shared.rxPages =
                co_await core::sysExportRange(ctx, buf, buf_pages * pb);
            shared.exported = true;
        });

    recv.ni()->setDeliveryCallback([&](const net::Delivery &d) {
        result.delivered = d.deliveredTick;
    });

    auto &send = sys.node(0);
    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(buf_pages * pb);
            // Touch (dirty) every source page up front so the send
            // loop measures the steady state, as the paper's
            // microbenchmark does.
            for (std::uint64_t p = 0; p < buf_pages; ++p)
                co_await ctx.store(buf + p * pb, 0x1234);
            while (!shared.exported)
                co_await ctx.compute(500);
            shared.imported = true;
            Addr proxy = co_await core::sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), shared.rxPages);
            // Warm the proxy mappings for the source pages (first
            // touch takes a one-time proxy fault; the paper measures
            // the steady state).
            for (std::uint64_t p = 0; p < buf_pages; ++p)
                co_await ctx.load(ctx.proxyAddr(buf + p * pb, 0));

            result.sendStart = ctx.kernel().eq().now();
            result.transfers = co_await core::udmaTransfer(
                ctx, 0, proxy, buf, bytes, /*wait_completion=*/true);
        });

    sys.runSetup([&] { return shared.imported; }, Tick(60) * tickSec);
    sys.runUntilAllDone(Tick(60) * tickSec);
    sys.run(); // drain trailing delivery events
    if (auto *ctrl = send.controller(0)) {
        result.statusLoads = ctrl->statusLoads();
        result.queueRefusals = ctrl->queueRefusals();
    }
    captureSystem(sys);
    if (auto *r = BenchReport::active())
        r->recordTiming(result);
    return result;
}

/**
 * Same measurement over the memory-mapped FIFO NIC baseline (PIO,
 * Section 9): the sender writes words to the TX window, the receiver
 * polls RX_AVAIL, pops RX_DATA, and stores each word to memory.
 */
inline MessageTiming
timePioMessage(std::uint64_t bytes, const sim::MachineParams &params)
{
    core::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.params = params;
    cfg.node.memBytes = 4 << 20;
    core::DeviceConfig nic;
    nic.kind = core::DeviceKind::FifoNic;
    cfg.node.devices.push_back(nic);
    core::System sys(cfg);

    MessageTiming result;
    result.bytes = bytes;
    const std::uint64_t words = (bytes + 7) / 8;
    bool receiver_ready = false;
    bool sender_started = false;

    auto &recv = sys.node(1);
    recv.kernel().spawn(
        "pio-recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(bytes + 8);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            receiver_ready = true;
            std::uint64_t got = 0;
            while (got < words) {
                std::uint64_t avail = co_await ctx.load(
                    win + baseline::FifoNic::regRxAvail);
                for (std::uint64_t i = 0; i < avail && got < words;
                     ++i) {
                    std::uint64_t w = co_await ctx.load(
                        win + baseline::FifoNic::regRxData);
                    co_await ctx.store(buf + got * 8, w);
                    ++got;
                }
            }
            result.delivered = ctx.kernel().eq().now();
        });

    auto &send = sys.node(0);
    send.kernel().spawn(
        "pio-send", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(bytes + 8);
            co_await ctx.store(buf, 0x1234);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            while (!receiver_ready)
                co_await ctx.compute(500);
            sender_started = true;
            result.sendStart = ctx.kernel().eq().now();
            co_await ctx.store(win + baseline::FifoNic::regDestNode,
                               recv.id());
            Addr txpage = win + ctx.pageBytes();
            std::uint64_t sent = 0;
            while (sent < words) {
                std::uint64_t space = co_await ctx.load(
                    win + baseline::FifoNic::regTxSpace);
                if (space == 0)
                    continue; // spin on the status register
                for (std::uint64_t i = 0; i < space && sent < words;
                     ++i) {
                    std::uint64_t w = co_await ctx.load(buf);
                    co_await ctx.store(txpage, w);
                    ++sent;
                }
            }
        });

    sys.runSetup([&] { return sender_started; }, Tick(120) * tickSec);
    sys.runUntilAllDone(Tick(120) * tickSec);
    captureSystem(sys);
    if (auto *r = BenchReport::active())
        r->recordTiming(result);
    return result;
}

/**
 * Same message over the SHRIMP NI but initiated through the
 * traditional kernel DMA driver (syscall + translate + pin +
 * descriptor + interrupt + unpin per page).
 */
inline MessageTiming
timeTraditionalNiMessage(std::uint64_t bytes,
                         const sim::MachineParams &params)
{
    core::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.params = params;
    cfg.node.memBytes = 4 << 20;
    core::DeviceConfig ni;
    ni.kind = core::DeviceKind::ShrimpNi;
    ni.driver = core::DriverKind::Traditional;
    cfg.node.devices.push_back(ni);
    core::System sys(cfg);

    MessageTiming result;
    result.bytes = bytes;
    const std::uint32_t pb = params.pageBytes;
    std::uint64_t buf_pages = (bytes + pb - 1) / pb;

    Rendezvous shared;

    auto &recv = sys.node(1);
    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(buf_pages * pb);
            shared.rxPages =
                co_await core::sysExportRange(ctx, buf, buf_pages * pb);
            shared.exported = true;
        });
    recv.ni()->setDeliveryCallback([&](const net::Delivery &d) {
        result.delivered = d.deliveredTick;
    });

    auto &send = sys.node(0);
    auto *driver = send.tradDriver(0);
    send.kernel().spawn(
        "sender", [&, driver](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(buf_pages * pb);
            for (std::uint64_t p = 0; p < buf_pages; ++p)
                co_await ctx.store(buf + p * pb, 0x1234);
            while (!shared.exported)
                co_await ctx.compute(500);
            shared.imported = true;
            // Kernel control plane: program one NIPT entry per page.
            std::size_t first =
                send.ni()->nipt().allocateRun(shared.rxPages.size());
            for (std::size_t i = 0; i < shared.rxPages.size(); ++i) {
                send.ni()->nipt().set(first + i, recv.id(),
                                      shared.rxPages[i] / pb);
            }
            result.sendStart = ctx.kernel().eq().now();
            std::uint64_t left = bytes;
            std::uint64_t off = 0;
            while (left > 0) {
                std::uint32_t chunk =
                    std::uint32_t(std::min<std::uint64_t>(left, pb));
                Addr va = buf + off;
                Addr dev_off = (first + off / pb) * pb;
                std::uint64_t rc = co_await ctx.syscall(
                    [&, driver, va, dev_off, chunk](
                        os::Kernel &k, os::Process &pr,
                        os::SyscallControl &sc) {
                        driver->requestDma(
                            k, pr, sc, true, va, dev_off, chunk,
                            baseline::TraditionalDmaDriver::Mode::
                                PinPages);
                    });
                if (rc != 0)
                    fatal("traditional NI send failed rc=", rc);
                off += chunk;
                left -= chunk;
            }
        });

    sys.runSetup([&] { return shared.imported; }, Tick(120) * tickSec);
    sys.runUntilAllDone(Tick(120) * tickSec);
    sys.run();
    captureSystem(sys);
    if (auto *r = BenchReport::active())
        r->recordTiming(result);
    return result;
}

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_BENCH_COMMON_HH
