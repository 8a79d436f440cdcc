#include "sim/profiler.hh"

#include <algorithm>
#include <cstdio>

#include "sim/json.hh"
#include "sim/trace_sink.hh"

namespace shrimp::sim
{

ShardProfiler::ShardProfiler(unsigned shards)
    : slots_(std::max(shards, 1u)),
      origin_(std::chrono::steady_clock::now())
{
}

void
ShardProfiler::beginRun()
{
    for (auto &p : slots_)
        p = PaddedSlot{};
    barSpinWakes_.store(0, std::memory_order_relaxed);
    barSleeps_.store(0, std::memory_order_relaxed);
    wallNs_ = 0;
    origin_ = std::chrono::steady_clock::now();
    running_ = true;
}

void
ShardProfiler::endRun()
{
    running_ = false;
    wallNs_ = nowNs();
}

void
ShardProfiler::notePlan(unsigned worker, std::uint64_t t0,
                        std::uint64_t t1)
{
    slots_[worker].s.planNs += t1 - t0;
    if (sink_)
        sink_->workerSlice(worker, "barrier.plan", t0, t1);
}

void
ShardProfiler::noteExecute(unsigned worker, std::uint64_t t0,
                           std::uint64_t t1, std::uint64_t events_fired)
{
    Slot &s = slots_[worker].s;
    ++s.windows;
    s.events += events_fired;
    const bool idle = events_fired == 0;
    if (idle) {
        ++s.idleWindows;
        s.idleNs += t1 - t0;
    } else {
        s.executeNs += t1 - t0;
    }
    if (sink_)
        sink_->workerSlice(worker, idle ? "idle" : "execute", t0, t1);
}

void
ShardProfiler::noteSync(unsigned worker, std::uint64_t t0,
                        std::uint64_t t1)
{
    slots_[worker].s.syncNs += t1 - t0;
    if (sink_)
        sink_->workerSlice(worker, "barrier.sync", t0, t1);
}

void
ShardProfiler::noteDrain(unsigned worker, std::uint64_t t0,
                         std::uint64_t t1, std::uint64_t drained)
{
    Slot &s = slots_[worker].s;
    s.drainNs += t1 - t0;
    s.drained += drained;
    s.maxDrainBatch = std::max(s.maxDrainBatch, drained);
    if (sink_)
        sink_->workerSlice(worker, "drain", t0, t1);
}

void
ShardProfiler::noteSpawn(unsigned worker, std::uint64_t t0,
                         std::uint64_t t1)
{
    slots_[worker].s.spawnNs += t1 - t0;
    if (sink_)
        sink_->workerSlice(worker, "spawn", t0, t1);
}

ShardProfiler::Slot
ShardProfiler::totals() const
{
    Slot t;
    for (const auto &p : slots_) {
        t.executeNs += p.s.executeNs;
        t.idleNs += p.s.idleNs;
        t.planNs += p.s.planNs;
        t.syncNs += p.s.syncNs;
        t.drainNs += p.s.drainNs;
        t.spawnNs += p.s.spawnNs;
        t.windows += p.s.windows;
        t.idleWindows += p.s.idleWindows;
        t.events += p.s.events;
        t.drained += p.s.drained;
        t.maxDrainBatch = std::max(t.maxDrainBatch, p.s.maxDrainBatch);
    }
    return t;
}

std::uint64_t
ShardProfiler::skippedWindowRuns() const
{
    std::uint64_t n = 0;
    for (const auto &p : slots_)
        n += p.skippedRuns;
    return n;
}

std::uint64_t
ShardProfiler::windowWidthBucket(unsigned i) const
{
    std::uint64_t n = 0;
    for (const auto &p : slots_)
        n += p.widthHist[i];
    return n;
}

double
ShardProfiler::accountedFraction() const
{
    if (wallNs_ == 0)
        return 0;
    const double denom = double(wallNs_) * double(slots_.size());
    return double(totals().accountedNs()) / denom;
}

void
ShardProfiler::writeTable(std::ostream &os) const
{
    const double wall = double(std::max<std::uint64_t>(wallNs_, 1));
    auto pct = [wall](std::uint64_t ns) { return 100.0 * double(ns) / wall; };

    os << "-- shard time budget (parallel phase, wall "
       << wallNs_ / 1000000.0 << " ms) --\n";
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-6s %9s %9s %9s %9s %9s %9s %7s %9s %10s %9s\n",
                  "shard", "execute%", "plan%", "sync%", "drain%", "idle%",
                  "spawn%", "acct%", "windows", "events", "drained");
    os << line;
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_[i].s;
        std::snprintf(line, sizeof line,
                      "%-6u %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% "
                      "%8.1f%% %6.1f%% %9llu %10llu %9llu\n",
                      i, pct(s.executeNs), pct(s.planNs), pct(s.syncNs),
                      pct(s.drainNs), pct(s.idleNs), pct(s.spawnNs),
                      pct(s.accountedNs()),
                      (unsigned long long)s.windows,
                      (unsigned long long)s.events,
                      (unsigned long long)s.drained);
        os << line;
    }
    const Slot t = totals();
    std::snprintf(line, sizeof line,
                  "%-6s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% "
                  "%6.1f%% %9llu %10llu %9llu\n",
                  "all",
                  pct(t.executeNs) / slots_.size(),
                  pct(t.planNs) / slots_.size(),
                  pct(t.syncNs) / slots_.size(),
                  pct(t.drainNs) / slots_.size(),
                  pct(t.idleNs) / slots_.size(),
                  pct(t.spawnNs) / slots_.size(),
                  100.0 * accountedFraction(),
                  (unsigned long long)t.windows,
                  (unsigned long long)t.events,
                  (unsigned long long)t.drained);
    os << line;
    os << "skipped-window runs: " << skippedWindowRuns()
       << "; idle windows: " << t.idleWindows << " of " << t.windows
       << "\n";
    os << "barrier waits: " << barrierSpinWakes() << " spin, "
       << barrierFutexSleeps() << " futex-sleep\n";
    os << "window widths (ticks, log2): idle=" << windowWidthBucket(0);
    for (unsigned i = 1; i < widthBuckets; ++i) {
        const std::uint64_t n = windowWidthBucket(i);
        if (n != 0)
            os << " 2^" << (i - 1) << "=" << n;
    }
    os << "\n";
}

void
ShardProfiler::dumpJson(JsonWriter &w) const
{
    const Slot t = totals();
    w.beginObject();
    w.field("shards", unsigned(slots_.size()));
    w.field("wall_ns", wallNs_);
    w.field("accounted_frac", accountedFraction());
    w.field("skipped_window_runs", skippedWindowRuns());
    w.field("barrier_spin_wakes", barrierSpinWakes());
    w.field("barrier_futex_sleeps", barrierFutexSleeps());
    w.key("window_width_log2");
    w.beginArray();
    for (unsigned i = 0; i < widthBuckets; ++i)
        w.value(windowWidthBucket(i));
    w.endArray();
    w.key("totals_ns");
    w.beginObject();
    w.field("execute", t.executeNs);
    w.field("barrier_plan", t.planNs);
    w.field("barrier_sync", t.syncNs);
    w.field("drain", t.drainNs);
    w.field("idle", t.idleNs);
    w.field("spawn", t.spawnNs);
    w.endObject();
    w.key("per_shard");
    w.beginArray();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_[i].s;
        w.beginObject();
        w.field("shard", i);
        w.field("execute_ns", s.executeNs);
        w.field("barrier_plan_ns", s.planNs);
        w.field("barrier_sync_ns", s.syncNs);
        w.field("drain_ns", s.drainNs);
        w.field("idle_ns", s.idleNs);
        w.field("spawn_ns", s.spawnNs);
        w.field("windows", s.windows);
        w.field("idle_windows", s.idleWindows);
        w.field("events", s.events);
        w.field("drained", s.drained);
        w.field("max_drain_batch", s.maxDrainBatch);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace shrimp::sim
