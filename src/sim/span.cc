#include "sim/span.hh"

#include "sim/json.hh"
#include "sim/trace.hh"

namespace shrimp::span
{

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Active:
        return "active";
      case Outcome::Completed:
        return "completed";
      case Outcome::Inval:
        return "inval";
      case Outcome::BadLoad:
        return "bad_load";
      case Outcome::DeviceError:
        return "device_error";
      case Outcome::Aborted:
        return "aborted";
      case Outcome::Replaced:
        return "replaced";
      default:
        return "?";
    }
}

Registry &
Registry::instance()
{
    // shrimp-lint: shard-safe(process-global registry by design; every mutator takes mu_)
    static Registry r;
    return r;
}

Registry &
registry()
{
    return Registry::instance();
}

std::uint64_t
Registry::open(Tick now, const std::string &owner, std::uint64_t bytes)
{
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t id = nextId_++;
    Span s;
    s.id = id;
    s.owner = owner;
    s.bytes = bytes;
    s.latched = now;
    if (spare_.empty()) {
        active_.emplace(id, std::move(s));
    } else {
        ActiveMap::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = id;
        node.mapped() = std::move(s);
        active_.insert(std::move(node));
    }
    ++summary_.opened;
    trace::log(now, trace::Category::Xfer, owner, ": xfer#", id,
               " latched bytes=", bytes);
    return id;
}

void
Registry::start(Tick now, std::uint64_t id, bool toDevice,
                std::uint64_t bytes)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    it->second.started = now;
    it->second.toDevice = toDevice;
    if (bytes)
        it->second.bytes = bytes;
    trace::log(now, trace::Category::Xfer, it->second.owner, ": xfer#",
               id, " transferring ", toDevice ? "mem->dev" : "dev->mem",
               " bytes=", it->second.bytes);
}

void
Registry::close(Tick now, std::uint64_t id, Outcome outcome)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    ActiveMap::node_type node = active_.extract(it);
    Span &s = node.mapped();
    s.ended = now;
    s.outcome = outcome;
    ++summary_.outcomes[unsigned(outcome)];
    if (outcome == Outcome::Completed)
        summary_.bytesCompleted += s.bytes;
    trace::log(now, trace::Category::Xfer, s.owner, ": xfer#", id, ' ',
               outcomeName(outcome), " bytes=", s.bytes, " total_us=",
               s.totalUs());
    if (retained_.size() < retainLimit_) {
        // Reserve the whole ring at once instead of growing it.
        retained_.reserve(retainLimit_);
        retained_.push_back(std::move(s));
    } else if (retainLimit_ > 0) {
        retained_[oldest_] = std::move(s);
        oldest_ = (oldest_ + 1) % retainLimit_;
    }
    spare_.push_back(std::move(node));
}

const Span *
Registry::find(std::uint64_t id) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = active_.find(id);
    if (it != active_.end())
        return &it->second;
    for (const auto &s : retained_) {
        if (s.id == id)
            return &s;
    }
    return nullptr;
}

std::vector<Span>
Registry::ordered() const
{
    std::vector<Span> out(retained_.begin() + std::ptrdiff_t(oldest_),
                          retained_.end());
    out.insert(out.end(), retained_.begin(),
               retained_.begin() + std::ptrdiff_t(oldest_));
    return out;
}

std::vector<Span>
Registry::retained() const
{
    std::lock_guard<std::mutex> g(mu_);
    return ordered();
}

void
Registry::setRetainLimit(std::size_t n)
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<Span> kept = ordered();
    if (kept.size() > n)
        kept.erase(kept.begin(), kept.end() - std::ptrdiff_t(n));
    retained_ = std::move(kept);
    oldest_ = 0;
    retainLimit_ = n;
}

Summary
Registry::summary() const
{
    std::lock_guard<std::mutex> g(mu_);
    Summary s = summary_;
    s.active = active_.size();
    return s;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> g(mu_);
    nextId_ = 1;
    summary_ = Summary{};
    active_.clear();
    retained_.clear();
    oldest_ = 0;
}

void
Registry::dumpJson(sim::JsonWriter &w, bool includeSpans) const
{
    Summary s = summary();
    w.beginObject();
    w.field("opened", s.opened);
    w.field("active", s.active);
    w.field("bytes_completed", s.bytesCompleted);
    w.key("outcomes");
    w.beginObject();
    // Skip Active: live spans are reported by the `active` count.
    for (unsigned i = 1; i < unsigned(Outcome::NumOutcomes); ++i)
        w.field(outcomeName(Outcome(i)), s.outcomes[i]);
    w.endObject();
    if (includeSpans) {
        w.key("spans");
        w.beginArray();
        for (const auto &sp : retained()) {
            w.beginObject();
            w.field("id", sp.id);
            w.field("owner", sp.owner);
            w.field("bytes", sp.bytes);
            w.field("outcome", outcomeName(sp.outcome));
            w.field("to_device", sp.toDevice);
            w.field("latched_ps", sp.latched);
            w.field("started_ps", sp.started);
            w.field("ended_ps", sp.ended);
            w.field("total_us", sp.totalUs());
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace shrimp::span
