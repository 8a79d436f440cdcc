#include "sim/stats.hh"

#include "sim/json.hh"

namespace shrimp::stats
{

void
writeJson(sim::JsonWriter &w, const std::string &name, const Histogram &h)
{
    const Average &a = h.summary();
    w.key(name);
    w.beginObject();
    w.field("type", "histogram");
    w.field("mean", a.mean());
    w.field("count", a.count());
    w.field("min", a.min());
    w.field("max", a.max());
    w.field("lo", h.lo());
    w.field("hi", h.hi());
    w.field("bucket_width", h.bucketWidth());
    w.field("underflows", h.underflows());
    w.field("overflows", h.overflows());
    w.key("buckets");
    w.beginArray();
    for (std::size_t i = 0; i < h.buckets(); ++i)
        w.value(h.bucket(i));
    w.endArray();
    w.endObject();
}

void
StatGroup::writeJson(sim::JsonWriter &w, const std::string &prefix) const
{
    w.key(prefix + name_);
    w.beginObject();
    for (const auto &e : scalars_)
        w.field(e.name, e.stat->value());
    for (const auto &e : histograms_)
        stats::writeJson(w, e.name, *e.stat);
    for (const auto &e : formulas_)
        w.field(e.name, e.stat->value());
    w.endObject();
}

} // namespace shrimp::stats
