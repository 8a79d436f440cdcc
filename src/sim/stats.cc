#include "sim/stats.hh"

#include "sim/json.hh"

namespace shrimp::stats
{

// --- TextDumper ---

void
TextDumper::beginGroup(const std::string &fullName)
{
    group_ = fullName;
}

void
TextDumper::scalar(const std::string &name, const std::string &desc,
                   const Scalar &s)
{
    os_ << group_ << '.' << name << ' ' << s.value();
    if (!desc.empty())
        os_ << "   # " << desc;
    os_ << '\n';
}

void
TextDumper::average(const std::string &name, const std::string &desc,
                    const Average &a)
{
    os_ << group_ << '.' << name << "::mean " << a.mean()
        << "  ::count " << a.count() << "  ::min " << a.min()
        << "  ::max " << a.max();
    if (!desc.empty())
        os_ << "   # " << desc;
    os_ << '\n';
}

void
TextDumper::histogram(const std::string &name, const std::string &desc,
                      const Histogram &h)
{
    const Average &a = h.summary();
    os_ << group_ << '.' << name << "::mean " << a.mean()
        << "  ::count " << a.count() << "  ::min " << a.min()
        << "  ::max " << a.max() << "  ::underflows " << h.underflows()
        << "  ::overflows " << h.overflows();
    if (!desc.empty())
        os_ << "   # " << desc;
    os_ << '\n';
    // Only non-empty buckets, one line each, gem5 style.
    for (std::size_t i = 0; i < h.buckets(); ++i) {
        if (h.bucket(i) == 0)
            continue;
        os_ << group_ << '.' << name << "::" << h.bucketLo(i) << '-'
            << (h.bucketLo(i) + h.bucketWidth()) << ' ' << h.bucket(i)
            << '\n';
    }
}

void
TextDumper::formula(const std::string &name, const std::string &desc,
                    const Formula &f)
{
    os_ << group_ << '.' << name << ' ' << f.value();
    if (!desc.empty())
        os_ << "   # " << desc;
    os_ << '\n';
}

// --- JsonDumper ---

void
JsonDumper::beginGroup(const std::string &fullName)
{
    w_.key(fullName);
    w_.beginObject();
}

void
JsonDumper::endGroup()
{
    w_.endObject();
}

void
JsonDumper::scalar(const std::string &name, const std::string &,
                   const Scalar &s)
{
    w_.field(name, s.value());
}

void
JsonDumper::average(const std::string &name, const std::string &,
                    const Average &a)
{
    w_.key(name);
    w_.beginObject();
    w_.field("mean", a.mean());
    w_.field("count", a.count());
    w_.field("min", a.min());
    w_.field("max", a.max());
    w_.endObject();
}

void
JsonDumper::histogram(const std::string &name, const std::string &,
                      const Histogram &h)
{
    const Average &a = h.summary();
    w_.key(name);
    w_.beginObject();
    w_.field("type", "histogram");
    w_.field("mean", a.mean());
    w_.field("count", a.count());
    w_.field("min", a.min());
    w_.field("max", a.max());
    w_.field("lo", h.lo());
    w_.field("hi", h.hi());
    w_.field("bucket_width", h.bucketWidth());
    w_.field("underflows", h.underflows());
    w_.field("overflows", h.overflows());
    w_.key("buckets");
    w_.beginArray();
    for (std::size_t i = 0; i < h.buckets(); ++i)
        w_.value(h.bucket(i));
    w_.endArray();
    w_.endObject();
}

void
JsonDumper::formula(const std::string &name, const std::string &,
                    const Formula &f)
{
    w_.field(name, f.value());
}

// --- StatGroup ---

void
StatGroup::accept(StatVisitor &v, const std::string &prefix) const
{
    v.beginGroup(prefix + name_);
    for (const auto &e : scalars_)
        v.scalar(e.name, e.desc, *e.stat);
    for (const auto &e : averages_)
        v.average(e.name, e.desc, *e.stat);
    for (const auto &e : histograms_)
        v.histogram(e.name, e.desc, *e.stat);
    for (const auto &e : formulas_)
        v.formula(e.name, e.desc, *e.stat);
    v.endGroup();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    TextDumper d(os);
    accept(d, prefix);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    sim::JsonWriter w(os);
    // Wrap the single group in an object so the dumper's
    // `"name": { ... }` member is valid at top level.
    w.beginObject();
    JsonDumper d(w);
    accept(d);
    w.endObject();
    w.finish();
}

} // namespace shrimp::stats
