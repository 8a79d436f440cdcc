/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components own named statistics (scalars, averages, histograms,
 * derived formulas) registered in a StatGroup; a System can dump
 * every group to a stream at the end of a run, either as text or as
 * JSON via the visitor interface. Stats never affect simulated
 * behaviour.
 *
 * Naming convention: a stat's full name is `component.metric`
 * (e.g. `kernel.i1_invals`, `engine.xfer_us`); System adds a
 * `nodeN.` prefix when dumping per-node groups.
 */

#ifndef SHRIMP_SIM_STATS_HH
#define SHRIMP_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace shrimp::sim { class JsonWriter; }

namespace shrimp::stats
{

/** A monotonically accumulated scalar (count or sum). */
class Scalar
{
  public:
    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    void reset() { value_ = 0; }
    double value() const { return value_; }

  private:
    double value_ = 0;
};

/** Mean/min/max over observed samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = 0;
        max_ = 0;
    }

    /** Fold another Average's samples into this one (exact). */
    void
    merge(const Average &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        sum_ += other.sum_;
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** Fixed-bucket histogram over [lo, hi) with uniform bucket width. */
class Histogram
{
  public:
    Histogram() : Histogram(0, 1, 1) {}

    Histogram(double lo, double hi, std::size_t buckets)
        : lo_(lo), hi_(hi), buckets_(std::max<std::size_t>(buckets, 1)),
          counts_(buckets_ + 2, 0)
    {}

    void
    sample(double v)
    {
        stats_.sample(v);
        if (v < lo_) {
            ++counts_.front();
        } else if (v >= hi_) {
            ++counts_.back();
        } else {
            auto idx = std::size_t((v - lo_) / (hi_ - lo_) * buckets_);
            ++counts_[1 + std::min(idx, buckets_ - 1)];
        }
    }

    void
    reset()
    {
        stats_.reset();
        std::fill(counts_.begin(), counts_.end(), 0);
    }

    /**
     * Fold another histogram's population into this one. The summary
     * (count/sum/min/max) merge is exact; bucket counts are remapped
     * by source-bucket midpoint when the geometries differ, so shape
     * is approximate at the target's resolution. Source underflows
     * stay underflows; source overflows overflow unless the target
     * range extends beyond the source's.
     */
    void
    merge(const Histogram &other)
    {
        stats_.merge(other.stats_);
        counts_.front() += other.counts_.front();
        for (std::size_t i = 0; i < other.buckets_; ++i) {
            const std::uint64_t n = other.counts_[1 + i];
            if (n == 0)
                continue;
            addCount(other.bucketLo(i) + other.bucketWidth() / 2, n);
        }
        if (other.counts_.back() > 0) {
            if (other.hi_ >= hi_)
                counts_.back() += other.counts_.back();
            else
                addCount(other.hi_, other.counts_.back());
        }
    }

    const Average &summary() const { return stats_; }
    std::uint64_t underflows() const { return counts_.front(); }
    std::uint64_t overflows() const { return counts_.back(); }

    std::uint64_t
    bucket(std::size_t i) const
    {
        return counts_.at(i + 1);
    }

    std::size_t buckets() const { return buckets_; }
    double bucketLo(std::size_t i) const
    {
        return lo_ + (hi_ - lo_) * double(i) / double(buckets_);
    }

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double bucketWidth() const { return (hi_ - lo_) / double(buckets_); }

  private:
    /** Bucket-count bump without touching the summary (merge path). */
    void
    addCount(double v, std::uint64_t n)
    {
        if (v < lo_) {
            counts_.front() += n;
        } else if (v >= hi_) {
            counts_.back() += n;
        } else {
            auto idx = std::size_t((v - lo_) / (hi_ - lo_) * buckets_);
            counts_[1 + std::min(idx, buckets_ - 1)] += n;
        }
    }

    double lo_;
    double hi_;
    std::size_t buckets_;
    std::vector<std::uint64_t> counts_;
    Average stats_;
};

/**
 * A derived stat evaluated at dump time from other stats
 * (e.g. bytes moved / busy time = bandwidth).
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    Formula &
    operator=(std::function<double()> fn)
    {
        fn_ = std::move(fn);
        return *this;
    }

    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/**
 * Visitor over a StatGroup's registered stats. beginGroup receives the
 * group's full dotted name (including any dump prefix); per-stat hooks
 * receive the short metric name. Stats are visited in registration
 * order, scalars first, then averages, histograms, and formulas
 * last.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const std::string &fullName) { (void)fullName; }
    virtual void endGroup() {}

    virtual void scalar(const std::string &name, const std::string &desc,
                        const Scalar &s) = 0;
    virtual void average(const std::string &name, const std::string &desc,
                         const Average &a) = 0;
    virtual void histogram(const std::string &name, const std::string &desc,
                           const Histogram &h) = 0;
    virtual void formula(const std::string &name, const std::string &desc,
                         const Formula &f) = 0;
};

/** Prints `group.metric value` lines, gem5-dump style. */
class TextDumper : public StatVisitor
{
  public:
    explicit TextDumper(std::ostream &os) : os_(os) {}

    void beginGroup(const std::string &fullName) override;
    void scalar(const std::string &name, const std::string &desc,
                const Scalar &s) override;
    void average(const std::string &name, const std::string &desc,
                 const Average &a) override;
    void histogram(const std::string &name, const std::string &desc,
                   const Histogram &h) override;
    void formula(const std::string &name, const std::string &desc,
                 const Formula &f) override;

  private:
    std::ostream &os_;
    std::string group_;
};

/**
 * Writes each group as a JSON object keyed by its full name. The
 * caller owns the surrounding JsonWriter and must already be inside an
 * object; one `"group": { "metric": ... }` member is emitted per
 * visited group. Scalars and formulas become numbers; averages and
 * histograms become objects (histograms carry a `buckets` array plus
 * the bucket geometry).
 */
class JsonDumper : public StatVisitor
{
  public:
    explicit JsonDumper(sim::JsonWriter &w) : w_(w) {}

    void beginGroup(const std::string &fullName) override;
    void endGroup() override;
    void scalar(const std::string &name, const std::string &desc,
                const Scalar &s) override;
    void average(const std::string &name, const std::string &desc,
                 const Average &a) override;
    void histogram(const std::string &name, const std::string &desc,
                   const Histogram &h) override;
    void formula(const std::string &name, const std::string &desc,
                 const Formula &f) override;

  private:
    sim::JsonWriter &w_;
};

/**
 * A named collection of statistics. Components hold one of these and
 * register their stats in it; registration stores pointers, so stats
 * must outlive the group (the normal case: both are members of the
 * same component).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void
    addScalar(const std::string &name, const Scalar *s,
              const std::string &desc = {})
    {
        scalars_.push_back({name, desc, s});
    }

    void
    addAverage(const std::string &name, const Average *a,
               const std::string &desc = {})
    {
        averages_.push_back({name, desc, a});
    }

    void
    addHistogram(const std::string &name, const Histogram *h,
                 const std::string &desc = {})
    {
        histograms_.push_back({name, desc, h});
    }

    void
    addFormula(const std::string &name, const Formula *f,
               const std::string &desc = {})
    {
        formulas_.push_back({name, desc, f});
    }

    const std::string &name() const { return name_; }

    /** Visit every registered stat; prefix is prepended to the name. */
    void accept(StatVisitor &v, const std::string &prefix = {}) const;

    /** Print all registered stats, one per line, gem5-dump style. */
    void dump(std::ostream &os, const std::string &prefix = {}) const;

    /** Write this group's stats as one standalone JSON object. */
    void dumpJson(std::ostream &os) const;

  private:
    template <typename T>
    struct Entry
    {
        std::string name;
        std::string desc;
        const T *stat;
    };

    std::string name_;
    std::vector<Entry<Scalar>> scalars_;
    std::vector<Entry<Average>> averages_;
    std::vector<Entry<Histogram>> histograms_;
    std::vector<Entry<Formula>> formulas_;
};

} // namespace shrimp::stats

#endif // SHRIMP_SIM_STATS_HH
