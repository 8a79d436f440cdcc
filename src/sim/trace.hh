/**
 * @file
 * A gem5-flavoured debug-trace facility: per-category trace points
 * that cost one branch when disabled and emit
 * `tick: component: message` lines when enabled.
 *
 * Like gem5's DTRACE, the enable mask and sink are global to the
 * process (a simulator runs one experiment at a time); tests that
 * capture traces set the sink to a stringstream and restore it.
 */

#ifndef SHRIMP_SIM_TRACE_HH
#define SHRIMP_SIM_TRACE_HH

#include <ostream>
#include <sstream>
#include <string>

#include "sim/types.hh"

namespace shrimp::trace
{

/** Trace categories, one bit each. */
enum class Category : unsigned
{
    Dma = 0,
    Vm,
    Os,
    Ni,
    Bus,
    Xfer,
    NetFault,
    NumCategories,
};

/** Human-readable category tag. */
const char *categoryName(Category c);

/** Enable/disable one category. */
void enable(Category c);
void disable(Category c);
void disableAll();

/** Is this category currently traced (and a sink installed)? */
bool enabled(Category c);

/** The raw enable bitmask (for save/restore). */
unsigned enabledMask();
void setEnabledMask(unsigned mask);

/**
 * Enable categories from a comma-separated spec ("dma,xfer" or "all")
 * and install the sink. Returns false (leaving state untouched) if the
 * spec names an unknown category. Used by the `--trace=` option
 * (core::parseRunOptions).
 */
bool applySpec(const std::string &spec, std::ostream *os);

/** Install the output stream (nullptr silences everything). */
void setSink(std::ostream *os);
std::ostream *sink();

namespace detail
{

void emitPrefix(std::ostream &os, Tick now, Category c);

inline void
put(std::ostream &)
{
}

template <typename T, typename... Rest>
void
put(std::ostream &os, const T &first, const Rest &...rest)
{
    os << first;
    put(os, rest...);
}

} // namespace detail

/** Emit one trace line if the category is enabled. */
template <typename... Args>
void
log(Tick now, Category c, const Args &...args)
{
    if (!enabled(c))
        return;
    std::ostream &os = *sink();
    detail::emitPrefix(os, now, c);
    detail::put(os, args...);
    os << '\n';
}

/**
 * RAII capture helper for tests: redirects the sink to an internal
 * stringstream and enables the given categories for its lifetime.
 * Nestable: the destructor restores both the previous sink and the
 * previous enable mask.
 */
class Capture
{
  public:
    explicit Capture(std::initializer_list<Category> cats)
    {
        prevSink_ = sink();
        prevMask_ = enabledMask();
        setSink(&buf_);
        disableAll();
        for (auto c : cats)
            enable(c);
    }

    ~Capture()
    {
        setEnabledMask(prevMask_);
        setSink(prevSink_);
    }

    Capture(const Capture &) = delete;
    Capture &operator=(const Capture &) = delete;

    std::string text() const { return buf_.str(); }

    bool
    contains(const std::string &needle) const
    {
        return buf_.str().find(needle) != std::string::npos;
    }

  private:
    std::ostringstream buf_;
    std::ostream *prevSink_ = nullptr;
    unsigned prevMask_ = 0;
};

} // namespace shrimp::trace

#endif // SHRIMP_SIM_TRACE_HH
