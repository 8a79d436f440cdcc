/**
 * @file
 * Continuous invariant monitoring: wires audit::checkAll into the
 * kernel's audit hooks so a running simulation is cross-checked at
 * every Section 6 maintenance point (context switch, page fault,
 * page-out, DMA completion) — or at context switches only, the cheap
 * mode that still catches every I1 hole — or at the sharded engine's
 * window barriers.
 *
 * Enabled per run with `--audit=every-event|on-switch|at-barrier`
 * (threaded through core::parseRunOptions) or the SHRIMP_AUDIT
 * environment variable, and programmatically with
 * System::enableAudit.
 */

#ifndef SHRIMP_CHECK_MONITOR_HH
#define SHRIMP_CHECK_MONITOR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/audit.hh"

namespace shrimp::core
{
class System;
} // namespace shrimp::core

namespace shrimp::audit
{

/** How often the monitor audits. */
enum class Mode
{
    Off,
    /** Audit after context switches only (the I1 window). */
    OnSwitch,
    /** Audit after every kernel event and DMA completion. */
    EveryEvent,
    /**
     * Audit only at sharded-engine window barriers, where every
     * shard is quiescent and cross-shard state is consistent. The
     * only mode usable on more than one shard: the per-event hooks
     * would run concurrently from worker threads and read other
     * shards' state mid-window. System::enableAudit coerces the
     * other modes to this one there and wires the barrier hook.
     */
    AtBarrier,
};

/** "off", "on-switch", "every-event", "at-barrier" -> Mode;
 *  false on junk. */
bool parseMode(const std::string &spec, Mode &out);

const char *modeName(Mode m);

/** Thrown by a fail-fast monitor on the first violation. */
class ViolationError : public std::runtime_error
{
  public:
    ViolationError(std::string what, std::vector<Violation> violations)
        : std::runtime_error(std::move(what)),
          violations_(std::move(violations))
    {}

    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

  private:
    std::vector<Violation> violations_;
};

/**
 * Installs itself into every node's kernel audit hook and every UDMA
 * controller's completion observer; detaches on destruction. One
 * monitor per System.
 */
class Monitor
{
  public:
    /**
     * @param fail_fast Throw ViolationError on the first violating
     *        audit instead of recording and continuing.
     */
    Monitor(core::System &sys, Mode mode, bool fail_fast = false);
    ~Monitor();

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    Mode mode() const { return mode_; }

    /** Audits performed. */
    std::uint64_t audits() const { return audits_; }

    /** Violations seen across all audits (retention is capped). */
    std::uint64_t violationCount() const { return violationCount_; }

    /** The retained violations (first few hundred). */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** Run one audit now, independent of any hook. */
    void auditNow(const char *why);

  private:
    void record(const char *why, std::vector<Violation> found);

    core::System &sys_;
    Mode mode_;
    bool failFast_;
    std::uint64_t audits_ = 0;
    std::uint64_t violationCount_ = 0;
    std::vector<Violation> violations_;
};

} // namespace shrimp::audit

#endif // SHRIMP_CHECK_MONITOR_HH
