#include "check/monitor.hh"

#include <iostream>

#include "core/system.hh"

namespace shrimp::audit
{

namespace
{

/** Cap on retained violations; the count keeps running past it. */
constexpr std::size_t maxRetained = 256;
/** Cap on violations echoed to stderr in non-fail-fast mode. */
constexpr std::uint64_t maxWarnings = 16;

} // namespace

bool
parseMode(const std::string &spec, Mode &out)
{
    if (spec == "off") {
        out = Mode::Off;
        return true;
    }
    if (spec == "on-switch") {
        out = Mode::OnSwitch;
        return true;
    }
    if (spec == "every-event") {
        out = Mode::EveryEvent;
        return true;
    }
    if (spec == "at-barrier") {
        out = Mode::AtBarrier;
        return true;
    }
    return false;
}

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Off: return "off";
      case Mode::OnSwitch: return "on-switch";
      case Mode::EveryEvent: return "every-event";
      case Mode::AtBarrier: return "at-barrier";
    }
    return "?";
}

Monitor::Monitor(core::System &sys, Mode mode, bool fail_fast)
    : sys_(sys), mode_(mode), failFast_(fail_fast)
{
    // AtBarrier installs no per-event hooks: the sharded engine calls
    // auditNode from its per-node hook at every round boundary.
    if (mode_ == Mode::Off || mode_ == Mode::AtBarrier)
        return;
    const bool every = mode_ == Mode::EveryEvent;
    for (unsigned i = 0; i < sys_.nodeCount(); ++i) {
        os::Kernel &k = sys_.node(i).kernel();
        k.setAuditHook([this, every](os::KernelEvent ev) {
            if (!every && ev != os::KernelEvent::ContextSwitch)
                return;
            auditNow(os::kernelEventName(ev));
        });
        if (every) {
            for (dma::UdmaController *c : k.controllers()) {
                c->setCompletionObserver([this] {
                    auditNow(os::kernelEventName(
                        os::KernelEvent::DmaComplete));
                });
            }
        }
    }
}

Monitor::~Monitor()
{
    if (mode_ == Mode::Off || mode_ == Mode::AtBarrier)
        return;
    for (unsigned i = 0; i < sys_.nodeCount(); ++i) {
        os::Kernel &k = sys_.node(i).kernel();
        k.setAuditHook({});
        if (mode_ == Mode::EveryEvent) {
            for (dma::UdmaController *c : k.controllers())
                c->setCompletionObserver({});
        }
    }
}

void
Monitor::auditNow(const char *why)
{
    audits_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Violation> found = checkAll(sys_);
    if (!found.empty())
        record(why, std::move(found));
}

void
Monitor::auditNode(NodeId node, const char *why)
{
    audits_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Violation> found;
    checkNode(sys_.node(node), found);
    if (!found.empty())
        record(why, std::move(found));
}

void
Monitor::record(const char *why, std::vector<Violation> found)
{
    std::lock_guard<std::mutex> g(recordMu_);
    for (const Violation &v : found) {
        ++violationCount_;
        if (violationCount_ <= maxWarnings || failFast_) {
            std::cerr << "audit[" << why << "]: " << describe(v)
                      << "\n";
        } else if (violationCount_ == maxWarnings + 1) {
            std::cerr << "audit: further violations suppressed\n";
        }
        if (violations_.size() < maxRetained)
            violations_.push_back(v);
    }
    if (failFast_) {
        // Build the message before the vector argument can be moved
        // from (function argument evaluation order is unspecified).
        std::string what = "invariant audit failed at '"
                           + std::string(why) + "': "
                           + describe(found.front());
        throw ViolationError(std::move(what), std::move(found));
    }
}

} // namespace shrimp::audit
