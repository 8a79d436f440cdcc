/**
 * @file
 * Schedule-exploring model checker for the Section 6 invariants.
 *
 * Drives a small, fixed world — one node, two UDMA frame-buffer
 * controllers, two parked processes each owning one dirty buffer page
 * and a mapped window on both devices — through bounded-depth DFS over
 * an enumerated action alphabet:
 *
 *   switch(pK)               context switch to pK (with the I1 Inval)
 *   store-dev-dest(pK,dJ)    STORE to pK's window on dJ: latches a
 *                            device-side DESTINATION (DestLoaded)
 *   load-mem-fire(pK,dJ)     LOAD from PROXY(buf[pK], dJ): fires a
 *                            mem->dev transfer if a dest is latched
 *   store-mem-dest(pK,dJ)    STORE to PROXY(buf[pK], dJ): latches a
 *                            memory-side DESTINATION (and exercises
 *                            the I3 proxy write-upgrade path)
 *   load-dev-fire(pK,dJ)     LOAD from pK's window on dJ: fires a
 *                            dev->mem transfer if a dest is latched
 *   remap(pK)                page buf[pK] out, then re-fault it in at
 *                            a (generally) different frame
 *   clean(pK)                page-daemon clean of buf[pK] (write-
 *                            protects its proxy mappings under I3)
 *   pageout                  evict one frame chosen by the clock hand
 *   complete                 run the event queue until no transfer is
 *                            in flight (delivering DMA completions)
 *
 * All actions except `complete` are synchronous and untimed, so a
 * prefix of actions is a deterministic replay recipe. After every
 * transition (and, via the kernel audit hooks, *inside* multi-step
 * transitions) the invariant auditor cross-checks the global state;
 * the first violation aborts the search and prints the action trace,
 * the violations, and the span ledger — everything needed to replay
 * with --replay=<trace> --trace=all.
 *
 * Visited states are hashed (FNV-1a over a canonical encoding that
 * renames frames in first-appearance order and abstracts time and
 * page contents) to prune revisits, so the DFS explores distinct
 * states rather than distinct schedules.
 *
 * Seeded mutations (--mutate=no-inval-on-switch etc.) disable exactly
 * one invariant-maintaining kernel action each, demonstrating that the
 * checker finds the corresponding counterexample.
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/monitor.hh"
#include "core/system.hh"
#include "shrimp/fault.hh"
#include "sim/flight_recorder.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/trace.hh"
#include "workload/ring.hh"

using namespace shrimp;

namespace
{

constexpr unsigned numProcs = 2;
constexpr unsigned numDevs = 2;

// --------------------------------------------------------------- actions

enum class ActionKind
{
    Switch,
    StoreDevDest,
    LoadMemFire,
    StoreMemDest,
    LoadDevFire,
    Remap,
    Clean,
    PageOut,
    Complete,
};

struct Action
{
    ActionKind kind;
    unsigned proc = 0;
    unsigned dev = 0;
    std::string name;
};

std::vector<Action>
actionAlphabet()
{
    std::vector<Action> out;
    auto add = [&](ActionKind k, unsigned p, unsigned d,
                   std::string name) {
        out.push_back(Action{k, p, d, std::move(name)});
    };
    for (unsigned p = 0; p < numProcs; ++p)
        add(ActionKind::Switch, p, 0,
            "switch(p" + std::to_string(p) + ")");
    for (unsigned p = 0; p < numProcs; ++p) {
        for (unsigned d = 0; d < numDevs; ++d) {
            std::string pd = "(p" + std::to_string(p) + ",d"
                             + std::to_string(d) + ")";
            add(ActionKind::StoreDevDest, p, d, "store-dev-dest" + pd);
            add(ActionKind::LoadMemFire, p, d, "load-mem-fire" + pd);
            add(ActionKind::StoreMemDest, p, d, "store-mem-dest" + pd);
            add(ActionKind::LoadDevFire, p, d, "load-dev-fire" + pd);
        }
    }
    for (unsigned p = 0; p < numProcs; ++p) {
        add(ActionKind::Remap, p, 0, "remap(p" + std::to_string(p) + ")");
        add(ActionKind::Clean, p, 0, "clean(p" + std::to_string(p) + ")");
    }
    add(ActionKind::PageOut, 0, 0, "pageout");
    add(ActionKind::Complete, 0, 0, "complete");
    return out;
}

// ---------------------------------------------------------------- world

/** One rebuilt-from-scratch instance of the checked system. */
struct World
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<audit::Monitor> monitor;
    Pid pids[numProcs] = {};
    Addr buf[numProcs] = {};
    Addr win[numProcs][numDevs] = {};

    os::Kernel &kernel() { return sys->node(0).kernel(); }

    os::Process &
    proc(unsigned p)
    {
        os::Process *pr = kernel().findProcess(pids[p]);
        SHRIMP_ASSERT(pr, "puppet process vanished");
        return *pr;
    }

    /** Index of the process owning the active address space (or -1). */
    int
    activeProc()
    {
        vm::PageTable *table = sys->node(0).mmu().activeTable();
        for (unsigned p = 0; p < numProcs; ++p) {
            if (table == &proc(p).pageTable())
                return int(p);
        }
        return -1;
    }

    bool
    transferring()
    {
        for (auto *c : kernel().controllers()) {
            if (c->state() == dma::UdmaController::State::Transferring)
                return true;
        }
        return false;
    }
};

std::unique_ptr<World>
makeWorld(const os::MutationKnobs &mutations)
{
    // The span registry is process-global; each world starts fresh.
    span::registry().clear();

    core::SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 1 << 20;
    for (unsigned d = 0; d < numDevs; ++d) {
        core::DeviceConfig fb;
        fb.kind = core::DeviceKind::FrameBuffer;
        fb.fbWidth = 256;
        fb.fbHeight = 256;
        cfg.node.devices.push_back(fb);
    }

    auto w = std::make_unique<World>();
    w->sys = std::make_unique<core::System>(cfg);
    os::Kernel &kernel = w->kernel();
    kernel.setMutations(mutations);

    // Each puppet allocates one buffer page, dirties it, maps a
    // one-page window on each device, and parks on a blocking syscall
    // so the scheduler never runs again: from here on the checker is
    // the only driver of the machine.
    for (unsigned p = 0; p < numProcs; ++p) {
        os::Process &pr = kernel.spawn(
            "puppet" + std::to_string(p),
            [w = w.get(), p](os::UserContext &ctx) -> sim::ProcTask {
                w->buf[p] =
                    co_await ctx.sysAllocMemory(ctx.pageBytes());
                co_await ctx.store(w->buf[p], 0x5A5A0000 + p);
                for (unsigned d = 0; d < numDevs; ++d) {
                    w->win[p][d] = co_await ctx.sysMapDeviceProxy(
                        d, 0, 1, true);
                }
                co_await ctx.syscall([](os::Kernel &, os::Process &,
                                        os::SyscallControl &sc) {
                    sc.blocks = true;
                });
            });
        w->pids[p] = pr.pid();
    }
    w->sys->run();

    for (unsigned p = 0; p < numProcs; ++p) {
        SHRIMP_ASSERT(w->proc(p).state() == os::ProcState::Blocked,
                      "puppet ", p, " failed to park");
        SHRIMP_ASSERT(w->buf[p] != 0 && w->win[p][0] != 0,
                      "puppet ", p, " setup incomplete");
    }

    // Auditing starts once the deterministic setup is done: the
    // monitor audits at every kernel event and DMA completion during
    // the exploration, catching mid-action violation windows.
    w->monitor = std::make_unique<audit::Monitor>(
        *w->sys, audit::Mode::EveryEvent, /*fail_fast=*/true);
    return w;
}

/**
 * Is the action enabled in this state? Enabledness is a pure function
 * of state, which keeps replay prefixes meaningful.
 */
bool
enabled(World &w, const Action &a)
{
    switch (a.kind) {
      case ActionKind::Switch:
        return w.activeProc() != int(a.proc);
      case ActionKind::StoreDevDest:
      case ActionKind::LoadMemFire:
      case ActionKind::StoreMemDest:
      case ActionKind::LoadDevFire:
      case ActionKind::Remap:
      case ActionKind::Clean:
        // User accesses need the process's address space active; the
        // kernel-side remap/clean are tied to the same gate to bound
        // the branching factor.
        return w.activeProc() == int(a.proc);
      case ActionKind::PageOut:
        return true;
      case ActionKind::Complete:
        return w.transferring();
    }
    return false;
}

/**
 * Apply one action. Returns false if the action turned out to be a
 * dead no-op (e.g. nothing evictable); violations surface as
 * audit::ViolationError from the monitor's fail-fast hooks or from
 * the caller's post-action sweep.
 */
bool
apply(World &w, const Action &a)
{
    os::Kernel &kernel = w.kernel();
    const std::uint32_t page = kernel.layout().pageBytes();
    Tick lat = 0;
    switch (a.kind) {
      case ActionKind::Switch:
        kernel.modelSwitchTo(w.proc(a.proc));
        return true;
      case ActionKind::StoreDevDest: {
        auto r = kernel.performUserAccess(
            w.proc(a.proc), w.win[a.proc][a.dev], true, page);
        return r.ok;
      }
      case ActionKind::LoadMemFire: {
        Addr va = kernel.layout().proxy(w.buf[a.proc], a.dev);
        auto r = kernel.performUserAccess(w.proc(a.proc), va, false);
        return r.ok;
      }
      case ActionKind::StoreMemDest: {
        Addr va = kernel.layout().proxy(w.buf[a.proc], a.dev);
        auto r = kernel.performUserAccess(w.proc(a.proc), va, true,
                                          page);
        return r.ok;
      }
      case ActionKind::LoadDevFire: {
        auto r = kernel.performUserAccess(w.proc(a.proc),
                                          w.win[a.proc][a.dev], false);
        return r.ok;
      }
      case ActionKind::Remap: {
        if (!kernel.evictPage(w.proc(a.proc), w.buf[a.proc], lat))
            return false;
        auto r = kernel.performUserAccess(w.proc(a.proc),
                                          w.buf[a.proc], false);
        return r.ok;
      }
      case ActionKind::Clean:
        return kernel.cleanPage(w.proc(a.proc), w.buf[a.proc], lat);
      case ActionKind::PageOut:
        return kernel.evictOneFrame(lat);
      case ActionKind::Complete: {
        // runSetup checks the predicate after every event, so the
        // run stops at the completion, not at a round boundary.
        w.sys->runSetup([&w] { return !w.transferring(); },
                        w.sys->simNow() + tickSec);
        return !w.transferring();
      }
    }
    return false;
}

// ---------------------------------------------------------- state hash

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

/**
 * Hash the invariant-relevant machine state. Frames are renamed in
 * first-appearance order so states differing only in *which* physical
 * frame backs a page collapse; simulated time, page contents, and
 * span/stat counters are deliberately excluded.
 */
std::uint64_t
stateHash(World &w)
{
    Fnv f;
    os::Kernel &kernel = w.kernel();
    const vm::AddressLayout &layout = kernel.layout();

    std::map<Addr, std::uint64_t> canon;
    auto cid = [&](Addr frame_base) {
        auto [it, fresh] = canon.try_emplace(frame_base, canon.size());
        (void)fresh;
        return it->second;
    };

    f.mix(std::uint64_t(w.activeProc() + 1));
    for (unsigned p = 0; p < numProcs; ++p) {
        os::Process &pr = w.proc(p);
        f.mix(std::uint64_t(pr.state()));
        f.mix(pr.killed());
        pr.pageTable().forEach([&](std::uint64_t vpn, vm::Pte &pte) {
            f.mix(vpn);
            f.mix(std::uint64_t(pte.valid) | std::uint64_t(pte.writable) << 1
                  | std::uint64_t(pte.user) << 2
                  | std::uint64_t(pte.dirty) << 3
                  | std::uint64_t(pte.referenced) << 4);
            if (!pte.valid)
                return;
            vm::Decoded dec = layout.decode(pte.frameAddr);
            f.mix(std::uint64_t(dec.space));
            f.mix(dec.device);
            if (dec.space == vm::Space::DevProxy)
                f.mix(dec.offset);
            else
                f.mix(cid(layout.pageBase(dec.offset)));
        });
        f.mix(0x5eed);
    }

    std::uint64_t nframes = layout.memBytes() / layout.pageBytes();
    f.mix(kernel.clockHand());
    for (std::uint64_t frame = 0; frame < nframes; ++frame) {
        const auto &fi = kernel.frameInfo(frame);
        if (!fi.used || fi.pinCount == 0)
            continue;
        f.mix(cid(Addr(frame) * layout.pageBytes()));
        f.mix(fi.pinCount);
    }

    for (auto *c : kernel.controllers()) {
        f.mix(std::uint64_t(c->state()));
        f.mix(c->latchOwnerPid());
        Addr dest_page = 0;
        if (c->destLoadedPage(dest_page))
            f.mix(cid(dest_page) + 1);
        else
            f.mix(0);
        f.mix(c->queuedRequests());
        f.mix(c->queuedSystemRequests());
        for (const auto &[page_base, refs] : c->busyPages()) {
            f.mix(cid(page_base));
            f.mix(refs);
        }
        f.mix(0xc0de);
    }
    return f.h;
}

// ------------------------------------------------------------- checker

struct Options
{
    unsigned depth = 8;
    std::uint64_t maxStates = 200000;
    os::MutationKnobs mutations;
    std::vector<std::string> replay;
    /** `--net=<faultspec>`: check delivery under faults instead. */
    std::string netSpec;
    /** `--mutate=no-retransmit`: disable NI recovery in --net mode. */
    bool noRetransmit = false;
    /** `--mutate=no-fast-retransmit`: RTO-only recovery. */
    bool noFastRetransmit = false;
    /** `--mutate=sack-ignore`: sender discards the SACK bitmap. */
    bool ignoreSack = false;
    /** `--limit-us=N` (--net mode): completion deadline in simulated
     *  microseconds — recovery that only limps home after the
     *  deadline is a lost completion, which is how the RTO-only
     *  mutations above become visible counterexamples. 0 = none. */
    double limitUs = 0;
    /** `--records=N` / `--record-bytes=N` (--net mode): workload
     *  size. The deadline checks use a longer streaming run than the
     *  default, so steady-state recovery throughput (where SACK and
     *  fast retransmit earn their keep) dominates the tail. */
    unsigned records = 16;
    std::uint32_t recordBytes = 1024;
    /** `--nodes=N` (--net mode): ring size (default 2). */
    unsigned netNodes = 2;
    /** `--topo=SPEC` (--net mode): backplane wiring (default
     *  crossbar; `mesh:WxH` / `torus:WxH` must match --nodes). */
    sim::TopologyConfig netTopo;
    bool traceReplay = false;
    bool quiet = false;
    bool ok = true;
};

struct SearchStats
{
    std::uint64_t transitions = 0;
    std::uint64_t states = 0;
    std::uint64_t pruned = 0;
    std::uint64_t deadNoops = 0;
};

struct Counterexample
{
    std::vector<std::string> trace;
    std::vector<audit::Violation> violations;
};

/** Rebuild a world and replay an action prefix (no auditing errors
 *  expected: the prefix was already explored). */
std::unique_ptr<World>
replayPrefix(const Options &opt, const std::vector<const Action *> &prefix)
{
    auto w = makeWorld(opt.mutations);
    for (const Action *a : prefix)
        apply(*w, *a);
    return w;
}

/**
 * Apply @p a on top of @p prefix in a fresh world. Returns the world
 * on success; fills @p cex and returns nullptr on a violation.
 */
std::unique_ptr<World>
step(const Options &opt, const std::vector<const Action *> &prefix,
     const Action &a, bool &applied, Counterexample &cex)
{
    applied = false;
    auto traceOf = [&] {
        std::vector<std::string> t;
        for (const Action *pa : prefix)
            t.push_back(pa->name);
        t.push_back(a.name);
        return t;
    };
    std::unique_ptr<World> w;
    try {
        w = replayPrefix(opt, prefix);
        applied = apply(*w, a);
    } catch (const audit::ViolationError &e) {
        cex.trace = traceOf();
        cex.violations = e.violations();
        return nullptr;
    }
    if (!applied)
        return w;
    // Post-action sweep: some actions (a plain latch STORE, a clean)
    // cross no kernel hook point.
    std::vector<audit::Violation> found = audit::checkAll(*w->sys);
    if (!found.empty()) {
        cex.trace = traceOf();
        cex.violations = std::move(found);
        return nullptr;
    }
    return w;
}

/**
 * Bounded DFS over distinct states. Returns true if a counterexample
 * was found.
 */
bool
explore(const Options &opt, const std::vector<Action> &alphabet,
        SearchStats &stats, Counterexample &cex)
{
    std::unordered_set<std::uint64_t> seen;

    struct Frame
    {
        std::vector<const Action *> prefix;
    };
    std::vector<Frame> stack;

    {
        auto w0 = makeWorld(opt.mutations);
        std::vector<audit::Violation> found = audit::checkAll(*w0->sys);
        if (!found.empty()) {
            cex.violations = std::move(found);
            return true;
        }
        seen.insert(stateHash(*w0));
        stats.states = 1;
        stack.push_back(Frame{});
    }

    while (!stack.empty()) {
        Frame fr = std::move(stack.back());
        stack.pop_back();
        if (fr.prefix.size() >= opt.depth)
            continue;

        // Rebuild this node's world once to evaluate enabledness.
        auto base = replayPrefix(opt, fr.prefix);
        for (const Action &a : alphabet) {
            if (!enabled(*base, a))
                continue;
            ++stats.transitions;
            bool applied = false;
            auto w = step(opt, fr.prefix, a, applied, cex);
            if (!w)
                return true;
            if (!applied) {
                ++stats.deadNoops;
                continue;
            }
            std::uint64_t h = stateHash(*w);
            if (!seen.insert(h).second) {
                ++stats.pruned;
                continue;
            }
            ++stats.states;
            if (stats.states > opt.maxStates) {
                std::cerr << "model-check: state cap ("
                          << opt.maxStates
                          << ") hit; exploration truncated\n";
                return false;
            }
            Frame next;
            next.prefix = fr.prefix;
            next.prefix.push_back(&a);
            stack.push_back(std::move(next));
        }
    }
    return false;
}

// ------------------------------------------------------------- replay

const Action *
findAction(const std::vector<Action> &alphabet, const std::string &name)
{
    for (const Action &a : alphabet) {
        if (a.name == name)
            return &a;
    }
    return nullptr;
}

void
dumpSpans()
{
    sim::JsonWriter w(std::cerr);
    span::registry().dumpJson(w, /*includeSpans=*/true);
    w.finish();
    std::cerr << "\n";
}

/**
 * Re-run an action list step by step with per-step reporting (and
 * optionally full tracing): the counterexample replay path.
 * Returns true if a violation was reproduced.
 */
bool
replayTrace(const Options &opt, const std::vector<Action> &alphabet,
            const std::vector<std::string> &names)
{
    if (opt.traceReplay)
        trace::applySpec("all", &std::cerr);
    auto w = makeWorld(opt.mutations);
    bool violated = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Action *a = findAction(alphabet, names[i]);
        if (!a) {
            std::cerr << "replay: unknown action '" << names[i]
                      << "'\n";
            return false;
        }
        std::cerr << "  " << (i + 1) << ". " << a->name;
        if (!enabled(*w, *a)) {
            std::cerr << " [disabled]\n";
            continue;
        }
        std::vector<audit::Violation> found;
        try {
            bool applied = apply(*w, *a);
            std::cerr << (applied ? "" : " [no-op]") << "\n";
            found = audit::checkAll(*w->sys);
        } catch (const audit::ViolationError &e) {
            std::cerr << " [mid-action violation]\n";
            found = e.violations();
        }
        for (const auto &v : found)
            std::cerr << "     " << audit::describe(v) << "\n";
        if (!found.empty()) {
            violated = true;
            break;
        }
    }
    dumpSpans();
    if (opt.traceReplay)
        trace::applySpec("", nullptr);
    return violated;
}

// --------------------------------------------------------------- main

void
usage(std::ostream &os)
{
    os << "usage: udma_model_check [options]\n"
          "  --depth=N            DFS depth bound (default 8)\n"
          "  --max-states=N       distinct-state cap (default 200000)\n"
          "  --mutate=LIST        comma list of seeded mutations:\n"
          "                       no-inval-on-switch (I1),\n"
          "                       no-proxy-shootdown (I2),\n"
          "                       no-tcache-shootdown (I2),\n"
          "                       no-proxy-writeprotect (I3),\n"
          "                       no-i4-busy-check (I4),\n"
          "                       no-retransmit (with --net: NI never\n"
          "                       re-sends, lost chunks stay lost),\n"
          "                       no-fast-retransmit (with --net: SACK\n"
          "                       scoreboard never fires, RTO-only),\n"
          "                       sack-ignore (with --net: sender\n"
          "                       discards SACK bitmaps entirely)\n"
          "  --limit-us=N         with --net: completion deadline in\n"
          "                       simulated us (default: none)\n"
          "  --records=N          with --net: records per direction\n"
          "                       (default 16)\n"
          "  --record-bytes=N     with --net: record payload bytes\n"
          "                       (default 1024)\n"
          "  --nodes=N            with --net: ring size (default 2)\n"
          "  --topo=SPEC          with --net: backplane wiring\n"
          "                       (crossbar, mesh:WxH, torus:WxH;\n"
          "                       a grid must match --nodes)\n"
          "  --net=SPEC           check exactly-once delivery on an\n"
          "                       unreliable backplane instead\n"
          "                       (SPEC as in --faults=, e.g.\n"
          "                       drop=0.2,corrupt=0.1,seed=7)\n"
          "  --replay=LIST        comma list of actions to replay\n"
          "                       instead of exploring\n"
          "  --trace=all          full tracing during --replay\n"
          "  --list-actions       print the action alphabet\n"
          "  --quiet              suppress the exploration summary\n";
}

bool
parseMutations(const std::string &list, os::MutationKnobs &out,
               Options &opt)
{
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item == "no-retransmit") {
            opt.noRetransmit = true;
        } else if (item == "no-fast-retransmit") {
            opt.noFastRetransmit = true;
        } else if (item == "sack-ignore") {
            opt.ignoreSack = true;
        } else if (item == "no-inval-on-switch") {
            out.skipInvalOnSwitch = true;
        } else if (item == "no-proxy-shootdown") {
            out.skipProxyShootdown = true;
        } else if (item == "no-tcache-shootdown") {
            out.skipTcacheShootdown = true;
        } else if (item == "no-proxy-writeprotect") {
            out.skipProxyWriteProtect = true;
        } else if (item == "no-i4-busy-check") {
            out.ignoreI4PageBusy = true;
        } else {
            std::cerr << "unknown mutation '" << item << "'\n";
            return false;
        }
    }
    return true;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

/**
 * --net mode: instead of the invariant DFS, run the ring workload on
 * an unreliable backplane (shrimp/fault.hh) and check the reliability
 * property: every record is delivered exactly once — no sender flow
 * retains unacknowledged chunks and every receiver finishes. With the
 * no-retransmit mutation the NI never re-sends, so the first dropped
 * chunk (or dropped ack) becomes a machine-readable lost-completion
 * trace and the check fails — demonstrating the recovery layer is
 * what makes the property hold, exactly like the I1-I4 mutations.
 */
int
runNetCheck(const Options &opt)
{
    net::FaultConfig fc;
    if (!net::parseFaultSpec(opt.netSpec, fc, &std::cerr)) {
        usage(std::cerr);
        return 2;
    }
    fc.disableRetransmit = fc.disableRetransmit || opt.noRetransmit;
    fc.disableFastRetransmit =
        fc.disableFastRetransmit || opt.noFastRetransmit;
    fc.ignoreSack = fc.ignoreSack || opt.ignoreSack;

    workload::RingConfig rc;
    rc.nodes = opt.netNodes;
    rc.topology = opt.netTopo;
    if (!rc.topology.flat() && rc.topology.gridNodes() != rc.nodes) {
        std::cerr << "--topo=" << rc.topology.describe() << " wires "
                  << rc.topology.gridNodes() << " nodes but --nodes="
                  << rc.nodes << "\n";
        return 2;
    }
    rc.records = opt.records;
    rc.recordBytes = opt.recordBytes;
    rc.shards = 1;
    // The deadline turns "recovery exists" into "recovery performs":
    // a mutation that only limps home on serial RTO expiries blows
    // the budget and surfaces as the same lost-completion trace a
    // truly dead flow would leave.
    rc.limit = opt.limitUs > 0 ? Tick(opt.limitUs * tickUs)
                               : Tick(5) * tickSec;
    rc.faults = fc;
    // Start the flight recorder from a clean slate so a violation dump
    // below shows only this run's tail of simulated events.
    sim::FlightRecorder::clearAll();
    workload::RingResult r = workload::runRing(rc);

    if (!opt.quiet) {
        std::cout << "net-check: " << rc.nodes << "-node ring on "
                  << rc.topology.describe() << ", " << rc.records
                  << " records, faults '" << opt.netSpec
                  << "'" << (fc.disableRetransmit
                                 ? " (retransmission disabled)"
                                 : "")
                  << (fc.disableFastRetransmit
                          ? " (fast retransmit disabled)"
                          : "")
                  << (fc.ignoreSack ? " (SACK ignored)" : "");
        if (opt.limitUs > 0)
            std::cout << " deadline " << opt.limitUs << " us";
        std::cout << "\n";
        std::cout << "net-check: links dropped " << r.faults.dropped
                  << ", corrupted " << r.faults.corrupted
                  << ", duplicated " << r.faults.duplicated
                  << ", delayed " << r.faults.delayed << "; NI resent "
                  << r.retransmits << " chunks over " << r.timeouts
                  << " timeouts\n";
    }

    if (r.nodesDone < rc.nodes || r.chunksUnacked > 0) {
        std::cout << "VIOLATION: lost completion — "
                  << (rc.nodes - r.nodesDone) << " of " << rc.nodes
                  << " receivers never finished";
        if (opt.limitUs > 0)
            std::cout << " by the " << opt.limitUs << " us deadline";
        std::cout << ", " << r.chunksUnacked
                  << " chunks never acknowledged:\n";
        for (const auto &f : r.lostFlows)
            std::cout << "  " << f << "\n";
        std::cout << "  (links dropped " << r.faults.dropped
                  << " data chunks; retransmission "
                  << (fc.disableRetransmit ? "disabled" : "enabled")
                  << ")\n";
        // Post-mortem: the queues died with the System inside runRing,
        // so this prints the graveyard snapshots of their final events.
        sim::FlightRecorder::dumpAll(std::cout);
        return 1;
    }
    std::cout << "net-check: all " << r.messagesDelivered
              << " messages delivered exactly once ("
              << r.rxDupDropped << " duplicates and "
              << r.rxCorruptDropped
              << " corrupt chunks discarded at receivers) in "
              << ticksToUs(r.simTicks) << " us of simulated time\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool list_actions = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--depth=", 0) == 0) {
            // std::stoul throws on garbage ("--depth=banana") and on
            // out-of-range values; turn both into a usage error
            // instead of an uncaught-exception abort.
            try {
                opt.depth = unsigned(std::stoul(arg.substr(8)));
            } catch (const std::exception &) {
                std::cerr << "--depth: want a number, got '"
                          << arg.substr(8) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--max-states=", 0) == 0) {
            try {
                opt.maxStates = std::stoull(arg.substr(13));
            } catch (const std::exception &) {
                std::cerr << "--max-states: want a number, got '"
                          << arg.substr(13) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--mutate=", 0) == 0) {
            if (!parseMutations(arg.substr(9), opt.mutations, opt))
                return 2;
        } else if (arg.rfind("--records=", 0) == 0) {
            try {
                opt.records = unsigned(std::stoul(arg.substr(10)));
            } catch (const std::exception &) {
                std::cerr << "--records: want a number, got '"
                          << arg.substr(10) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--record-bytes=", 0) == 0) {
            try {
                opt.recordBytes =
                    std::uint32_t(std::stoul(arg.substr(15)));
            } catch (const std::exception &) {
                std::cerr << "--record-bytes: want a number, got '"
                          << arg.substr(15) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--limit-us=", 0) == 0) {
            try {
                opt.limitUs = std::stod(arg.substr(11));
            } catch (const std::exception &) {
                std::cerr << "--limit-us: want a number, got '"
                          << arg.substr(11) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--nodes=", 0) == 0) {
            try {
                opt.netNodes = unsigned(std::stoul(arg.substr(8)));
            } catch (const std::exception &) {
                std::cerr << "--nodes: want a number, got '"
                          << arg.substr(8) << "'\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--topo=", 0) == 0) {
            if (!sim::parseTopologySpec(arg.substr(7), opt.netTopo,
                                        &std::cerr)) {
                usage(std::cerr);
                return 2;
            }
        } else if (arg.rfind("--net=", 0) == 0) {
            opt.netSpec = arg.substr(6);
        } else if (arg.rfind("--replay=", 0) == 0) {
            opt.replay = splitList(arg.substr(9));
        } else if (arg == "--trace=all") {
            opt.traceReplay = true;
        } else if (arg == "--list-actions") {
            list_actions = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (!opt.netSpec.empty())
        return runNetCheck(opt);

    const std::vector<Action> alphabet = actionAlphabet();
    if (list_actions) {
        for (const Action &a : alphabet)
            std::cout << a.name << "\n";
        return 0;
    }

    if (!opt.replay.empty()) {
        std::cerr << "replaying " << opt.replay.size() << " actions:\n";
        bool violated = replayTrace(opt, alphabet, opt.replay);
        return violated ? 1 : 0;
    }

    SearchStats stats;
    Counterexample cex;
    bool found = explore(opt, alphabet, stats, cex);

    if (found) {
        std::cout << "VIOLATION found after " << cex.trace.size()
                  << " actions:\n";
        for (std::size_t i = 0; i < cex.trace.size(); ++i)
            std::cout << "  " << (i + 1) << ". " << cex.trace[i]
                      << "\n";
        for (const auto &v : cex.violations)
            std::cout << "  " << audit::describe(v) << "\n";
        std::string replay;
        for (std::size_t i = 0; i < cex.trace.size(); ++i)
            replay += (i ? "," : "") + cex.trace[i];
        std::cout << "replay with: udma_model_check --replay=" << replay
                  << " --trace=all";
        if (opt.mutations.any())
            std::cout << " (plus the same --mutate= flags)";
        std::cout << "\n\ncounterexample replay:\n";
        replayTrace(opt, alphabet, cex.trace);
        return 1;
    }

    if (!opt.quiet) {
        std::cout << "model-check: depth=" << opt.depth << " states="
                  << stats.states << " transitions="
                  << stats.transitions << " pruned=" << stats.pruned
                  << " no-ops=" << stats.deadNoops
                  << " violations=0\n";
    }
    return 0;
}
