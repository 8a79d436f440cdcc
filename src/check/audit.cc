#include "check/audit.hh"

#include <sstream>

#include "core/system.hh"

namespace shrimp::audit
{

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::I1Atomicity: return "I1";
      case Invariant::I2Mapping: return "I2";
      case Invariant::I3Content: return "I3";
      case Invariant::I4Registers: return "I4";
    }
    return "I?";
}

std::string
describe(const Violation &v)
{
    std::ostringstream os;
    os << invariantName(v.invariant) << " node" << v.node;
    if (v.pid != invalidPid)
        os << " pid" << v.pid;
    if (v.device >= 0)
        os << " dev" << v.device;
    os << " addr=0x" << std::hex << v.addr << std::dec << ": "
       << v.detail;
    return os.str();
}

namespace
{

/** Violation under construction, bound to one node. */
struct Reporter
{
    NodeId node;
    std::vector<Violation> &out;

    void
    add(Invariant inv, Pid pid, int device, Addr addr,
        const std::string &detail)
    {
        Violation v;
        v.invariant = inv;
        v.node = node;
        v.pid = pid;
        v.device = device;
        v.addr = addr;
        v.detail = detail;
        out.push_back(std::move(v));
    }
};

/**
 * I2/I3 over one process's page table: every valid proxy PTE must
 * shadow a valid real PTE of the same process (I2), and a writable
 * memory-proxy PTE implies the real page is dirty under the
 * WriteProtectProxy policy (I3).
 */
void
checkProcessTables(os::Kernel &kernel, os::Process &proc, Reporter &rep)
{
    const vm::AddressLayout &layout = kernel.layout();
    const Pid pid = proc.pid();
    vm::PageTable &pt = proc.pageTable();

    pt.forEach([&](std::uint64_t vpn, vm::Pte &pte) {
        if (!pte.valid)
            return;
        Addr va = Addr(vpn) * layout.pageBytes();
        vm::Decoded vdec = layout.decode(va);
        if (vdec.space == vm::Space::Invalid) {
            rep.add(Invariant::I2Mapping, pid, -1, va,
                    "valid PTE for a hole in the address map");
            return;
        }
        if (vdec.space == vm::Space::Memory) {
            // Real mapping: the frame must be owned by (pid, vpn).
            vm::Decoded fdec = layout.decode(pte.frameAddr);
            if (fdec.space != vm::Space::Memory
                    || pte.frameAddr >= layout.memBytes()) {
                rep.add(Invariant::I2Mapping, pid, -1, va,
                        "real PTE points outside physical memory");
                return;
            }
            std::uint64_t frame = layout.pageOf(pte.frameAddr);
            const auto &fi = kernel.frameInfo(frame);
            if (!fi.used || fi.pid != pid || fi.vpn != vpn) {
                rep.add(Invariant::I2Mapping, pid, -1, va,
                        "real PTE's frame not owned by this (pid, vpn) "
                        "in the frame table");
            }
            return;
        }

        const int dev = int(vdec.device);
        if (vdec.space == vm::Space::DevProxy) {
            // Device-proxy mapping: must target the same device's
            // device proxy window in physical space.
            vm::Decoded fdec = layout.decode(pte.frameAddr);
            if (fdec.space != vm::Space::DevProxy
                    || fdec.device != vdec.device) {
                rep.add(Invariant::I2Mapping, pid, dev, va,
                        "device-proxy PTE does not target the device's "
                        "proxy window");
            }
            return;
        }

        // Memory-proxy mapping (I2 proper): find the real PTE it
        // shadows. The virtual proxy page of real va R is PROXY(R),
        // so decode() already recovered R in vdec.offset.
        Addr real_va = vdec.offset;
        std::uint64_t real_vpn = layout.pageOf(real_va);
        const vm::Pte *real = pt.lookup(real_vpn);
        if (!real || !real->valid) {
            rep.add(Invariant::I2Mapping, pid, dev, va,
                    "valid memory-proxy PTE with no valid real PTE "
                    "(stale after page-out?)");
            return;
        }
        Addr expect = layout.proxy(real->frameAddr, vdec.device);
        if (pte.frameAddr != expect) {
            rep.add(Invariant::I2Mapping, pid, dev, va,
                    "memory-proxy PTE frame is not PROXY(real frame)");
            return;
        }
        if (pte.user != real->user) {
            rep.add(Invariant::I2Mapping, pid, dev, va,
                    "memory-proxy PTE user bit differs from real PTE");
        }
        if (pte.writable && !real->writable) {
            rep.add(Invariant::I2Mapping, pid, dev, va,
                    "memory-proxy PTE writable but real PTE is not");
        }

        // I3 (WriteProtectProxy): writable proxy => real page dirty.
        // Under ProxyDirtyBits the proxy carries its own dirty bit and
        // the page counts dirty if either bit is set, so writability
        // over a clean page is architecturally fine there.
        if (kernel.i3Policy() == os::I3Policy::WriteProtectProxy
                && pte.writable && !real->dirty) {
            rep.add(Invariant::I3Content, pid, dev, va,
                    "writable memory-proxy PTE over a clean real page");
        }
    });
}

/**
 * Frame-table reverse check (I2): every used frame is mapped by a
 * valid real PTE of its recorded owner, at the recorded vpn, pointing
 * back at the frame.
 */
void
checkFrameTable(os::Kernel &kernel, Reporter &rep)
{
    const vm::AddressLayout &layout = kernel.layout();
    std::uint64_t nframes = layout.memBytes() / layout.pageBytes();
    for (std::uint64_t frame = 0; frame < nframes; ++frame) {
        const auto &fi = kernel.frameInfo(frame);
        if (!fi.used)
            continue;
        Addr frame_base = Addr(frame) * layout.pageBytes();
        os::Process *owner = kernel.findProcess(fi.pid);
        if (!owner) {
            rep.add(Invariant::I2Mapping, fi.pid, -1, frame_base,
                    "used frame owned by a nonexistent process");
            continue;
        }
        const vm::Pte *pte = owner->pageTable().lookup(fi.vpn);
        if (!pte || !pte->valid || pte->frameAddr != frame_base) {
            rep.add(Invariant::I2Mapping, fi.pid, -1, frame_base,
                    "used frame not mapped back by its owner's PTE");
        }
    }
}

/**
 * I1: a latched DESTINATION/COUNT must belong to the process whose
 * address space is active. I4: every page referenced by a running or
 * queued transfer — and any latched real-memory DESTINATION page —
 * must still be resident.
 */
void
checkControllers(os::Kernel &kernel, vm::Mmu &mmu, Reporter &rep)
{
    const vm::AddressLayout &layout = kernel.layout();

    // Identify the process owning the active address space.
    Pid active_pid = invalidPid;
    if (vm::PageTable *table = mmu.activeTable()) {
        kernel.forEachProcess([&](os::Process &p) {
            if (&p.pageTable() == table)
                active_pid = p.pid();
        });
    }

    for (dma::UdmaController *ctrl : kernel.controllers()) {
        const int dev = int(ctrl->deviceIndex());

        Pid owner = ctrl->latchOwnerPid();
        if (owner != invalidPid && active_pid != invalidPid
                && owner != active_pid) {
            rep.add(Invariant::I1Atomicity, owner, dev, 0,
                    "latched DESTINATION issued by pid"
                        + std::to_string(owner)
                        + " survived a switch to pid"
                        + std::to_string(active_pid)
                        + " (missed Inval)");
        }

        for (const auto &[page_base, refs] : ctrl->busyPages()) {
            std::uint64_t frame = layout.pageOf(page_base);
            if (page_base >= layout.memBytes()
                    || !kernel.frameInfo(frame).used) {
                rep.add(Invariant::I4Registers, invalidPid, dev,
                        page_base,
                        "transfer references a non-resident page ("
                            + std::to_string(refs) + " refs)");
            }
        }

        Addr dest_page = 0;
        if (ctrl->destLoadedPage(dest_page)
                && (dest_page >= layout.memBytes()
                    || !kernel.frameInfo(layout.pageOf(dest_page))
                            .used)) {
            rep.add(Invariant::I4Registers, owner, dev, dest_page,
                    "latched DESTINATION names a non-resident page "
                    "(evicted without Inval)");
        }
    }
}

/**
 * Proxy-translation-cache coherence (I2): every cached entry must
 * point at exactly the PTE slot the owner's page table holds for that
 * vpn. Compared by pointer identity: the page table answers nullptr
 * for a removed vpn, so an entry left behind by a missed shootdown
 * (the no-tcache-shootdown mutation) is flagged even though its slot
 * still exists and reads invalid.
 */
void
checkTranslationCache(os::Kernel &kernel, Reporter &rep)
{
    const vm::AddressLayout &layout = kernel.layout();
    kernel.proxyTcache().forEach(
        [&](const os::ProxyTranslationCache::Entry &e) {
            Addr va = Addr(e.vpn) * layout.pageBytes();
            os::Process *owner = kernel.findProcess(e.pid);
            if (!owner) {
                rep.add(Invariant::I2Mapping, e.pid, -1, va,
                        "translation-cache entry for a nonexistent "
                        "process");
                return;
            }
            if (owner->pageTable().lookup(e.vpn) != e.pte) {
                rep.add(Invariant::I2Mapping, e.pid, -1, va,
                        "stale proxy-translation-cache entry: cached "
                        "PTE is not the page table's PTE (missed "
                        "shootdown)");
            }
        });
}

} // namespace

void
checkNode(core::Node &node, std::vector<Violation> &out)
{
    Reporter rep{node.id(), out};
    os::Kernel &kernel = node.kernel();
    kernel.forEachProcess([&](os::Process &p) {
        if (p.state() == os::ProcState::Zombie)
            return;
        checkProcessTables(kernel, p, rep);
    });
    checkFrameTable(kernel, rep);
    checkControllers(kernel, node.mmu(), rep);
    checkTranslationCache(kernel, rep);
}

std::vector<Violation>
checkAll(core::System &sys)
{
    std::vector<Violation> out;
    for (unsigned i = 0; i < sys.nodeCount(); ++i)
        checkNode(sys.node(i), out);
    return out;
}

} // namespace shrimp::audit
