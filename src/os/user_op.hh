/**
 * @file
 * The operations a simulated user program can perform.
 *
 * Every operation is awaited from inside a process coroutine, and
 * every await is a possible switch point, so the paper's atomicity
 * concern (a switch between the initiating STORE and LOAD) is directly
 * expressible and testable. An op whose completion no pending event of
 * the node can precede completes in place and the process runs on
 * without suspending (Kernel::issueOp); anything that could switch
 * first — a quantum expiry, an interrupt, a device completion due
 * earlier — is a pending event, so the op then suspends as before.
 *
 * A Poll is a spin on one memory word: a load repeated until it reads
 * the expected value. Each load is an ordinary reference, but while
 * only the spin itself could fire next on the node the kernel parks
 * the pending load as an event stream (Kernel::issuePoll), and the
 * process resumes only when the word matches or it must switch; a
 * load that cannot park completes the poll on its own.
 */

#ifndef SHRIMP_OS_USER_OP_HH
#define SHRIMP_OS_USER_OP_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace shrimp::os
{

class Kernel;
class Process;

/** Result handed back to the coroutine by await_resume. */
struct OpResult
{
    /** Loaded value (loads, polls and some syscalls); a poll's last
     *  load. */
    std::uint64_t value = 0;
    /** Poll: the loads it issued, the last included. */
    std::uint64_t loads = 0;
};

/** Control block a syscall implementation fills in. */
struct SyscallControl
{
    /** Extra kernel-time latency beyond the trap cost. */
    Tick extraLatency = 0;
    /** Return value delivered to the user. */
    std::uint64_t result = 0;
    /** If true, the process blocks; a later wake() delivers result2. */
    bool blocks = false;
};

/** One user-level operation. */
struct UserOp
{
    enum class Kind
    {
        Load,    ///< 64-bit load from a virtual address
        Store,   ///< 64-bit store to a virtual address
        Compute, ///< retire N instructions (cached work)
        Yield,   ///< voluntarily give up the CPU
        Syscall, ///< trap into the kernel
        Poll,    ///< 64-bit loads from a virtual address while they
                 ///< can only read a word other than `value`
    };

    Kind kind = Kind::Compute;
    Addr vaddr = 0;
    /** Store datum / instruction count / the value a poll waits for. */
    std::uint64_t value = 0;
    /** Syscall body, run in kernel context at dispatch time. */
    std::function<void(Kernel &, Process &, SyscallControl &)> syscall;

    OpResult result;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_USER_OP_HH
