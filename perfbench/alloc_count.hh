/**
 * @file
 * Process-wide count of `operator new` calls, from a replacement of
 * the global allocation functions linked into the benchmark binary.
 */

#ifndef SHRIMP_PERFBENCH_ALLOC_COUNT_HH
#define SHRIMP_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench
{

/** `operator new` calls (every form) so far, summed over all threads.
 *  Exact once the threads that allocated have been joined. */
std::uint64_t heapAllocations();

} // namespace perfbench

#endif // SHRIMP_PERFBENCH_ALLOC_COUNT_HH
