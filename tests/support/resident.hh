/**
 * @file
 * The test process's anonymous resident set in bytes, from
 * /proc/self/statm, for tests that pin which simulated memory the
 * host commits.
 */

#ifndef SHRIMP_TESTS_SUPPORT_RESIDENT_HH
#define SHRIMP_TESTS_SUPPORT_RESIDENT_HH

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>

namespace shrimp::test
{

/** Host page size in bytes. */
inline std::uint64_t
hostPageBytes()
{
    return std::uint64_t(sysconf(_SC_PAGESIZE));
}

/**
 * Anonymous resident bytes now: statm's resident pages less its
 * shared (file-backed) ones. Code that runs for the first time
 * faults in file pages 64 KiB at a time, which is noise here. Reads
 * into a stack buffer: a heap allocation could itself commit pages
 * (a sanitizer's allocator quarantines freed blocks). A failed test
 * and 0 if statm cannot be read.
 */
inline std::uint64_t
residentBytes()
{
    char buf[128] = {};
    const int fd = open("/proc/self/statm", O_RDONLY);
    const ssize_t n = fd < 0 ? -1 : read(fd, buf, sizeof buf - 1);
    if (fd >= 0)
        close(fd);
    unsigned long long size = 0;
    unsigned long long resident = 0;
    unsigned long long shared = 0;
    if (n <= 0
        || std::sscanf(buf, "%llu %llu %llu", &size, &resident, &shared)
               != 3) {
        ADD_FAILURE() << "cannot read /proc/self/statm";
        return 0;
    }
    return (resident - shared) * hostPageBytes();
}

/** Resident bytes added since @p before (0 if the set shrank). */
inline std::uint64_t
residentGrowth(std::uint64_t before)
{
    const std::uint64_t now = residentBytes();
    return now > before ? now - before : 0;
}

} // namespace shrimp::test

#endif // SHRIMP_TESTS_SUPPORT_RESIDENT_HH
