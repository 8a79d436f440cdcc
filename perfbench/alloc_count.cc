#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

/**
 * One padded counter per thread slot: the sharded engine's workers
 * allocate concurrently, and a single shared atomic would bounce its
 * cache line on every event. Threads beyond the slot count share
 * slots, which stays exact (the adds are atomic), just slower.
 */
constexpr unsigned slotCount = 64;

struct alignas(64) Slot
{
    std::atomic<std::uint64_t> n{0};
};

Slot g_slots[slotCount];
std::atomic<unsigned> g_nextSlot{0};

void
countOne()
{
    thread_local unsigned slot =
        g_nextSlot.fetch_add(1, std::memory_order_relaxed) % slotCount;
    g_slots[slot].n.fetch_add(1, std::memory_order_relaxed);
}

void *
allocate(std::size_t n)
{
    countOne();
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    countOne();
    const std::size_t a = std::size_t(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench
{

std::uint64_t
heapAllocations()
{
    std::uint64_t sum = 0;
    for (const Slot &s : g_slots)
        sum += s.n.load(std::memory_order_relaxed);
    return sum;
}

} // namespace perfbench

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
