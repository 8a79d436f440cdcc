#include "sim/coro.hh"

#include <cstdint>
#include <new>

namespace shrimp::sim
{

namespace
{

/** Frames are binned in 64-byte classes up to 2 KiB; larger ones
 *  (rare: a whole simulated program's frame) go to the heap. */
constexpr std::size_t granule = 64;
constexpr std::size_t sizeClasses = 32;
/** Per-class bound on the frames a thread keeps cached. */
constexpr std::uint32_t maxCached = 1024;

struct FreeFrame
{
    FreeFrame *next;
};

/** One thread's cached frames, freed when the thread exits. */
struct Cache
{
    FreeFrame *head[sizeClasses] = {};
    std::uint32_t count[sizeClasses] = {};

    ~Cache()
    {
        for (FreeFrame *f : head) {
            while (f) {
                FreeFrame *next = f->next;
                ::operator delete(f);
                f = next;
            }
        }
    }
};

// shrimp-lint: shard-safe(thread-local: a thread recycles frames only through its own lists)
thread_local Cache t_cache;

std::size_t
sizeClass(std::size_t bytes)
{
    return bytes == 0 ? 0 : (bytes - 1) / granule;
}

} // namespace

void *
FramePool::allocate(std::size_t bytes)
{
    const std::size_t cls = sizeClass(bytes);
    if constexpr (enabled) {
        if (cls < sizeClasses) {
            Cache &c = t_cache;
            if (FreeFrame *f = c.head[cls]) {
                c.head[cls] = f->next;
                --c.count[cls];
                return f;
            }
            // The whole class, so the frame can serve any size in it.
            return ::operator new((cls + 1) * granule);
        }
    }
    return ::operator new(bytes);
}

void
FramePool::release(void *frame, std::size_t bytes) noexcept
{
    const std::size_t cls = sizeClass(bytes);
    if constexpr (enabled) {
        Cache &c = t_cache;
        if (cls < sizeClasses && c.count[cls] < maxCached) {
            auto *f = static_cast<FreeFrame *>(frame);
            f->next = c.head[cls];
            c.head[cls] = f;
            ++c.count[cls];
            return;
        }
    }
    ::operator delete(frame);
}

} // namespace shrimp::sim
