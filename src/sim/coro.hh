/**
 * @file
 * Coroutine plumbing for simulated software.
 *
 * User programs and kernel daemons in the simulator are written as
 * C++20 coroutines returning ProcTask. Every simulated operation
 * (memory reference, computation, syscall) is an awaitable supplied by
 * the OS layer; awaiting it suspends the coroutine, schedules the
 * operation's completion on the event queue, and the scheduler resumes
 * the coroutine when the simulated CPU gets back to it. This gives an
 * honest interleaving model: context switches can happen between any
 * two operations — exactly the window the paper's invariant I1 is
 * about.
 */

#ifndef SHRIMP_SIM_CORO_HH
#define SHRIMP_SIM_CORO_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <utility>

#include "sim/logging.hh"

// AddressSanitizer must see every frame's and payload's real
// lifetime, so the pool below is compiled out of ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define SHRIMP_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHRIMP_FRAME_POOL 0
#endif
#endif
#ifndef SHRIMP_FRAME_POOL
#define SHRIMP_FRAME_POOL 1
#endif

namespace shrimp::sim
{

/**
 * Recycles coroutine frames and the NI's chunk payload buffers. Every
 * call of a Task helper (a UDMA initiation, a channel send, a
 * completion poll) creates a frame, and one simulated transfer makes
 * several; the promise types below get them here. Every chunk on the
 * backplane needs a payload buffer or two (net::Payload), and they
 * come from here too. A released block (up to 2 KiB) goes onto the
 * releasing thread's free list for its 64-byte size class and the
 * next block of that class reuses it, so a simulation in steady state
 * allocates no frames and no payloads. Each thread (the caller, or a
 * sharded-engine worker) has its own lists, so the pool takes no
 * lock; a block released on another thread than the one that
 * allocated it (a payload delivered to another shard's node) joins
 * the releasing thread's lists. The lists are bounded per class and
 * freed when their thread exits.
 */
class FramePool
{
  public:
    /** False in AddressSanitizer builds: blocks come from the heap. */
    static constexpr bool enabled = SHRIMP_FRAME_POOL;

    static void *allocate(std::size_t bytes);
    static void release(void *frame, std::size_t bytes) noexcept;
};

/** Base of a promise type whose coroutine frames use FramePool. */
struct PooledFrame
{
    static void *
    operator new(std::size_t bytes)
    {
        return FramePool::allocate(bytes);
    }

    static void
    operator delete(void *frame, std::size_t bytes) noexcept
    {
        FramePool::release(frame, bytes);
    }
};

/**
 * A fire-and-forget coroutine representing a simulated thread of
 * control. The owner starts it with resume() and is notified of
 * completion through the onDone callback; exceptions thrown inside the
 * coroutine are captured and rethrown by rethrowIfFailed() so test
 * failures inside simulated programs surface in the host test harness.
 */
class ProcTask
{
  public:
    struct promise_type : PooledFrame
    {
        std::exception_ptr exception;
        std::function<void()> onDone;

        ProcTask
        get_return_object()
        {
            return ProcTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            void
            await_suspend(
                std::coroutine_handle<promise_type> h) noexcept
            {
                auto &p = h.promise();
                if (p.onDone)
                    p.onDone();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    ProcTask() = default;

    explicit ProcTask(std::coroutine_handle<promise_type> h) : handle_(h) {}

    ProcTask(const ProcTask &) = delete;
    ProcTask &operator=(const ProcTask &) = delete;

    ProcTask(ProcTask &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    ProcTask &
    operator=(ProcTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    ~ProcTask() { destroy(); }

    /** True if a coroutine is attached. */
    bool valid() const { return bool(handle_); }

    /** True once the coroutine body has finished. */
    bool done() const { return handle_ && handle_.done(); }

    /**
     * Resume the coroutine (also used for the initial start, since
     * initial_suspend is suspend_always).
     */
    void
    resume()
    {
        SHRIMP_ASSERT(handle_ && !handle_.done(),
                      "resuming an invalid or finished task");
        handle_.resume();
    }

    /** Install the completion callback. Must precede the first resume. */
    void
    setOnDone(std::function<void()> fn)
    {
        SHRIMP_ASSERT(handle_, "no coroutine attached");
        handle_.promise().onDone = std::move(fn);
    }

    /** Rethrow any exception the coroutine body terminated with. */
    void
    rethrowIfFailed() const
    {
        if (handle_ && handle_.done() && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
};

/**
 * An awaitable sub-coroutine returning T. Lets simulated software be
 * factored into helper routines (e.g. the user-level UDMA library's
 * initiate-with-retry recipe) that themselves await simulated
 * operations. Completion hands control back to the awaiting coroutine
 * via symmetric transfer.
 */
template <typename T>
class Task
{
  public:
    struct promise_type : PooledFrame
    {
        T value{};
        std::exception_ptr exception;
        std::coroutine_handle<> continuation;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_value(T v) { value = std::move(v); }

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            if (handle_)
                handle_.destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> awaiting) noexcept
    {
        handle_.promise().continuation = awaiting;
        return handle_;
    }

    T
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
        return std::move(handle_.promise().value);
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

/** Task specialization for void-returning helper routines. */
template <>
class Task<void>
{
  public:
    struct promise_type : PooledFrame
    {
        std::exception_ptr exception;
        std::coroutine_handle<> continuation;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            if (handle_)
                handle_.destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> awaiting) noexcept
    {
        handle_.promise().continuation = awaiting;
        return handle_;
    }

    void
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_CORO_HH
