#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/logging.hh"

namespace mopt {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    checkUser(num_threads >= 1, "ThreadPool needs >= 1 thread");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // Stopped, and every queued task has run.
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelForIndexedImpl(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)> &body,
    std::size_t max_helpers)
{
    if (count == 0)
        return;
    if (grain == 0)
        grain = 1;

    // All loop state is heap-allocated and shared with every queued
    // task: the call may return (all iterations claimed and finished)
    // before a worker ever dequeues its copy of the task, so the task
    // must not reference any caller-stack state. A stale task sees
    // next >= count and exits without touching `body`.
    struct State
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t count = 0;
        std::size_t grain = 1;
        const std::function<void(std::size_t, std::size_t, std::size_t)>
            *body = nullptr;
        std::exception_ptr first_error;
        std::mutex mutex;
        std::condition_variable done_cv;
    };
    auto state = std::make_shared<State>();
    state->count = count;
    state->grain = grain;
    state->body = &body;

    auto run = [state](std::size_t worker) {
        for (;;) {
            const std::size_t begin =
                state->next.fetch_add(state->grain);
            if (begin >= state->count)
                break;
            const std::size_t end =
                std::min(begin + state->grain, state->count);
            try {
                (*state->body)(worker, begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->first_error)
                    state->first_error = std::current_exception();
            }
            const std::size_t claimed = end - begin;
            if (state->done.fetch_add(claimed) + claimed ==
                state->count) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->done_cv.notify_all();
            }
        }
    };

    const std::size_t chunks = (count + grain - 1) / grain;
    const std::size_t helpers =
        std::min({workers_.size(), chunks, max_helpers});
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < helpers; ++i)
            tasks_.push([run, i] { run(i + 1); });
    }
    cv_.notify_all();

    // The caller participates as worker 0, then waits for stragglers.
    // `body` is only dereferenced for claimed iterations, all of which
    // complete before the wait below returns, so the caller's
    // reference stays valid for exactly as long as any task can use it.
    run(0);
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done_cv.wait(
            lock, [&] { return state->done.load() >= state->count; });
    }
    if (state->first_error)
        std::rethrow_exception(state->first_error);
}

std::size_t
threadsOrHardware(int threads)
{
    if (threads > 0)
        return static_cast<std::size_t>(threads);
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool &
globalPool()
{
    static ThreadPool pool(threadsOrHardware(0));
    return pool;
}

} // namespace mopt
