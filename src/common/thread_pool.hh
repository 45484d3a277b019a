/**
 * @file
 * A fixed-size thread pool with blocking parallel-for handles. Library
 * code runs on one process-wide instance, globalPool(): the
 * optimizer's flattened solve fan-out, the solve scheduler's
 * concurrent solves and the parallel tiled executor (Sec. 7 of the
 * paper) each take a width-capped SubWidth handle on it, so no
 * library call starts compute threads of its own.
 *
 * The worker-indexed scratch contract (SubWidth::parallelForIndexed):
 * every participating thread — the caller counts as worker 0 — has a
 * stable worker id in [0, size()], so a caller that preallocates
 * size()+1 scratch slots and indexes them by worker id gets
 * lock-free, allocation-free per-thread state for the duration of the
 * call. Iteration-to-worker assignment is dynamic (an atomic chunk
 * counter) and therefore nondeterministic; deterministic callers must
 * write results into per-iteration slots and reduce in iteration
 * order afterwards, the way optimizeConv does (see
 * docs/ARCHITECTURE.md, "Threading and determinism invariants").
 */

#ifndef MOPT_COMMON_THREAD_POOL_HH
#define MOPT_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mopt {

/**
 * Fixed-size worker pool. Work reaches it only through SubWidth
 * handles, whose parallel-for calls block until every iteration
 * completes. Exceptions inside the body propagate out of the call
 * (first one wins).
 *
 * Several callers may issue parallel-for calls on one pool
 * concurrently; their tasks interleave in the shared queue and each
 * call completes independently (every caller participates in its own
 * loop, so progress never depends on a helper being dequeued). The
 * handle's width caps how many helpers one call may recruit, which
 * partitions the pool's width across concurrent callers (the solve
 * scheduler runs N concurrent solves at 1/N width each this way).
 */
class ThreadPool
{
  public:
    /**
     * A width-capped view of a pool: at most width()-1 helper tasks
     * are enqueued per call (the caller is always the width()-th
     * participant). Copyable; must not outlive the pool.
     */
    class SubWidth
    {
      public:
        /** Helper count this handle may recruit: participants =
         *  size() + 1. */
        std::size_t size() const { return width_ - 1; }

        /** Max participating threads, caller included (>= 1). */
        std::size_t width() const { return width_; }

        /** Run body(i) for i in [0, count) across the handle's width
         *  and wait for all of them: parallelForIndexed one iteration
         *  at a time. The calling thread also executes work. */
        void parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &body)
        {
            parallelForIndexed(count, 1,
                               [&body](std::size_t, std::size_t i,
                                       std::size_t) { body(i); });
        }

        /**
         * Worker-indexed, dynamically chunked variant: participating
         * threads repeatedly claim the next @p grain iterations from a
         * shared atomic counter and call body(worker, begin, end). The
         * worker id is stable per participating thread and lies in
         * [0, size()] (the calling thread is worker 0), so callers can
         * keep per-worker scratch state with no locking. Iterations
         * may run in any order.
         */
        void parallelForIndexed(
            std::size_t count, std::size_t grain,
            const std::function<void(std::size_t worker,
                                     std::size_t begin,
                                     std::size_t end)> &body)
        {
            pool_->parallelForIndexedImpl(count, grain, body,
                                          width_ - 1);
        }

      private:
        friend class ThreadPool;
        SubWidth(ThreadPool &pool, std::size_t width)
            : pool_(&pool), width_(width)
        {}

        ThreadPool *pool_;
        std::size_t width_; //!< Participants incl. caller; >= 1.
    };

    /** Spawn @p num_threads workers (>= 1). Library code runs on
     *  globalPool(); tests build pools of a fixed size. */
    explicit ThreadPool(std::size_t num_threads);

    /** Joins all workers. Pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** A handle capped to @p width participating threads (caller
     *  included), clamped to [1, size() + 1]. */
    SubWidth subWidth(std::size_t width)
    {
        return SubWidth(*this,
                        std::min(std::max<std::size_t>(width, 1),
                                 workers_.size() + 1));
    }

  private:
    void workerLoop();

    void parallelForIndexedImpl(
        std::size_t count, std::size_t grain,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &body,
        std::size_t max_helpers);

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * The participant count a `threads` setting asks for, the caller
 * included: @p threads itself when positive, hardware_concurrency (at
 * least 1) otherwise.
 */
std::size_t threadsOrHardware(int threads);

/** The process-wide pool every library parallel-for runs on:
 *  threadsOrHardware(0) workers, built on first use. */
ThreadPool &globalPool();

} // namespace mopt

#endif // MOPT_COMMON_THREAD_POOL_HH
