/**
 * @file
 * Single-flight solve scheduler: the one place cold-miss optimizeConv
 * work is admitted, deduplicated, and bounded.
 *
 * Problem it solves: under cold fleet traffic the serving stack used
 * to treat the solver as a critical section — one global mutex around
 * every miss — so a moptd node degenerated to one solve at a time and
 * N clients asking for the *same* shape queued N redundant solves.
 *
 * Design: a per-CacheKey in-flight table of shared futures over a
 * bounded budget of runner threads.
 *
 *  - **Single flight.** The first requester of a key becomes its
 *    flight; every concurrent duplicate joins the flight's
 *    std::shared_future instead of queuing a solve of its own, so K
 *    concurrent cold requests for one shape run exactly one
 *    optimizeConv. The flight is registered before the solve waits
 *    for a runner, so coalescing works even while the budget is
 *    exhausted.
 *  - **Bounded concurrency.** `concurrency` runner threads execute
 *    flights; distinct shapes solve concurrently, up to the budget.
 *  - **Width partitioning.** Each solve runs on a
 *    ThreadPool::SubWidth handle of max(1, total width / concurrency)
 *    participants over the process-wide globalPool(), so N concurrent
 *    solves split the machine instead of oversubscribing it
 *    (total width = OptimizerOptions::threads, 0 = hardware).
 *  - **Determinism.** optimizeConv is bit-identical for any worker
 *    width (results reduce in job order — see docs/ARCHITECTURE.md),
 *    so plans are byte-identical for any `concurrency`, and
 *    concurrency 1 reproduces the historical serialized behavior.
 *  - **Failure containment.** A throwing solve propagates to every
 *    waiter via the shared future and the in-flight entry is erased
 *    first, so the key is retried fresh on the next request — no
 *    poisoned entries.
 *
 * Thread-safety: all public members may be called concurrently.
 */

#ifndef MOPT_SERVICE_SOLVE_SCHEDULER_HH
#define MOPT_SERVICE_SOLVE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "service/cache_key.hh"
#include "service/solution_cache.hh"

namespace mopt {

/** Construction-time options of a SolveScheduler. */
struct SolveSchedulerOptions
{
    SolveSchedulerOptions() = default;
    SolveSchedulerOptions(int c) : concurrency(c) {}

    /** Maximum concurrent optimizeConv solves (runner threads). 1
     *  reproduces the historical one-solve-at-a-time behavior. */
    int concurrency = 1;

    /**
     * Called on a runner thread right after a fresh solve's result is
     * inserted into the cache — the hook behind warm-entry
     * replication (the server enqueues the record for its peers).
     * Only *paid* solves fire it: cache hits and coalesced waiters
     * never do, and neither do inserts that bypass the scheduler
     * (journal replay, replication applies), so a replicated entry
     * cannot ping-pong back to its origin. The third argument is the
     * journal sequence the cache assigned to the insert (0 without a
     * cache), which replication forwards so replicas preserve the
     * origin's sequence. Must not throw; keep it cheap (it runs
     * inside the solve path).
     */
    std::function<void(const CacheKey &, const CachedSolution &,
                       std::int64_t)>
        on_insert;
};

/** Monotonic scheduler counters (snapshot via stats()). */
struct SolveSchedulerStats
{
    std::int64_t solves = 0;    //!< optimizeConv invocations run.
    std::int64_t coalesced = 0; //!< Requests that joined a flight.
    int in_flight = 0;          //!< Solves executing right now.
    int peak_concurrency = 0;   //!< Max simultaneous solves observed.
};

/**
 * What one request got back. cache_hit and coalesced describe *this
 * caller's* provenance: a coalesced waiter reports zero solve cost
 * (the flight's leader pays it), mirroring how a cache hit reports
 * zero.
 */
struct ScheduledSolve
{
    CacheKey key; //!< The canonical identity that was solved.
    CachedSolution sol;
    bool cache_hit = false;   //!< Served straight from the cache.
    bool coalesced = false;   //!< Waited on another request's solve.
    double solve_seconds = 0; //!< Solve wall time (0 unless we paid).
    long solver_evals = 0;    //!< Model evaluations (0 unless we paid).
};

/**
 * Handle on a submitted solve: the shared result plus how this
 * particular submission was served. wait() blocks and composes the
 * caller-side ScheduledSolve (rethrowing the solve's exception, if
 * any).
 */
struct SolveTicket
{
    std::shared_future<ScheduledSolve> future;
    bool cache_hit = false; //!< Ready future, served from the cache.
    bool coalesced = false; //!< Joined an already-in-flight solve.

    /** Block for the result; zero the cost fields unless this ticket
     *  is the flight that paid for them. */
    ScheduledSolve wait() const;

    /**
     * wait(), but give up at @p dl: false on expiry (the result lands
     * in @p out only on true). The flight itself keeps running — its
     * result still reaches the cache — only *this* waiter abandons
     * it, which is exactly what a deadline-bounded server worker
     * wants: answer the client "too late" now, serve the shape from
     * cache next time.
     */
    bool waitFor(const Deadline &dl, ScheduledSolve &out) const;
};

/**
 * The scheduler. Owns `concurrency` runner threads, which partition
 * the width of the process-wide globalPool() between their solves
 * and start no pool threads of their own. Construct one per
 * (machine, settings, cache) service instance and share it between
 * every front end (RPC solve handlers, NetworkOptimizer) so their
 * duplicate requests coalesce against the same in-flight table.
 */
class SolveScheduler
{
  public:
    /**
     * @param machine  machine description every solve targets
     * @param opts     search settings applied to every solve
     *                 (opts.threads is the *total* width that gets
     *                 partitioned, caller threads included; 0 =
     *                 hardware)
     * @param cache    shared solution cache (not owned; may be null —
     *                 then only in-flight coalescing deduplicates)
     * @param options  concurrency budget
     */
    SolveScheduler(const MachineSpec &machine,
                   const OptimizerOptions &opts, SolutionCache *cache,
                   SolveSchedulerOptions options = {});

    /** Fails (FatalError) any still-queued flights, then joins the
     *  runners (the in-flight solves complete first). */
    ~SolveScheduler();

    SolveScheduler(const SolveScheduler &) = delete;
    SolveScheduler &operator=(const SolveScheduler &) = delete;

    /**
     * Request the solution for @p p (canonicalized internally):
     * cache hit, join of an in-flight solve, or a fresh flight —
     * without blocking. Call ticket.wait() for the result.
     */
    SolveTicket submit(const ConvProblem &p);

    SolveSchedulerStats stats() const;

    /** The configured budget (>= 1). */
    int concurrency() const { return options_.concurrency; }

    /** Participating threads per solve (the width partition). */
    std::size_t solveWidth() const { return solve_width_; }

    /** Identity guards, so a front end built from separate (machine,
     *  opts) copies can assert it agrees with this scheduler. */
    std::uint64_t machineFingerprint() const { return machine_fp_; }
    std::uint64_t settingsFingerprint() const { return settings_fp_; }

  private:
    /** One queued-or-running solve. */
    struct Flight
    {
        CacheKey key;
        ConvProblem problem; //!< Canonical (name stripped).
        std::promise<ScheduledSolve> promise;
    };

    void runnerLoop();

    MachineSpec machine_;
    OptimizerOptions opts_;
    SolutionCache *cache_;
    SolveSchedulerOptions options_;
    std::uint64_t machine_fp_;
    std::uint64_t settings_fp_;

    std::size_t solve_width_; //!< Participants per solve.

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::deque<Flight> queue_; //!< Flights awaiting a runner.

    /** Flights queued or running, by key. */
    std::unordered_map<CacheKey, std::shared_future<ScheduledSolve>>
        flights_;

    std::int64_t solves_ = 0;
    std::int64_t coalesced_ = 0;
    int in_flight_ = 0;
    int peak_concurrency_ = 0;

    std::vector<std::thread> runners_;
};

} // namespace mopt

#endif // MOPT_SERVICE_SOLVE_SCHEDULER_HH
