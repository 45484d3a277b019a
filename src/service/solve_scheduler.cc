#include "service/solve_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"

namespace mopt {

namespace {

SolveTicket
readyTicket(const CacheKey &key, CachedSolution sol)
{
    std::promise<ScheduledSolve> p;
    p.set_value(ScheduledSolve{key, std::move(sol), /*cache_hit=*/true,
                               /*coalesced=*/false, 0.0, 0});
    return SolveTicket{p.get_future().share(), /*cache_hit=*/true,
                       /*coalesced=*/false};
}

} // namespace

ScheduledSolve
SolveTicket::wait() const
{
    ScheduledSolve r = future.get(); // Rethrows the solve's exception.
    if (coalesced) {
        // The flight's leader paid for the solve; this caller only
        // waited, so its provenance and cost are its own.
        r.cache_hit = false;
        r.coalesced = true;
        r.solve_seconds = 0.0;
        r.solver_evals = 0;
    }
    return r;
}

bool
SolveTicket::waitFor(const Deadline &dl, ScheduledSolve &out) const
{
    if (!dl.infinite()) {
        const auto st = future.wait_for(
            std::chrono::milliseconds(dl.remainingMs()));
        if (st != std::future_status::ready)
            return false;
    }
    out = wait();
    return true;
}

SolveScheduler::SolveScheduler(const MachineSpec &machine,
                               const OptimizerOptions &opts,
                               SolutionCache *cache,
                               SolveSchedulerOptions options)
    : machine_(machine), opts_(opts), cache_(cache),
      options_(options),
      machine_fp_(CacheKey::machineFingerprint(machine_)),
      settings_fp_(CacheKey::settingsFingerprint(opts_))
{
    machine_.validate();
    options_.concurrency = std::max(1, options_.concurrency);
    // The runners split the requested width: each solves on its own
    // share of the process-wide pool.
    solve_width_ = std::max<std::size_t>(
        1, threadsOrHardware(opts_.threads) /
               static_cast<std::size_t>(options_.concurrency));
    // Build that pool now, so its threads exist before the first
    // request instead of appearing during the first cold solve.
    globalPool();
    runners_.reserve(static_cast<std::size_t>(options_.concurrency));
    for (int i = 0; i < options_.concurrency; ++i)
        runners_.emplace_back([this] { runnerLoop(); });
}

SolveScheduler::~SolveScheduler()
{
    std::deque<Flight> orphaned;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        orphaned.swap(queue_);
        for (const Flight &f : orphaned)
            flights_.erase(f.key);
    }
    cv_.notify_all();
    for (Flight &f : orphaned)
        f.promise.set_exception(std::make_exception_ptr(FatalError(
            "SolveScheduler: stopped before the solve ran")));
    for (std::thread &t : runners_)
        t.join();
}

SolveTicket
SolveScheduler::submit(const ConvProblem &p)
{
    const CacheKey key = CacheKey::make(p, machine_fp_, settings_fp_);

    // Warm fast path: no scheduler lock, just the cache's shard.
    CachedSolution sol;
    if (cache_ && cache_->lookup(key, &sol))
        return readyTicket(key, std::move(sol));

    std::unique_lock<std::mutex> lock(mu_);
    checkInvariant(!stopping_,
                   "SolveScheduler: submit after shutdown");
    if (const auto it = flights_.find(key); it != flights_.end()) {
        ++coalesced_;
        return SolveTicket{it->second, /*cache_hit=*/false,
                           /*coalesced=*/true};
    }
    // The flight we just missed may have completed between the
    // lock-free lookup and taking mu_ — its leader inserts into the
    // cache *before* erasing the flight, so re-checking here closes
    // the window where a finished solve would be run again.
    if (cache_ && cache_->lookup(key, &sol))
        return readyTicket(key, std::move(sol));

    Flight flight;
    flight.key = key;
    flight.problem = key.problem; // Canonical: names never matter.
    const auto future = flight.promise.get_future().share();
    flights_.emplace(key, future);
    queue_.push_back(std::move(flight));
    lock.unlock();
    cv_.notify_one();
    return SolveTicket{future, /*cache_hit=*/false, /*coalesced=*/false};
}

void
SolveScheduler::runnerLoop()
{
    for (;;) {
        Flight flight;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // Stopping, and the dtor drained the queue.
            flight = std::move(queue_.front());
            queue_.pop_front();
            ++solves_;
            ++in_flight_;
            peak_concurrency_ = std::max(peak_concurrency_, in_flight_);
        }
        try {
            Timer timer;
            const OptimizeOutput out = optimizeConv(
                flight.problem, machine_, opts_,
                globalPool().subWidth(solve_width_));
            checkInvariant(!out.candidates.empty(),
                           "SolveScheduler: optimizeConv returned no "
                           "candidates");
            const Candidate &best = out.candidates.front();
            ScheduledSolve r;
            r.key = flight.key;
            r.sol = CachedSolution{best.config,
                                   best.predicted.total_seconds,
                                   best.perm_label};
            r.solve_seconds = timer.seconds();
            r.solver_evals = out.solver_evals;
            // Publish to the cache before retiring the flight: a
            // request arriving between the two must find one or the
            // other (see submit()'s double-check).
            std::int64_t seq = 0;
            if (cache_)
                seq = cache_->insert(flight.key, r.sol);
            if (options_.on_insert)
                options_.on_insert(flight.key, r.sol, seq);
            {
                std::lock_guard<std::mutex> lock(mu_);
                flights_.erase(flight.key);
                --in_flight_;
            }
            flight.promise.set_value(std::move(r));
        } catch (...) {
            // Retire the flight *before* waking the waiters so the
            // key is immediately retryable — no poisoned entries.
            {
                std::lock_guard<std::mutex> lock(mu_);
                flights_.erase(flight.key);
                --in_flight_;
            }
            flight.promise.set_exception(std::current_exception());
        }
    }
}

SolveSchedulerStats
SolveScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SolveSchedulerStats st;
    st.solves = solves_;
    st.coalesced = coalesced_;
    st.in_flight = in_flight_;
    st.peak_concurrency = peak_concurrency_;
    return st;
}

} // namespace mopt
