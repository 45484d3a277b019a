/**
 * @file
 * Network-level batch optimization: optimize every conv2d layer of a
 * whole network in one call, deduplicating repeated shapes and
 * consulting a (optionally persistent) SolutionCache so identical
 * (problem, machine, settings) solves are done exactly once — across
 * layers, across networks, and across process lifetimes.
 *
 * Every cache miss goes through a SolveScheduler — the caller's, or
 * one the optimizer owns at budget 1 when none is passed. All distinct
 * shapes are submitted up front and joined in network order, so an
 * N-miss cold network pipelines across the scheduler's concurrency
 * budget (and coalesces with any other request solving the same
 * shape), and a deadline is honoured while a solve is still running.
 * The per-layer results are deterministic — optimizeConv is
 * bit-identical for any worker width — so the returned plan is
 * byte-identical for any budget, and between a cold and a warm run: a
 * hit replays the stored winning ExecConfig and re-derives the cost
 * breakdown from the (deterministic) analytical model.
 *
 * groupByKey and replayCandidate are that dedupe and that replay on
 * their own, shared with the other network planners (ShardRouter,
 * autotuneProblems) so every plan lines up layer for layer.
 */

#ifndef MOPT_SERVICE_NETWORK_OPTIMIZER_HH
#define MOPT_SERVICE_NETWORK_OPTIMIZER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hh"
#include "conv/problem.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "service/solution_cache.hh"
#include "service/solve_scheduler.hh"

namespace mopt {

/** The optimized tiling of one network layer. */
struct LayerPlan
{
    ConvProblem problem;      //!< The layer as given (name retained).
    Candidate best;           //!< Winning config + predicted cost.
    bool cache_hit = false;   //!< Solution came from the cache.
    bool dedup_hit = false;   //!< Repeated shape solved earlier this run.
    double solve_seconds = 0; //!< Search time (0 for hits).
};

/** Aggregate statistics of one NetworkOptimizer::optimize call. */
struct NetworkPlanStats
{
    std::size_t layers = 0;        //!< Input layers.
    std::size_t unique_shapes = 0; //!< Distinct cache keys among them.
    std::size_t cache_hits = 0;    //!< Unique shapes served by the cache.
    std::size_t cache_misses = 0;  //!< Unique shapes actually solved.
    long solver_evals = 0;         //!< Model evaluations across solves.
    double solve_seconds = 0;      //!< Wall time inside optimizeConv.
    double total_seconds = 0;      //!< Wall time of the whole call.

    /** Misses that joined another request's in-flight solve instead
     *  of running one (scheduler-backed runs only). */
    std::size_t coalesced = 0;

    /** Peak of simultaneous solves over the scheduler's lifetime. */
    int peak_concurrency = 0;

    /** cache_hits / unique_shapes (1 when there was nothing to do). */
    double hitRate() const;
};

/** Per-layer plans plus the run's statistics. */
struct NetworkPlan
{
    std::vector<LayerPlan> layers;
    NetworkPlanStats stats;

    /** Sum of predicted per-layer times (seconds). */
    double predictedSeconds() const;

    /**
     * Deterministic per-layer plan rendering (one table; no wall-clock
     * times or hit/miss markers), suitable for byte-for-byte comparison
     * between cold- and warm-cache runs.
     */
    std::string str() const;
};

/** One distinct CacheKey of a network and the layers that share it. */
struct LayerGroup
{
    CacheKey key;
    std::vector<std::size_t> layers; //!< Ascending network indices.
};

/**
 * Dedupe @p net by CacheKey (under the given machine and settings
 * fingerprints, CacheKey::machineFingerprint and settingsFingerprint),
 * validating every layer. Groups come in first-seen order, so solves
 * and logs follow the network order; layer names never split a group,
 * any other shape field does.
 */
std::vector<LayerGroup> groupByKey(const std::vector<ConvProblem> &net,
                                   std::uint64_t machine_fp,
                                   std::uint64_t settings_fp);

/**
 * Write @p sol into every layer of @p g in @p plan, re-deriving the
 * cost breakdown with evalMultiLevel (so any source of the solution —
 * fresh solve, cache, remote node — yields the same bytes). The first
 * layer carries @p solve_seconds and the rest are dedup hits; the
 * group counts once in plan.stats' cache_hits or cache_misses.
 */
void replayCandidate(const std::vector<ConvProblem> &net,
                     const LayerGroup &g, const CachedSolution &sol,
                     bool cache_hit, double solve_seconds,
                     const MachineSpec &machine,
                     const OptimizerOptions &opts, NetworkPlan &plan);

/**
 * Batch front-end over optimizeConv. Holds the machine, the search
 * settings, and the SolveScheduler every miss goes through, whose
 * optional solution cache is shared across calls (and, via its
 * journal, across runs). Thread-safe: concurrent optimize()
 * calls only share the SolutionCache and SolveScheduler, which are
 * themselves thread-safe.
 */
class NetworkOptimizer
{
  public:
    /**
     * @param machine    target machine description
     * @param opts       search settings applied to every layer
     * @param cache      optional solution cache (not owned; may be null)
     * @param scheduler  optional single-flight solve scheduler (not
     *                   owned). When given, it must be built from the
     *                   same machine and settings (checked) and
     *                   @p cache should be the scheduler's cache.
     *                   When null, the optimizer owns a budget-1
     *                   scheduler over @p cache, which must then
     *                   outlive the optimizer: a solve abandoned at a
     *                   deadline still lands in it until destruction.
     */
    NetworkOptimizer(const MachineSpec &machine,
                     const OptimizerOptions &opts,
                     SolutionCache *cache = nullptr,
                     SolveScheduler *scheduler = nullptr);

    /**
     * Optimize every layer of @p net (in order, repeats allowed),
     * giving up at @p dl: when the deadline expires with solves still
     * outstanding, throws DeadlineExceeded. The abandoned flights keep
     * running on the scheduler and land in the cache, so a retry of
     * the same network converges instead of starting over.
     */
    NetworkPlan optimize(const std::vector<ConvProblem> &net,
                         Deadline dl = Deadline::never()) const;

    const MachineSpec &machine() const { return machine_; }
    const OptimizerOptions &options() const { return opts_; }

  private:
    MachineSpec machine_;
    OptimizerOptions opts_;
    std::unique_ptr<SolveScheduler> owned_scheduler_; //!< When none given.
    SolveScheduler *scheduler_;
};

} // namespace mopt

#endif // MOPT_SERVICE_NETWORK_OPTIMIZER_HH
