/**
 * @file
 * The MOpt optimizer (Sec. 8, Algorithm 1 of the paper): sweep the
 * pruned permutation classes; for each, repeatedly solve constrained
 * NLPs to find the most-constrained memory level, fix its tile sizes,
 * and recurse on the remaining levels; finally integerize (floor),
 * load-balance, and rank candidates by predicted bandwidth-scaled
 * bottleneck time.
 *
 * Execution model: each round of Algorithm 1 is flattened into
 * independent (permutation combo x objective level x start point)
 * work items fanned across ThreadPool::SubWidth::parallelForIndexed
 * on the process-wide pool (globalPool()), with one reusable
 * SolverScratch per worker and analytic gradients from ConvNlp (one
 * model evaluation per Adam step). Results are reduced
 * in job order after each round, so optimizeConv is deterministic:
 * the same (problem, machine, options-minus-threads) produce
 * bit-identical output for any thread count — the property the
 * service layer's CacheKey relies on (see docs/ARCHITECTURE.md).
 */

#ifndef MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH
#define MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Options controlling the optimizer. */
struct OptimizerOptions
{
    /** How many ranked candidates to return (paper's MOpt-5 uses 5). */
    int top_k = 5;

    /** Optimize for parallel execution on all cores (Sec. 7). */
    bool parallel = true;

    /** Permutation sweep mode. */
    enum class PermMode {
        Uniform,     //!< Same pruned class at L1/L2/L3 (8 cases).
        Independent, //!< Free class choice per level (8^3 cases).
    };
    PermMode perm_mode = PermMode::Uniform;

    /** Solver effort preset (inner iterations / starts). */
    enum class Effort { Fast, Standard, Thorough };
    Effort effort = Effort::Standard;

    /** Seed of the solver's random starts. Part of the solve's cache
     *  identity (service/cache_key.hh): changing it may change the
     *  returned configuration. */
    std::uint64_t seed = 7;

    /** Participating threads for the permutation sweep, the caller
     *  included (0 = hardware_concurrency). Never affects the result,
     *  only the wall time. */
    int threads = 0;
};

/**
 * Parse an effort preset name: "fast", "standard", or "thorough"
 * (case-sensitive, the CLI spelling). Anything else is a fatal user
 * error — shared by every front end so they cannot drift.
 */
OptimizerOptions::Effort effortFromString(const std::string &s);

/** One ranked configuration. */
struct Candidate
{
    ExecConfig config;
    CostBreakdown predicted; //!< Ceil-mode model evaluation.
    std::string perm_label;  //!< Pruned-class names per level.
};

/** Output of optimizeConv. */
struct OptimizeOutput
{
    std::vector<Candidate> candidates; //!< Sorted, best first.
    double seconds = 0.0;              //!< Wall-clock search time.
    long solver_evals = 0;             //!< Total model evaluations.
};

/**
 * Register-tile sizes pinned by the microkernel (Sec. 8: machine-
 * dependent, problem-independent up to clamping): k = 2 vector
 * registers wide, 6 spatial points along w, 1 elsewhere.
 */
IntTileVec microkernelTiles(const ConvProblem &p, const MachineSpec &m);

/** The fixed register-level tile-loop order (n,h,w,k outer; c,r,s
 *  innermost so the Out accumulators are reused across the whole
 *  reduction, Sec. 6). */
Permutation microkernelPermutation();

/** Run the full optimizer for one conv2d operator on
 *  globalPool().subWidth(threadsOrHardware(opts.threads)); starts no
 *  threads of its own. */
OptimizeOutput optimizeConv(const ConvProblem &p, const MachineSpec &m,
                            const OptimizerOptions &opts =
                                OptimizerOptions());

/**
 * Same optimizer on a caller-provided (possibly width-capped) pool
 * handle: the sweep fans out across at most pool.width() threads,
 * caller included, and opts.threads is ignored. This is how the solve
 * scheduler (src/service/solve_scheduler.hh) runs several solves
 * concurrently, each on a partition of the shared pool's width. The
 * result is bit-identical to the 3-argument overload for any width
 * (see docs/ARCHITECTURE.md, "Threading and determinism invariants").
 */
OptimizeOutput optimizeConv(const ConvProblem &p, const MachineSpec &m,
                            const OptimizerOptions &opts,
                            ThreadPool::SubWidth pool);

} // namespace mopt

#endif // MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH
