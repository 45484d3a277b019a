/**
 * @file
 * Augmented-Lagrangian solver for inequality-constrained NLPs:
 * outer iterations update multipliers lambda_i and the penalty weight
 * mu; inner iterations minimize the smooth AL function with Adam.
 * The AL for g_i(x) <= 0 is
 *
 *   L(x) = f(x) + sum_i ( max(0, lambda_i + mu*g_i)^2 - lambda_i^2 )
 *                  / (2*mu)
 */

#ifndef MOPT_SOLVER_AUGMENTED_LAGRANGIAN_HH
#define MOPT_SOLVER_AUGMENTED_LAGRANGIAN_HH

#include "solver/adam.hh"
#include "solver/nlp.hh"

namespace mopt {

/** Options for solveAugLag. */
struct AugLagOptions
{
    int outer_iters = 8;
    double mu0 = 1.0;          //!< Initial penalty weight.
    double mu_growth = 5.0;    //!< Penalty growth per outer iteration.
    double mu_max = 1e8;
    double feas_tol = 1e-6;    //!< Feasibility tolerance on max g_i.
    AdamOptions inner;         //!< Inner unconstrained solver options.
};

/**
 * Reusable buffers for one solver worker. Every vector grows to the
 * problem's dimensions on first use; passing the same scratch to
 * repeated solves makes the whole inner loop allocation-free, which
 * matters when the optimizer fans thousands of small solves across a
 * thread pool.
 */
struct SolverScratch
{
    AdamScratch adam;
    std::vector<double> g;       //!< Constraint values.
    std::vector<double> lambda;  //!< Augmented-Lagrangian multipliers.
    std::vector<double> x;       //!< Current iterate.
};

/**
 * Solve @p prob starting from @p x0 (clamped into the box).
 * The returned point is the best *feasible* point seen, or the
 * least-violating one if none was feasible.
 *
 * The inner minimization runs gradient-based Adam on the augmented
 * Lagrangian, whose value and exact gradient come from one
 * NlpProblem::augLagValueGrad call: one model evaluation per step.
 *
 * @param scratch  optional reusable buffers (a local scratch is used
 *                 when null)
 */
NlpResult solveAugLag(const NlpProblem &prob, std::vector<double> x0,
                      const AugLagOptions &opts = AugLagOptions(),
                      SolverScratch *scratch = nullptr);

} // namespace mopt

#endif // MOPT_SOLVER_AUGMENTED_LAGRANGIAN_HH
