/**
 * @file
 * Gradient verification: compares a problem's evalWithGrad derivatives
 * (analytic or fallback) against independent central finite
 * differences of evalAll. The gradient tests use it to validate the
 * closed-form model gradients; it is also a debugging aid when adding
 * new differentiable objectives.
 */

#ifndef MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH
#define MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH

#include <vector>

#include "solver/nlp.hh"

namespace mopt {

/** Worst observed discrepancy of one gradientCheck call. */
struct GradCheckResult
{
    /** max over all (objective + constraint, coordinate) pairs of
     *  |analytic - fd| / max(1, |analytic|, |fd|). */
    double max_rel_err = 0.0;
    int worst_constraint = -1; //!< -1 = objective row.
    int worst_coord = -1;
};

/**
 * Check evalWithGrad against central differences of evalAll at @p x.
 * Finite-difference steps are projected onto the box; coordinates with
 * a collapsed interval are skipped.
 *
 * @param prob  the problem
 * @param x     evaluation point (size dim())
 * @param h     relative finite-difference step
 */
GradCheckResult gradientCheck(const NlpProblem &prob,
                              const std::vector<double> &x,
                              double h = 1e-6);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH
