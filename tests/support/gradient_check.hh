/**
 * @file
 * Finite differences for the solver and gradient tests. FunctionalNlp
 * is an NlpProblem assembled from a std::function whose
 * augLagValueGrad takes box-projected central differences of the
 * objective and every constraint and assembles them densely;
 * gradientCheck compares a problem's augLagValueGrad against central
 * differences of the augmented Lagrangian's value. The gradient tests
 * use it to validate the closed-form model gradients; it is also a
 * debugging aid when adding new differentiable objectives.
 */

#ifndef MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH
#define MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH

#include <functional>
#include <vector>

#include "solver/nlp.hh"

namespace mopt {

/** NlpProblem assembled from std::functions, with central-difference
 *  derivatives. */
class FunctionalNlp : public NlpProblem
{
  public:
    using BatchFn =
        std::function<double(const std::vector<double> &,
                             std::vector<double> &)>;

    /**
     * @param dim             number of variables
     * @param num_constraints number of inequality constraints
     * @param fn              batch evaluator (returns objective, fills
     *                        the constraint vector)
     * @param fd_h            relative finite-difference step
     */
    FunctionalNlp(int dim, int num_constraints, std::vector<double> lo,
                  std::vector<double> hi, BatchFn fn, double fd_h = 1e-6);

    int dim() const override { return dim_; }
    int numConstraints() const override { return num_constraints_; }
    const std::vector<double> &lowerBounds() const override { return lo_; }
    const std::vector<double> &upperBounds() const override { return hi_; }
    double evalAll(const std::vector<double> &x,
                   std::vector<double> &g) const override;

    /** Central differences of the objective and every constraint,
     *  with steps projected onto the box (a coordinate with a
     *  collapsed interval gets 0), assembled by denseAugLag. */
    double augLagValueGrad(const std::vector<double> &x,
                           const std::vector<double> &lambda, double mu,
                           std::vector<double> &g,
                           std::vector<double> &grad) const override;

  private:
    int dim_;
    int num_constraints_;
    std::vector<double> lo_, hi_;
    BatchFn fn_;
    double fd_h_;
};

/** Worst observed discrepancy of one gradientCheck call. */
struct GradCheckResult
{
    /** max over coordinates of
     *  |analytic - fd| / max(1, |analytic|, |fd|). */
    double max_rel_err = 0.0;
    int worst_coord = -1;
    /** The analytic value minus the value assembled from evalAll
     *  (0 when both entry points agree exactly). */
    double value_diff = 0.0;
};

/**
 * Check augLagValueGrad(x, lambda, mu) against central differences of
 * the augmented Lagrangian's value, built from evalAll with
 * augLagTerm. Coordinates with a collapsed interval are skipped.
 *
 * @param prob    the problem
 * @param x       evaluation point (size dim())
 * @param lambda  multipliers (size numConstraints())
 * @param mu      penalty weight
 * @param h       relative finite-difference step
 */
GradCheckResult gradientCheck(const NlpProblem &prob,
                              const std::vector<double> &x,
                              const std::vector<double> &lambda,
                              double mu, double h = 1e-6);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_GRADIENT_CHECK_HH
