/**
 * @file
 * Constrained nonlinear program interface. This is the repo's
 * substitute for the paper's AMPL + Ipopt stack: the tile-size
 * problems of Secs. 5/7 are smooth, posynomial-like programs in at
 * most 21 variables, solved here by an augmented-Lagrangian method
 * (augmented_lagrangian.hh) from several start points, keeping the
 * best result (betterNlpResult).
 */

#ifndef MOPT_SOLVER_NLP_HH
#define MOPT_SOLVER_NLP_HH

#include <algorithm>
#include <vector>

namespace mopt {

/**
 * minimize    f(x)
 * subject to  g_i(x) <= 0   (i = 0..numConstraints-1)
 *             lo <= x <= hi (box, enforced by clamping)
 *
 * evalAll() computes the objective and every constraint in one call;
 * problems whose constraints share work (like the bandwidth-scaled
 * level times, which all come from one model evaluation) should
 * override it.
 */
class NlpProblem
{
  public:
    virtual ~NlpProblem() = default;

    virtual int dim() const = 0;
    virtual int numConstraints() const = 0;
    virtual const std::vector<double> &lowerBounds() const = 0;
    virtual const std::vector<double> &upperBounds() const = 0;

    /**
     * Evaluate objective and constraints at @p x.
     * @param x  point of size dim()
     * @param g  output, resized to numConstraints()
     * @return objective value
     */
    virtual double evalAll(const std::vector<double> &x,
                           std::vector<double> &g) const = 0;

    /**
     * Value and gradient of the augmented Lagrangian (see
     * augmented_lagrangian.hh) at @p x:
     *
     *   L  = f + sum_i (t_i^2 - lambda_i^2) / (2 mu)
     *   dL = df + sum_i t_i dg_i,   t_i = max(0, lambda_i + mu g_i)
     *
     * The penalty sum runs in row order (augLagTerm), and grad[j]
     * receives df_j and then each t_i dg_i,j that is not an exact zero,
     * in row order: the result is the dense assembly's, bit for bit,
     * except that a zero entry may have either sign. A problem can
     * therefore skip every row with t_i == 0 and every structural zero
     * of the Jacobian.
     *
     * @param x       point of size dim()
     * @param lambda  multipliers, size numConstraints()
     * @param mu      penalty weight (> 0)
     * @param g       constraints at x, resized to numConstraints()
     * @param grad    gradient of L, resized to dim()
     * @return L at x
     *
     * One call counts as one model evaluation in the solvers' eval
     * counters.
     */
    virtual double augLagValueGrad(const std::vector<double> &x,
                                   const std::vector<double> &lambda,
                                   double mu, std::vector<double> &g,
                                   std::vector<double> &grad) const = 0;
};

/**
 * Add constraint row i's term to the augmented Lagrangian @p value and
 * return its multiplier t_i = max(0, lambda_i + mu g_i), the weight of
 * dg_i in the gradient (0: the row contributes no gradient).
 */
inline double
augLagTerm(double lambda_i, double mu, double g_i, double &value)
{
    const double t = std::max(0.0, lambda_i + mu * g_i);
    // An inactive row whose multiplier is 0 would add exactly +0.
    if (t > 0.0 || lambda_i != 0.0)
        value += (t * t - lambda_i * lambda_i) / (2.0 * mu);
    return t;
}

/** Result of a solve. */
struct NlpResult
{
    std::vector<double> x;       //!< Best point found.
    double objective = 0.0;      //!< Objective at x.
    double max_violation = 0.0;  //!< max_i g_i(x) (clamped at 0 from below).
    bool feasible = false;       //!< max_violation <= tolerance.
    long evals = 0;              //!< Model evaluations (evalAll units).
};

/**
 * The canonical result preference shared by every solver layer
 * (augmented Lagrangian, multi-start, and the optimizer's parallel
 * reduction): feasible beats infeasible; among feasible, lower
 * objective; among infeasible, lower violation. Strict, so reducing a
 * sequence in order keeps the earliest of tied results — the property
 * the deterministic parallel fan-out relies on.
 */
inline bool
betterNlpResult(const NlpResult &r, const NlpResult &best)
{
    return (r.feasible && !best.feasible) ||
           (r.feasible && best.feasible && r.objective < best.objective) ||
           (!r.feasible && !best.feasible &&
            r.max_violation < best.max_violation);
}

} // namespace mopt

#endif // MOPT_SOLVER_NLP_HH
