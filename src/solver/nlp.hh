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
     * Evaluate objective, constraints, and their first derivatives.
     *
     * @param x       point of size dim()
     * @param g       constraints, resized to numConstraints()
     * @param grad_f  objective gradient, resized to dim()
     * @param jac     constraint Jacobian, row-major numConstraints() x
     *                dim(), resized accordingly
     * @return objective value
     *
     * One call counts as one model evaluation in the solvers' eval
     * counters.
     */
    virtual double evalWithGrad(const std::vector<double> &x,
                                std::vector<double> &g,
                                std::vector<double> &grad_f,
                                std::vector<double> &jac) const = 0;

    /** Objective only (default: evalAll and discard constraints). */
    virtual double objective(const std::vector<double> &x) const;

    /** Largest constraint value at @p x (<= 0 means feasible). */
    double maxViolation(const std::vector<double> &x) const;
};

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
