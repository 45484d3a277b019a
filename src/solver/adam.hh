/**
 * @file
 * Box-constrained first-order minimizer (Adam) used as the inner
 * solver of the augmented-Lagrangian method: adamMinimizeGrad takes
 * one caller-supplied value+gradient evaluation per step and is
 * allocation-free via AdamScratch.
 */

#ifndef MOPT_SOLVER_ADAM_HH
#define MOPT_SOLVER_ADAM_HH

#include <functional>
#include <vector>

namespace mopt {

/** Options for adamMinimizeGrad. */
struct AdamOptions
{
    int max_steps = 200;
    double lr = 0.1;          //!< Initial learning rate.
    double lr_decay = 0.995;  //!< Multiplicative decay per step.
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double tol = 1e-10;       //!< Stop when step size drops below this.
};

/**
 * Reusable state of adamMinimizeGrad. Buffers grow to the problem
 * dimension on first use and are reused verbatim afterwards, so a
 * long-lived scratch makes every solve after the first allocation-free.
 */
struct AdamScratch
{
    std::vector<double> m, v, grad, best;
};

/**
 * Minimize over the box [lo, hi] with Adam: one combined
 * value+gradient evaluation per step.
 *
 * @param fg       evaluates the function at x and fills its gradient
 *                 (sized dim on entry); returns the value. Entries of
 *                 variables whose box is a point (lo == hi) are never
 *                 read.
 * @param x        in: starting point (clamped into the box);
 *                 out: best point visited
 * @param lo,hi    box bounds
 * @param opts     algorithm options
 * @param scratch  reusable buffers
 * @return         best value visited
 */
double adamMinimizeGrad(
    const std::function<double(const std::vector<double> &,
                               std::vector<double> &)> &fg,
    std::vector<double> &x, const std::vector<double> &lo,
    const std::vector<double> &hi, const AdamOptions &opts,
    AdamScratch &scratch);

} // namespace mopt

#endif // MOPT_SOLVER_ADAM_HH
