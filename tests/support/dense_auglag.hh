/**
 * @file
 * Dense reference assembly of the augmented Lagrangian, the order that
 * NlpProblem::augLagValueGrad must reproduce bit for bit: the
 * objective gradient, then every active row's full Jacobian row in
 * row order. denseConvNlpAugLag builds ConvNlp's objective, constraints
 * and their dense Jacobian from EvalContext's public per-level API (a
 * fresh scratch per call, so no memo is involved) and assembles them
 * this way.
 */

#ifndef MOPT_TESTS_SUPPORT_DENSE_AUGLAG_HH
#define MOPT_TESTS_SUPPORT_DENSE_AUGLAG_HH

#include <vector>

#include "model/eval_context.hh"

namespace mopt {

/**
 * L = f + sum_i (t_i^2 - lambda_i^2) / (2 mu) and
 * dL = grad_f + sum_{t_i > 0} t_i * jac row i, with
 * t_i = max(0, lambda_i + mu g_i).
 *
 * @param jac   row-major g.size() x grad_f.size() Jacobian
 * @param grad  output, resized to grad_f.size()
 * @return L
 */
double denseAugLag(double f, const std::vector<double> &g,
                   const std::vector<double> &grad_f,
                   const std::vector<double> &jac,
                   const std::vector<double> &lambda, double mu,
                   std::vector<double> &grad);

/**
 * ConvNlp(ctx, obj_lvl, ...)'s augmented Lagrangian at @p x through a
 * dense objective gradient and 20 x 21 constraint Jacobian.
 *
 * @param g     constraints at x, resized to ConvNlp::kNumCons
 * @param grad  output, resized to ConvNlp::kNumVars
 */
double denseConvNlpAugLag(const EvalContext &ctx, int obj_lvl,
                          const std::vector<double> &x,
                          const std::vector<double> &lambda, double mu,
                          std::vector<double> &g,
                          std::vector<double> &grad);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_DENSE_AUGLAG_HH
