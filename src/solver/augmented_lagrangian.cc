#include "solver/augmented_lagrangian.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace mopt {

NlpResult
solveAugLag(const NlpProblem &prob, std::vector<double> x0,
            const AugLagOptions &opts, SolverScratch *scratch)
{
    const int n = prob.dim();
    const int m = prob.numConstraints();
    checkUser(static_cast<int>(x0.size()) == n,
              "solveAugLag: start point size mismatch");

    SolverScratch local;
    SolverScratch &s = scratch ? *scratch : local;

    const std::vector<double> &lo = prob.lowerBounds();
    const std::vector<double> &hi = prob.upperBounds();
    for (int i = 0; i < n; ++i)
        x0[static_cast<std::size_t>(i)] =
            std::clamp(x0[static_cast<std::size_t>(i)],
                       lo[static_cast<std::size_t>(i)],
                       hi[static_cast<std::size_t>(i)]);

    s.lambda.assign(static_cast<std::size_t>(m), 0.0);
    double mu = opts.mu0;
    long evals = 0;

    NlpResult best;
    best.objective = std::numeric_limits<double>::infinity();
    best.max_violation = std::numeric_limits<double>::infinity();

    // Score x and keep it if it beats the incumbent; leaves the
    // constraint values in s.g for the multiplier update.
    auto consider = [&](const std::vector<double> &x) {
        const double f = prob.evalAll(x, s.g);
        ++evals;
        double viol = 0.0;
        for (double gi : s.g)
            viol = std::max(viol, gi);
        NlpResult cand;
        cand.objective = f;
        cand.max_violation = viol;
        cand.feasible = viol <= opts.feas_tol;
        if (betterNlpResult(cand, best)) {
            best.x = x;
            best.objective = cand.objective;
            best.max_violation = cand.max_violation;
            best.feasible = cand.feasible;
        }
    };

    s.x = x0;
    consider(s.x);

    for (int outer = 0; outer < opts.outer_iters; ++outer) {
        auto al = [&](const std::vector<double> &xx,
                      std::vector<double> &grad) {
            ++evals;
            return prob.augLagValueGrad(xx, s.lambda, mu, s.g, grad);
        };

        adamMinimizeGrad(al, s.x, lo, hi, opts.inner, s.adam);
        consider(s.x);

        // Multiplier and penalty updates (s.g holds g(s.x)).
        double viol = 0.0;
        for (int i = 0; i < m; ++i) {
            const auto si = static_cast<std::size_t>(i);
            const double gi = s.g[si];
            s.lambda[si] = std::max(0.0, s.lambda[si] + mu * gi);
            viol = std::max(viol, gi);
        }
        if (viol <= opts.feas_tol && outer >= 1)
            break; // converged to a feasible stationary point
        mu = std::min(opts.mu_max, mu * opts.mu_growth);
    }

    best.evals = evals;
    return best;
}

} // namespace mopt
