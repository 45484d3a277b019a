#include "solver/adam.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace mopt {

double
adamMinimizeGrad(const std::function<double(const std::vector<double> &,
                                            std::vector<double> &)> &fg,
                 std::vector<double> &x, const std::vector<double> &lo,
                 const std::vector<double> &hi, const AdamOptions &opts,
                 AdamScratch &scratch)
{
    const std::size_t n = x.size();
    checkUser(lo.size() == n && hi.size() == n,
              "adamMinimizeGrad: size mismatch");

    auto clamp = [&](std::vector<double> &xx) {
        for (std::size_t i = 0; i < n; ++i)
            xx[i] = std::clamp(xx[i], lo[i], hi[i]);
    };
    clamp(x);

    scratch.m.assign(n, 0.0);
    scratch.v.assign(n, 0.0);
    scratch.grad.assign(n, 0.0);
    scratch.best = x;
    double best_f = std::numeric_limits<double>::infinity();

    double lr = opts.lr;
    double beta1_pow = 1.0, beta2_pow = 1.0;

    for (int step = 1; step <= opts.max_steps; ++step) {
        const double fx = fg(x, scratch.grad);
        if (fx < best_f) {
            best_f = fx;
            scratch.best = x;
        }

        beta1_pow *= opts.beta1;
        beta2_pow *= opts.beta2;
        const double m_corr = 1.0 / (1.0 - beta1_pow);
        const double v_corr = 1.0 / (1.0 - beta2_pow);
        // The stopping test measures the clamped movement: a variable
        // pinned by its box (lo == hi, or pushing into a face) does
        // not move, whatever its raw Adam step.
        double step_norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double gi = scratch.grad[i];
            scratch.m[i] = opts.beta1 * scratch.m[i] + (1.0 - opts.beta1) * gi;
            scratch.v[i] =
                opts.beta2 * scratch.v[i] + (1.0 - opts.beta2) * gi * gi;
            const double delta = lr * (scratch.m[i] * m_corr) /
                                 (std::sqrt(scratch.v[i] * v_corr) + opts.eps);
            const double moved =
                std::clamp(x[i] - delta, lo[i], hi[i]) - x[i];
            x[i] += moved;
            step_norm += moved * moved;
        }
        lr *= opts.lr_decay;
        if (std::sqrt(step_norm) < opts.tol)
            break;
    }

    // The gradient is evaluated before each update, so the final point
    // has not been scored yet.
    const double fx = fg(x, scratch.grad);
    if (fx < best_f) {
        best_f = fx;
        scratch.best = x;
    }
    x = scratch.best;
    return best_f;
}

} // namespace mopt
