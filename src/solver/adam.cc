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
    // Loop invariants in locals: the update's stores through m, v and
    // x could otherwise alias opts.
    const double beta1 = opts.beta1, keep1 = 1.0 - opts.beta1;
    const double beta2 = opts.beta2, keep2 = 1.0 - opts.beta2;
    const double eps = opts.eps;
    double *m = scratch.m.data();
    double *v = scratch.v.data();
    double *xs = x.data();

    for (int step = 1; step <= opts.max_steps; ++step) {
        const double fx = fg(x, scratch.grad);
        if (fx < best_f) {
            best_f = fx;
            scratch.best = x;
        }

        const double *grad = scratch.grad.data(); // fg may reassign it
        beta1_pow *= beta1;
        beta2_pow *= beta2;
        const double m_corr = 1.0 / (1.0 - beta1_pow);
        const double v_corr = 1.0 / (1.0 - beta2_pow);
        // The stopping test measures the clamped movement: a variable
        // pinned by its box (lo == hi, or pushing into a face) does
        // not move, whatever its raw Adam step. One whose box is a
        // point never moves, so its moments are not kept at all.
        double step_norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (lo[i] == hi[i])
                continue;
            const double gi = grad[i];
            m[i] = beta1 * m[i] + keep1 * gi;
            v[i] = beta2 * v[i] + keep2 * gi * gi;
            const double delta =
                lr * (m[i] * m_corr) / (std::sqrt(v[i] * v_corr) + eps);
            const double moved =
                std::clamp(xs[i] - delta, lo[i], hi[i]) - xs[i];
            xs[i] += moved;
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
