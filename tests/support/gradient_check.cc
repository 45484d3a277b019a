#include "support/gradient_check.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "support/dense_auglag.hh"

namespace mopt {

FunctionalNlp::FunctionalNlp(int dim, int num_constraints,
                             std::vector<double> lo, std::vector<double> hi,
                             BatchFn fn, double fd_h)
    : dim_(dim), num_constraints_(num_constraints), lo_(std::move(lo)),
      hi_(std::move(hi)), fn_(std::move(fn)), fd_h_(fd_h)
{
    checkUser(dim_ >= 1, "FunctionalNlp: dim must be >= 1");
    checkUser(static_cast<int>(lo_.size()) == dim_ &&
                  static_cast<int>(hi_.size()) == dim_,
              "FunctionalNlp: bound size mismatch");
    for (int i = 0; i < dim_; ++i)
        checkUser(lo_[static_cast<std::size_t>(i)] <=
                      hi_[static_cast<std::size_t>(i)],
                  "FunctionalNlp: lo > hi");
}

double
FunctionalNlp::evalAll(const std::vector<double> &x,
                       std::vector<double> &g) const
{
    g.resize(static_cast<std::size_t>(num_constraints_));
    return fn_(x, g);
}

double
FunctionalNlp::augLagValueGrad(const std::vector<double> &x,
                               const std::vector<double> &lambda,
                               double mu, std::vector<double> &g,
                               std::vector<double> &grad) const
{
    const auto n = static_cast<std::size_t>(dim_);
    const auto m = static_cast<std::size_t>(num_constraints_);
    std::vector<double> grad_f(n, 0.0), jac(m * n, 0.0);
    const double f0 = evalAll(x, g);

    std::vector<double> xt = x, gp, gm;
    for (std::size_t i = 0; i < n; ++i) {
        const double h = fd_h_ * std::max(1.0, std::fabs(x[i]));
        const double xp = std::min(hi_[i], x[i] + h);
        const double xm = std::max(lo_[i], x[i] - h);
        const double denom = xp - xm;
        if (denom <= 0.0)
            continue;
        xt[i] = xp;
        const double fp = evalAll(xt, gp);
        xt[i] = xm;
        const double fm = evalAll(xt, gm);
        xt[i] = x[i];
        grad_f[i] = (fp - fm) / denom;
        for (std::size_t j = 0; j < m; ++j)
            jac[j * n + i] = (gp[j] - gm[j]) / denom;
    }
    return denseAugLag(f0, g, grad_f, jac, lambda, mu, grad);
}

GradCheckResult
gradientCheck(const NlpProblem &prob, const std::vector<double> &x,
              const std::vector<double> &lambda, double mu, double h)
{
    const int n = prob.dim();
    checkUser(static_cast<int>(x.size()) == n,
              "gradientCheck: point size mismatch");
    checkUser(static_cast<int>(lambda.size()) == prob.numConstraints(),
              "gradientCheck: multiplier size mismatch");

    std::vector<double> g, grad;
    const double value = prob.augLagValueGrad(x, lambda, mu, g, grad);

    // The augmented Lagrangian's value as an unconstrained problem,
    // so FunctionalNlp's differences are those of L itself.
    const auto al = [&prob, &lambda, mu](const std::vector<double> &xx,
                                         std::vector<double> &) {
        std::vector<double> gg;
        double v = prob.evalAll(xx, gg);
        for (std::size_t i = 0; i < gg.size(); ++i)
            augLagTerm(lambda[i], mu, gg[i], v);
        return v;
    };
    const std::vector<double> &lo = prob.lowerBounds();
    const std::vector<double> &hi = prob.upperBounds();
    const FunctionalNlp fd(n, 0, lo, hi, al, h);
    std::vector<double> none, fd_g, fd_grad;
    const double fd_value = fd.augLagValueGrad(x, none, mu, fd_g, fd_grad);

    GradCheckResult res;
    res.value_diff = value - fd_value;
    for (int i = 0; i < n; ++i) {
        const auto si = static_cast<std::size_t>(i);
        if (lo[si] >= hi[si])
            continue; // collapsed (fixed) coordinate
        const double denom = std::max(
            {1.0, std::fabs(grad[si]), std::fabs(fd_grad[si])});
        const double rel = std::fabs(grad[si] - fd_grad[si]) / denom;
        if (rel > res.max_rel_err) {
            res.max_rel_err = rel;
            res.worst_coord = i;
        }
    }
    return res;
}

} // namespace mopt
