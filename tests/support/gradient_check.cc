#include "support/gradient_check.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

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
FunctionalNlp::evalWithGrad(const std::vector<double> &x,
                            std::vector<double> &g,
                            std::vector<double> &grad_f,
                            std::vector<double> &jac) const
{
    const auto n = static_cast<std::size_t>(dim_);
    const auto m = static_cast<std::size_t>(num_constraints_);
    grad_f.assign(n, 0.0);
    jac.assign(m * n, 0.0);
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
    return f0;
}

GradCheckResult
gradientCheck(const NlpProblem &prob, const std::vector<double> &x,
              double h)
{
    const int n = prob.dim();
    const int m = prob.numConstraints();
    checkUser(static_cast<int>(x.size()) == n,
              "gradientCheck: point size mismatch");

    std::vector<double> g, grad_f, jac;
    prob.evalWithGrad(x, g, grad_f, jac);

    const std::vector<double> &lo = prob.lowerBounds();
    const std::vector<double> &hi = prob.upperBounds();
    const FunctionalNlp fd(
        n, m, lo, hi,
        [&prob](const std::vector<double> &xx, std::vector<double> &gg) {
            return prob.evalAll(xx, gg);
        },
        h);
    std::vector<double> fd_grad, fd_jac;
    fd.evalWithGrad(x, g, fd_grad, fd_jac);

    GradCheckResult res;
    auto record = [&res](double analytic, double fd, int row, int col) {
        const double denom =
            std::max({1.0, std::fabs(analytic), std::fabs(fd)});
        const double rel = std::fabs(analytic - fd) / denom;
        if (rel > res.max_rel_err) {
            res.max_rel_err = rel;
            res.worst_constraint = row;
            res.worst_coord = col;
        }
    };

    for (int i = 0; i < n; ++i) {
        const auto si = static_cast<std::size_t>(i);
        if (lo[si] >= hi[si])
            continue; // collapsed (fixed) coordinate
        record(grad_f[si], fd_grad[si], -1, i);
        for (int j = 0; j < m; ++j) {
            const std::size_t at =
                static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                si;
            record(jac[at], fd_jac[at], j, i);
        }
    }
    return res;
}

} // namespace mopt
