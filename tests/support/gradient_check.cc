#include "support/gradient_check.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mopt {

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
    std::vector<double> xt = x, gp, gm;

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
        const double step = h * std::max(1.0, std::fabs(x[si]));
        const double xp = std::min(hi[si], x[si] + step);
        const double xm = std::max(lo[si], x[si] - step);
        const double denom = xp - xm;
        if (denom <= 0.0)
            continue; // collapsed (fixed) coordinate
        xt[si] = xp;
        const double fp = prob.evalAll(xt, gp);
        xt[si] = xm;
        const double fm = prob.evalAll(xt, gm);
        xt[si] = x[si];

        record(grad_f[si], (fp - fm) / denom, -1, i);
        for (int j = 0; j < m; ++j) {
            const auto sj = static_cast<std::size_t>(j);
            record(jac[sj * static_cast<std::size_t>(n) + si],
                   (gp[sj] - gm[sj]) / denom, j, i);
        }
    }
    return res;
}

} // namespace mopt
