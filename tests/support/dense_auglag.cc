#include "support/dense_auglag.hh"

#include <algorithm>
#include <cmath>

#include "optimizer/conv_nlp.hh"

namespace mopt {

double
denseAugLag(double f, const std::vector<double> &g,
            const std::vector<double> &grad_f,
            const std::vector<double> &jac,
            const std::vector<double> &lambda, double mu,
            std::vector<double> &grad)
{
    const std::size_t n = grad_f.size();
    grad = grad_f;
    double value = f;
    for (std::size_t i = 0; i < g.size(); ++i) {
        const double li = lambda[i];
        const double t = std::max(0.0, li + mu * g[i]);
        value += (t * t - li * li) / (2.0 * mu);
        if (t > 0.0)
            for (std::size_t j = 0; j < n; ++j)
                grad[j] += t * jac[i * n + j];
    }
    return value;
}

double
denseConvNlpAugLag(const EvalContext &ctx, int obj_lvl,
                   const std::vector<double> &x,
                   const std::vector<double> &lambda, double mu,
                   std::vector<double> &g, std::vector<double> &grad)
{
    constexpr auto n = static_cast<std::size_t>(ConvNlp::kNumVars);
    constexpr auto m = static_cast<std::size_t>(ConvNlp::kNumCons);
    EvalContext::Scratch s;
    std::array<double, NumMemLevels> secs;
    ctx.evalSeconds(x.data(), s, secs);
    std::array<const double *, NumMemLevels> dls;
    for (int l = 0; l < NumMemLevels; ++l)
        dls[static_cast<std::size_t>(l)] = ctx.levelGrad(l, s);

    g.assign(m, 0.0);
    std::vector<double> jac(m * n, 0.0), grad_f(n, 0.0);
    std::size_t row = 0;
    for (int l = LvlL1; l <= LvlL3; ++l, ++row)
        g[row] = ctx.logCapacityRatio(
            l, s, jac.data() + row * n + (l - LvlL1) * NumDims);
    for (std::size_t i0 = 0; i0 < 2 * NumDims; ++i0, ++row) {
        g[row] = x[i0] - x[i0 + NumDims];
        jac[row * n + i0] = 1.0;
        jac[row * n + i0 + NumDims] = -1.0;
    }
    const auto so = static_cast<std::size_t>(obj_lvl);
    const double obj_secs = std::max(secs[so], 1e-300);
    for (std::size_t k = 0; k < NumMemLevels; ++k) {
        if (k == so)
            continue;
        g[row] = std::log(std::max(secs[k], 1e-300) / obj_secs);
        for (std::size_t j = 0; j < n; ++j)
            jac[row * n + j] = dls[k][j] - dls[so][j];
        ++row;
    }

    const double total =
        std::max(secs[so] + s.call_overhead + s.sync_overhead, 1e-300);
    const double inv = 1.0 / total;
    for (std::size_t j = 0; j < n; ++j)
        grad_f[j] = secs[so] * inv * dls[so][j];
    for (Dim d : {DimC, DimR, DimS})
        grad_f[static_cast<std::size_t>(d)] -= s.call_overhead * inv;
    for (std::size_t d = 0; d < NumDims; ++d)
        grad_f[2 * NumDims + d] -= s.sync_overhead * inv;
    return denseAugLag(std::log(total), g, grad_f, jac, lambda, mu, grad);
}

} // namespace mopt
