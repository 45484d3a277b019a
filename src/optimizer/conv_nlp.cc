#include "optimizer/conv_nlp.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mopt {

namespace {

/** Per-thread model scratch: fixed-size, so evaluations never touch
 *  the heap even when one ConvNlp is solved from many threads. */
EvalContext::Scratch &
tlsScratch()
{
    thread_local EvalContext::Scratch s;
    return s;
}

} // namespace

ConvNlp::ConvNlp(const EvalContext &ctx, int obj_lvl,
                 std::vector<double> lo, std::vector<double> hi)
    : ctx_(&ctx), obj_lvl_(obj_lvl), lo_(std::move(lo)),
      hi_(std::move(hi))
{
    checkUser(obj_lvl_ >= 0 && obj_lvl_ < NumMemLevels,
              "ConvNlp: bad objective level");
    checkUser(static_cast<int>(lo_.size()) == kNumVars &&
                  static_cast<int>(hi_.size()) == kNumVars,
              "ConvNlp: bound size mismatch");
}

double
ConvNlp::evalAll(const std::vector<double> &x,
                 std::vector<double> &g) const
{
    std::array<double, NumMemLevels> secs;
    return std::log(evalValues(x, tlsScratch(), secs, g));
}

double
ConvNlp::evalValues(const std::vector<double> &x, EvalContext::Scratch &s,
                    std::array<double, NumMemLevels> &secs,
                    std::vector<double> &g) const
{
    checkInvariant(static_cast<int>(x.size()) == kNumVars,
                   "ConvNlp: point size mismatch");
    ctx_->evalSeconds(x.data(), s, secs);

    g.resize(static_cast<std::size_t>(kNumCons));
    std::size_t gi = 0;
    // Capacity: depends only on the level's own 7 variables.
    for (int l = LvlL1; l <= LvlL3; ++l)
        g[gi++] = ctx_->logCapacityRatio(l, s, nullptr);
    // Nesting: T_{l,d} <= T_{l+1,d} in log space (linear).
    for (int i0 = 0; i0 < 2 * NumDims; ++i0)
        g[gi++] = x[static_cast<std::size_t>(i0)] -
                  x[static_cast<std::size_t>(i0 + NumDims)];
    // Dominance: every other level's time is bounded by the
    // objective level's time.
    const auto so = static_cast<std::size_t>(obj_lvl_);
    const double obj_secs = std::max(secs[so], 1e-300);
    for (int k = 0; k < NumMemLevels; ++k)
        if (k != obj_lvl_)
            g[gi++] = std::log(
                std::max(secs[static_cast<std::size_t>(k)], 1e-300) /
                obj_secs);
    checkInvariant(gi == static_cast<std::size_t>(kNumCons),
                   "ConvNlp: constraint count mismatch");

    // Objective: the level's time plus the call and region overhead.
    return std::max(secs[so] + s.call_overhead + s.sync_overhead, 1e-300);
}

double
ConvNlp::augLagValueGrad(const std::vector<double> &x,
                         const std::vector<double> &lambda, double mu,
                         std::vector<double> &g,
                         std::vector<double> &grad) const
{
    EvalContext::Scratch &s = tlsScratch();
    std::array<double, NumMemLevels> secs;
    const double total = evalValues(x, s, secs, g);
    double value = std::log(total);
    std::array<double, kNumCons> t;
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = augLagTerm(lambda[i], mu, g[i], value);

    // Objective gradient. The overhead's gradients are sparse (see
    // EvalContext::Scratch): L1 is x[0..6] and L3 is x[14..20].
    const auto so = static_cast<std::size_t>(obj_lvl_);
    const double *dso = ctx_->levelGrad(obj_lvl_, s);
    const double inv = 1.0 / total;
    const double level_share = secs[so] * inv;
    grad.resize(static_cast<std::size_t>(kNumVars));
    for (std::size_t j = 0; j < static_cast<std::size_t>(kNumVars); ++j)
        grad[j] = level_share * dso[j];
    for (Dim d : {DimC, DimR, DimS})
        grad[static_cast<std::size_t>(d)] -= s.call_overhead * inv;
    for (int d = 0; d < NumDims; ++d)
        grad[static_cast<std::size_t>(2 * NumDims + d)] -=
            s.sync_overhead * inv;

    // Active rows in row order, each adding only its nonzero entries
    // (the order and terms of a dense Jacobian pass; see NlpProblem).
    std::size_t row = 0;
    for (int l = LvlL1; l <= LvlL3; ++l, ++row) {
        if (t[row] <= 0.0)
            continue;
        double g7[NumDims];
        ctx_->logCapacityRatio(l, s, g7);
        double *own = grad.data() + (l - LvlL1) * NumDims;
        for (int d = 0; d < NumDims; ++d)
            own[d] += t[row] * g7[d];
    }
    for (int i0 = 0; i0 < 2 * NumDims; ++i0, ++row) {
        if (t[row] <= 0.0)
            continue;
        grad[static_cast<std::size_t>(i0)] += t[row];
        grad[static_cast<std::size_t>(i0 + NumDims)] -= t[row];
    }
    for (int k = 0; k < NumMemLevels; ++k) {
        if (k == obj_lvl_)
            continue;
        const double tk = t[row++];
        if (tk <= 0.0)
            continue;
        const double *dk = ctx_->levelGrad(k, s);
        for (std::size_t j = 0; j < static_cast<std::size_t>(kNumVars);
             ++j)
            grad[j] += tk * (dk[j] - dso[j]);
    }
    return value;
}

} // namespace mopt
