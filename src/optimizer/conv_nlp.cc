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
    return evalImpl(x, g, nullptr, nullptr);
}

double
ConvNlp::evalWithGrad(const std::vector<double> &x,
                      std::vector<double> &g,
                      std::vector<double> &grad_f,
                      std::vector<double> &jac) const
{
    return evalImpl(x, g, &grad_f, &jac);
}

double
ConvNlp::evalImpl(const std::vector<double> &x, std::vector<double> &g,
                  std::vector<double> *grad_f,
                  std::vector<double> *jac) const
{
    checkInvariant(static_cast<int>(x.size()) == kNumVars,
                   "ConvNlp: point size mismatch");
    const bool want_grad = grad_f != nullptr;
    EvalContext::Scratch &s = tlsScratch();

    std::array<double, NumMemLevels> secs;
    ctx_->evalSeconds(x.data(), s, secs, want_grad);

    g.resize(static_cast<std::size_t>(kNumCons));
    if (want_grad) {
        grad_f->assign(static_cast<std::size_t>(kNumVars), 0.0);
        jac->assign(
            static_cast<std::size_t>(kNumCons) * kNumVars, 0.0);
    }
    auto jacRow = [&](std::size_t row) {
        return jac->data() + row * static_cast<std::size_t>(kNumVars);
    };

    std::size_t gi = 0;
    // Capacity: depends only on the level's own 7 variables.
    for (int l = LvlL1; l <= LvlL3; ++l) {
        const int own = (l - LvlL1) * NumDims;
        g[gi] = ctx_->logCapacityRatio(
            l, s, want_grad ? jacRow(gi) + own : nullptr);
        ++gi;
    }
    // Nesting: T_{l,d} <= T_{l+1,d} in log space (linear).
    for (int l = 0; l < 2; ++l)
        for (int d = 0; d < NumDims; ++d) {
            const int i0 = l * NumDims + d;
            const int i1 = (l + 1) * NumDims + d;
            g[gi] = x[static_cast<std::size_t>(i0)] -
                    x[static_cast<std::size_t>(i1)];
            if (want_grad) {
                jacRow(gi)[i0] = 1.0;
                jacRow(gi)[i1] = -1.0;
            }
            ++gi;
        }
    // Dominance: every other level's time is bounded by the
    // objective level's time.
    const auto so = static_cast<std::size_t>(obj_lvl_);
    const double obj_secs = std::max(secs[so], 1e-300);
    for (int k = 0; k < NumMemLevels; ++k) {
        if (k == obj_lvl_)
            continue;
        const auto sk = static_cast<std::size_t>(k);
        g[gi] = std::log(std::max(secs[sk], 1e-300) / obj_secs);
        if (want_grad) {
            double *row = jacRow(gi);
            for (int j = 0; j < kNumVars; ++j)
                row[j] = s.dlogsec[sk][static_cast<std::size_t>(j)] -
                         s.dlogsec[so][static_cast<std::size_t>(j)];
        }
        ++gi;
    }
    checkInvariant(gi == static_cast<std::size_t>(kNumCons),
                   "ConvNlp: constraint count mismatch");

    // Objective: the level's time plus the call and region overhead,
    // whose gradients are sparse (see EvalContext::Scratch): L1 is
    // x[0..6] and L3 is x[14..20].
    const double total = std::max(
        secs[so] + s.call_overhead + s.sync_overhead, 1e-300);
    if (want_grad) {
        const double inv = 1.0 / total;
        const double level_share = secs[so] * inv;
        for (std::size_t j = 0; j < static_cast<std::size_t>(kNumVars);
             ++j)
            (*grad_f)[j] = level_share * s.dlogsec[so][j];
        for (Dim d : {DimC, DimR, DimS})
            (*grad_f)[static_cast<std::size_t>(d)] -=
                s.call_overhead * inv;
        for (int d = 0; d < NumDims; ++d)
            (*grad_f)[static_cast<std::size_t>(2 * NumDims + d)] -=
                s.sync_overhead * inv;
    }
    return std::log(total);
}

} // namespace mopt
