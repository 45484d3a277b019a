#include "baselines/autotuner.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/grid_sampler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "exec/measure.hh"
#include "model/parallel_model.hh"
#include "model/pruned_classes.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {

namespace {

constexpr int kNumFeatures = 3 * NumDims + 3 + 1; // tiles, class ids, bias

/** Log-scale feature vector of a configuration. */
std::vector<double>
features(const ExecConfig &cfg)
{
    std::vector<double> f;
    f.reserve(kNumFeatures);
    for (int l = LvlL1; l <= LvlL3; ++l)
        for (int d = 0; d < NumDims; ++d)
            f.push_back(std::log2(static_cast<double>(
                cfg.tiles[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(d)])));
    const auto &classes = prunedClasses();
    for (int l = LvlL1; l <= LvlL3; ++l) {
        double id = 0.0;
        for (std::size_t c = 0; c < classes.size(); ++c)
            if (classes[c].contains(
                    cfg.perm[static_cast<std::size_t>(l)])) {
                id = static_cast<double>(c) + 1.0;
                break;
            }
        f.push_back(id);
    }
    f.push_back(1.0); // bias
    return f;
}

/**
 * Incremental ridge regression: maintains X^T X and X^T y, solves the
 * normal equations by Gaussian elimination with partial pivoting.
 */
class RidgeModel
{
  public:
    explicit RidgeModel(int dim, double lambda = 1e-2)
        : dim_(dim), lambda_(lambda),
          xtx_(static_cast<std::size_t>(dim * dim), 0.0),
          xty_(static_cast<std::size_t>(dim), 0.0),
          weights_(static_cast<std::size_t>(dim), 0.0)
    {
    }

    void
    observe(const std::vector<double> &x, double y)
    {
        for (int i = 0; i < dim_; ++i) {
            for (int j = 0; j < dim_; ++j)
                xtx_[static_cast<std::size_t>(i * dim_ + j)] +=
                    x[static_cast<std::size_t>(i)] *
                    x[static_cast<std::size_t>(j)];
            xty_[static_cast<std::size_t>(i)] +=
                x[static_cast<std::size_t>(i)] * y;
        }
        ++samples_;
        refit();
    }

    double
    predict(const std::vector<double> &x) const
    {
        double y = 0.0;
        for (int i = 0; i < dim_; ++i)
            y += weights_[static_cast<std::size_t>(i)] *
                 x[static_cast<std::size_t>(i)];
        return y;
    }

    int samples() const { return samples_; }

  private:
    void
    refit()
    {
        // Solve (X^T X + lambda I) w = X^T y.
        const int n = dim_;
        std::vector<double> a(xtx_);
        std::vector<double> b(xty_);
        for (int i = 0; i < n; ++i)
            a[static_cast<std::size_t>(i * n + i)] += lambda_;
        for (int col = 0; col < n; ++col) {
            int pivot = col;
            for (int row = col + 1; row < n; ++row)
                if (std::fabs(a[static_cast<std::size_t>(row * n + col)]) >
                    std::fabs(
                        a[static_cast<std::size_t>(pivot * n + col)]))
                    pivot = row;
            if (std::fabs(a[static_cast<std::size_t>(pivot * n + col)]) <
                1e-12)
                continue;
            if (pivot != col) {
                for (int j = 0; j < n; ++j)
                    std::swap(a[static_cast<std::size_t>(col * n + j)],
                              a[static_cast<std::size_t>(pivot * n + j)]);
                std::swap(b[static_cast<std::size_t>(col)],
                          b[static_cast<std::size_t>(pivot)]);
            }
            for (int row = col + 1; row < n; ++row) {
                const double f =
                    a[static_cast<std::size_t>(row * n + col)] /
                    a[static_cast<std::size_t>(col * n + col)];
                for (int j = col; j < n; ++j)
                    a[static_cast<std::size_t>(row * n + j)] -=
                        f * a[static_cast<std::size_t>(col * n + j)];
                b[static_cast<std::size_t>(row)] -=
                    f * b[static_cast<std::size_t>(col)];
            }
        }
        for (int row = n - 1; row >= 0; --row) {
            double acc = b[static_cast<std::size_t>(row)];
            for (int j = row + 1; j < n; ++j)
                acc -= a[static_cast<std::size_t>(row * n + j)] *
                       weights_[static_cast<std::size_t>(j)];
            const double diag = a[static_cast<std::size_t>(row * n + row)];
            weights_[static_cast<std::size_t>(row)] =
                std::fabs(diag) < 1e-12 ? 0.0 : acc / diag;
        }
    }

    int dim_;
    double lambda_;
    std::vector<double> xtx_, xty_, weights_;
    int samples_ = 0;
};

/** Randomly perturb one level/dim of @p cfg (stay nested). */
ExecConfig
perturb(const ExecConfig &cfg, const ConvProblem &p, Rng &rng)
{
    const IntTileVec extents = problemExtents(p);
    ExecConfig out = cfg;
    const int l = static_cast<int>(rng.uniformInt(LvlL1, LvlL3));
    const int d = static_cast<int>(rng.uniformInt(0, NumDims - 1));
    const auto sd = static_cast<std::size_t>(d);
    auto &t = out.tiles[static_cast<std::size_t>(l)][sd];
    t = rng.uniform01() < 0.5 ? std::max<std::int64_t>(1, t / 2)
                              : std::min(extents[sd], t * 2);
    out.clampNesting(extents);
    return out;
}

/** All positive divisors of @p n, ascending. */
std::vector<std::int64_t>
divisorsOf(std::int64_t n)
{
    std::vector<std::int64_t> out;
    for (std::int64_t d = 1; d * d <= n; ++d)
        if (n % d == 0) {
            out.push_back(d);
            if (d != n / d)
                out.push_back(n / d);
        }
    std::sort(out.begin(), out.end());
    return out;
}

/** Random divisor of @p n that is >= @p lo (falls back to n). */
std::int64_t
randomDivisor(Rng &rng, std::int64_t n, std::int64_t lo)
{
    std::vector<std::int64_t> ds;
    for (std::int64_t d : divisorsOf(n))
        if (d >= lo)
            ds.push_back(d);
    if (ds.empty())
        return n;
    return ds[rng.index(ds.size())];
}

/**
 * TVM-template proposal ("generic.schedule_conv2d_nchw"): one level
 * of blocking with divisor splits of the k / c / w extents (TVM's
 * tile_oc / tile_ic / tile_ow knobs), a fixed nkhwcrs loop order, h
 * processed row by row, and no L2/L3 cache tiling — the template
 * trusts the memory hierarchy beyond its single blocking level.
 */
ExecConfig
sampleTemplateConfig(const ConvProblem &p, const MachineSpec &m, Rng &rng,
                     bool parallel)
{
    const IntTileVec extents = problemExtents(p);
    const IntTileVec reg = microkernelTiles(p, m);

    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = reg;
    const Permutation order = Permutation::parse("nkhwcrs");
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] = order;
        cfg.tiles[static_cast<std::size_t>(l)] = extents;
    }

    auto &l1 = cfg.tiles[LvlL1];
    l1[DimN] = 1;
    l1[DimK] = randomDivisor(rng, extents[DimK], reg[DimK]);
    l1[DimC] = randomDivisor(rng, extents[DimC], 1);
    l1[DimW] = randomDivisor(rng, extents[DimW], reg[DimW]);
    l1[DimH] = 1; // the template computes output rows one at a time

    if (parallel) {
        const auto splits = parallelSplits(m.cores, cfg.tiles[LvlL3]);
        cfg.par = splits[rng.index(splits.size())];
    }
    return cfg;
}

/** Re-roll one template knob (stays inside the template space). */
ExecConfig
perturbTemplate(const ExecConfig &cfg, const ConvProblem &p,
                const MachineSpec &m, Rng &rng)
{
    const IntTileVec extents = problemExtents(p);
    const IntTileVec reg = microkernelTiles(p, m);
    ExecConfig out = cfg;
    auto &l1 = out.tiles[LvlL1];
    switch (rng.uniformInt(0, 2)) {
      case 0:
        l1[DimK] = randomDivisor(rng, extents[DimK], reg[DimK]);
        break;
      case 1:
        l1[DimC] = randomDivisor(rng, extents[DimC], 1);
        break;
      default:
        l1[DimW] = randomDivisor(rng, extents[DimW], reg[DimW]);
        break;
    }
    return out;
}

} // namespace

MeasureFn
makeExecutionMeasure(const ConvProblem &p, int threads)
{
    return [p, threads](const ExecConfig &cfg) {
        return quickMeasureSeconds(p, cfg, threads);
    };
}

TunerResult
autotune(const ConvProblem &p, const MachineSpec &m,
         const MeasureFn &measure, const TunerOptions &opts)
{
    Timer timer;
    Rng rng(opts.seed);
    SamplerOptions sopts;
    sopts.fit_capacity = true;
    sopts.parallel = opts.parallel;

    RidgeModel model(kNumFeatures);
    TunerResult result;
    result.best_seconds = std::numeric_limits<double>::infinity();

    const auto propose = [&]() {
        return opts.template_space
                   ? sampleTemplateConfig(p, m, rng, opts.parallel)
                   : sampleConfig(p, m, rng, sopts);
    };
    const auto mutate = [&](const ExecConfig &cfg) {
        return opts.template_space ? perturbTemplate(cfg, p, m, rng)
                                   : perturb(cfg, p, rng);
    };

    for (int trial = 0; trial < opts.trials; ++trial) {
        ExecConfig pick;
        const bool explore =
            model.samples() < 4 || rng.uniform01() < opts.epsilon;
        if (explore) {
            pick = propose();
        } else {
            // Candidate pool: fresh samples + incumbent perturbations,
            // ranked by the surrogate.
            double best_pred = std::numeric_limits<double>::infinity();
            for (int i = 0; i < opts.pool_size; ++i) {
                ExecConfig cand = (i % 2 == 0 || result.history.empty())
                                      ? propose()
                                      : mutate(result.best);
                const double pred = model.predict(features(cand));
                if (pred < best_pred) {
                    best_pred = pred;
                    pick = cand;
                }
            }
        }

        const double seconds = measure(pick);
        model.observe(features(pick), std::log(std::max(seconds, 1e-9)));
        if (seconds < result.best_seconds) {
            result.best_seconds = seconds;
            result.best = pick;
        }
        result.history.push_back(result.best_seconds);
        ++result.trials;
    }
    result.tuning_seconds = timer.seconds();
    return result;
}

} // namespace mopt
