/**
 * @file
 * Tests of the differentiable evaluation layer: EvalContext parity
 * with the reference model evaluator, analytic ConvNlp gradients vs
 * independent central differences across randomized problems and
 * permutation combos, the finite-difference fallback, and end-to-end
 * determinism of the flattened parallel optimizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <new>
#include <string>

#include "common/rng.hh"
#include "conv/workloads.hh"
#include "machine/machine.hh"
#include "model/eval_context.hh"
#include "model/multi_level.hh"
#include "model/parallel_model.hh"
#include "model/pruned_classes.hh"
#include "optimizer/conv_nlp.hh"
#include "optimizer/mopt_optimizer.hh"
#include "support/dense_auglag.hh"
#include "support/gradient_check.hh"

namespace mopt {
namespace {

constexpr int kNumVars = EvalContext::kNumVars;

/** Variable index of (cache level l in {L1,L2,L3}, dim d). */
std::size_t
vi(int lvl, int d)
{
    return static_cast<std::size_t>((lvl - LvlL1) * NumDims + d);
}

struct GradSetup
{
    ConvProblem p;
    MachineSpec m;
    std::array<Permutation, NumMemLevels> perms;
    TileVec reg_tiles;
    IntTileVec par;
    bool parallel;
    std::vector<double> lo, hi;
};

/**
 * A solver-shaped setup for one (problem, pruned class, parallel)
 * case: register tiles pinned by the microkernel, box bounds
 * [log reg tile, log extent] per cache level, and a simple K-split
 * for the parallel case (kept away from the per-core-share clamp).
 */
GradSetup
makeSetup(const ConvProblem &p, const PrunedClass &cls, bool parallel)
{
    GradSetup s;
    s.p = p;
    s.m = i7_9700k();
    const Permutation rep = cls.representative();
    s.perms = {microkernelPermutation(), rep, rep, rep};
    s.reg_tiles = toTileVec(microkernelTiles(p, s.m));
    s.par = {1, 1, 1, 1, 1, 1, 1};
    if (parallel)
        s.par[DimK] = std::min<std::int64_t>(s.m.cores, p.k);
    s.parallel = parallel;

    const IntTileVec extents = problemExtents(p);
    s.lo.resize(kNumVars);
    s.hi.resize(kNumVars);
    for (int l = 0; l < 3; ++l)
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            s.lo[vi(LvlL1 + l, d)] = std::log(s.reg_tiles[sd]);
            s.hi[vi(LvlL1 + l, d)] =
                std::log(static_cast<double>(extents[sd]));
        }
    return s;
}

/**
 * A random interior point, nested across levels (L1 <= L2 <= L3) and
 * kept away from the box faces and from the per-core-share clamp at
 * T3_d = par_d, where the model is non-differentiable by design.
 */
std::vector<double>
interiorPoint(const GradSetup &s, Rng &rng)
{
    std::vector<double> x(kNumVars);
    for (int d = 0; d < NumDims; ++d) {
        const double lo = s.lo[vi(LvlL1, d)];
        const double hi = s.hi[vi(LvlL1, d)];
        if (hi - lo < 1e-12) {
            for (int l = 0; l < 3; ++l)
                x[vi(LvlL1 + l, d)] = lo;
            continue;
        }
        // Three ordered fractions in (0.15, 0.95) of the interval.
        double f[3];
        for (double &v : f)
            v = rng.uniformReal(0.15, 0.95);
        std::sort(f, f + 3);
        for (int l = 0; l < 3; ++l)
            x[vi(LvlL1 + l, d)] = lo + f[l] * (hi - lo);
        // Keep the L3 tile's per-core share away from the clamp.
        const auto sd = static_cast<std::size_t>(d);
        if (s.parallel && s.par[sd] > 1) {
            const double kink =
                std::log(1.5 * static_cast<double>(s.par[sd]));
            x[vi(LvlL3, d)] =
                std::max(x[vi(LvlL3, d)], std::min(kink, hi));
        }
    }
    return x;
}

/** One (lambda, mu) pair of the augmented Lagrangian. */
struct Multipliers
{
    std::vector<double> lambda;
    double mu;
};

/**
 * Multiplier settings for the gradient checks: all zero (only violated
 * rows are active), a random mix with about a third of the rows at
 * zero, and each row alone with a large multiplier, which isolates its
 * Jacobian row the way a per-row comparison would.
 */
std::vector<Multipliers>
multiplierSets(Rng &rng)
{
    constexpr auto m = static_cast<std::size_t>(ConvNlp::kNumCons);
    std::vector<Multipliers> sets;
    sets.push_back({std::vector<double>(m, 0.0), 1.0});
    Multipliers mix{std::vector<double>(m), rng.uniformReal(0.5, 50.0)};
    for (double &l : mix.lambda)
        l = rng.uniformInt(0, 2) == 0 ? 0.0 : rng.uniformReal(0.0, 2.0);
    sets.push_back(mix);
    for (std::size_t i = 0; i < m; ++i) {
        Multipliers one{std::vector<double>(m, 0.0), 1.0};
        one.lambda[i] = 100.0;
        sets.push_back(one);
    }
    return sets;
}

/**
 * The worst gradientCheck of @p nlp at @p x over multiplierSets. The
 * augmented Lagrangian's value from augLagValueGrad must equal the one
 * built from evalAll exactly; @p set names the worst setting.
 */
GradCheckResult
worstGradientCheck(const ConvNlp &nlp, const std::vector<double> &x,
                   Rng &rng, std::size_t &set)
{
    GradCheckResult worst;
    const std::vector<Multipliers> sets = multiplierSets(rng);
    for (std::size_t i = 0; i < sets.size(); ++i) {
        const GradCheckResult r =
            gradientCheck(nlp, x, sets[i].lambda, sets[i].mu);
        EXPECT_EQ(r.value_diff, 0.0) << "multiplier set " << i;
        if (i == 0 || r.max_rel_err > worst.max_rel_err) {
            worst = r;
            set = i;
        }
    }
    return worst;
}

TEST(EvalContext, MatchesReferenceModel)
{
    Rng rng(2024);
    const auto &classes = prunedClasses();
    for (const char *name : {"Y0", "R3", "M2"}) {
        const ConvProblem p = workloadByName(name).downscaled(28, 64);
        for (bool parallel : {false, true}) {
            const GradSetup s =
                makeSetup(p, classes[rng.index(classes.size())],
                          parallel);
            EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par,
                            s.parallel);
            EvalContext::Scratch scratch;
            for (int rep = 0; rep < 4; ++rep) {
                const std::vector<double> x = interiorPoint(s, rng);
                const CostBreakdown got =
                    ctx.evalBreakdown(x.data(), scratch);

                // Reference: decode into a MultiLevelConfig and run
                // the original evaluator.
                MultiLevelConfig cfg;
                for (int l = 0; l < NumMemLevels; ++l)
                    cfg.level[static_cast<std::size_t>(l)].perm =
                        s.perms[static_cast<std::size_t>(l)];
                cfg.level[LvlReg].tiles = s.reg_tiles;
                for (int l = 0; l < 3; ++l)
                    for (int d = 0; d < NumDims; ++d)
                        cfg.level[static_cast<std::size_t>(LvlL1 + l)]
                            .tiles[static_cast<std::size_t>(d)] =
                            std::exp(x[vi(LvlL1 + l, d)]);
                cfg.par = s.par;
                const CostBreakdown want = evalMultiLevel(
                    cfg, s.p, s.m, s.parallel, DivMode::Continuous);

                for (int l = 0; l < NumMemLevels; ++l) {
                    const auto sl = static_cast<std::size_t>(l);
                    EXPECT_NEAR(got.seconds[sl] / want.seconds[sl],
                                1.0, 1e-12)
                        << name << " level " << l;
                }
                EXPECT_NEAR(got.total_seconds / want.total_seconds,
                            1.0, 1e-12);
            }
        }
    }
}

TEST(ConvNlpGradient, MatchesFiniteDifferences)
{
    Rng rng(7);
    Rng mult_rng(8);
    const auto &classes = prunedClasses();

    std::vector<ConvProblem> problems;
    for (const char *name : {"Y0", "Y5", "R3", "M2"})
        problems.push_back(workloadByName(name).downscaled(28, 64));
    // Randomized shapes, including stride 2 and 1x1 kernels.
    for (int i = 0; i < 4; ++i) {
        ConvProblem p;
        p.name = "rand" + std::to_string(i);
        p.n = 1;
        p.k = 8 * rng.uniformInt(2, 16);
        p.c = 8 * rng.uniformInt(1, 8);
        p.r = p.s = (i % 2 == 0) ? 3 : 1;
        p.h = p.w = rng.uniformInt(14, 56);
        p.stride = (i == 3) ? 2 : 1;
        problems.push_back(p);
    }

    double worst = 0.0;
    for (const ConvProblem &p : problems) {
        for (bool parallel : {false, true}) {
            const PrunedClass &cls = classes[rng.index(classes.size())];
            const GradSetup s = makeSetup(p, cls, parallel);
            EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par,
                            s.parallel);
            const int obj =
                static_cast<int>(rng.uniformInt(0, NumMemLevels - 1));
            const ConvNlp nlp(ctx, obj, s.lo, s.hi);

            for (int rep = 0; rep < 3; ++rep) {
                const std::vector<double> x = interiorPoint(s, rng);
                std::size_t set = 0;
                const GradCheckResult r =
                    worstGradientCheck(nlp, x, mult_rng, set);
                EXPECT_LE(r.max_rel_err, 1e-4)
                    << p.name << " cls=" << cls.name()
                    << " parallel=" << parallel << " obj=" << obj
                    << " multiplier set=" << set
                    << " coord=" << r.worst_coord;
                worst = std::max(worst, r.max_rel_err);
            }
        }
    }
    // The closed form should be far tighter than the acceptance bound.
    EXPECT_LE(worst, 1e-4);
}

/**
 * A seeded random case for the overhead tests: a problem drawn across
 * batch, groups, stride, dilation and kernel size; a random pruned
 * class per cache level; a random exact split of the cores; and
 * overhead constants large enough that the term is a visible share of
 * every objective.
 */
GradSetup
randomOverheadSetup(Rng &rng, bool parallel)
{
    ConvProblem p;
    p.name = "overhead";
    p.n = rng.uniformInt(1, 3);
    p.groups = rng.uniformInt(0, 2) == 0 ? 2 : 1;
    p.k = p.groups * 8 * rng.uniformInt(1, 8);
    p.c = p.groups * 4 * rng.uniformInt(1, 8);
    p.r = p.s = rng.uniformInt(0, 1) ? 3 : 1;
    p.h = rng.uniformInt(7, 40);
    p.w = rng.uniformInt(7, 40);
    p.stride = static_cast<int>(rng.uniformInt(1, 2));
    p.dilation = p.r > 1 ? static_cast<int>(rng.uniformInt(1, 2)) : 1;

    const auto &classes = prunedClasses();
    GradSetup s = makeSetup(p, classes[rng.index(classes.size())], parallel);
    for (int l = LvlL1; l <= LvlL3; ++l)
        s.perms[static_cast<std::size_t>(l)] =
            classes[rng.index(classes.size())].representative();
    if (parallel) {
        const auto splits = parallelSplits(s.m.cores, problemExtents(p));
        s.par = splits[rng.index(splits.size())];
    }
    s.m.t_call = 2e-6;
    s.m.t_sync = 1e-4;
    return s;
}

TEST(EvalContext, MatchesReferenceModelWithOverhead)
{
    Rng rng(4242);
    for (int rep = 0; rep < 24; ++rep) {
        for (bool parallel : {false, true}) {
            const GradSetup s = randomOverheadSetup(rng, parallel);
            EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par,
                            s.parallel);
            EvalContext::Scratch scratch;
            const std::vector<double> x = interiorPoint(s, rng);
            const CostBreakdown got = ctx.evalBreakdown(x.data(), scratch);
            const CostBreakdown want = evalMultiLevel(
                ctx.decodeConfig(x.data()), s.p, s.m, s.parallel,
                DivMode::Continuous);
            EXPECT_GT(got.overhead_seconds, 0.0);
            EXPECT_NEAR(got.overhead_seconds / want.overhead_seconds, 1.0,
                        1e-12)
                << "rep " << rep << " parallel " << parallel;
            EXPECT_NEAR(got.total_seconds / want.total_seconds, 1.0, 1e-12)
                << "rep " << rep << " parallel " << parallel;

            // evalSeconds reports the same overhead as the breakdown.
            std::array<double, NumMemLevels> secs;
            ctx.evalSeconds(x.data(), scratch, secs);
            EXPECT_DOUBLE_EQ(scratch.call_overhead + scratch.sync_overhead,
                             got.overhead_seconds);
        }
    }
}

TEST(ConvNlpGradient, MatchesFiniteDifferencesWithOverhead)
{
    Rng rng(99);
    Rng mult_rng(100);
    double worst = 0.0;
    for (int rep = 0; rep < 16; ++rep) {
        for (bool parallel : {false, true}) {
            const GradSetup s = randomOverheadSetup(rng, parallel);
            EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par,
                            s.parallel);
            const int obj =
                static_cast<int>(rng.uniformInt(0, NumMemLevels - 1));
            const ConvNlp nlp(ctx, obj, s.lo, s.hi);
            const std::vector<double> x = interiorPoint(s, rng);
            std::size_t set = 0;
            const GradCheckResult r =
                worstGradientCheck(nlp, x, mult_rng, set);
            EXPECT_LE(r.max_rel_err, 1e-4)
                << "rep " << rep << " parallel=" << parallel
                << " obj=" << obj << " multiplier set=" << set
                << " coord=" << r.worst_coord;
            worst = std::max(worst, r.max_rel_err);
        }
    }
    EXPECT_LE(worst, 1e-4);
}

TEST(ConvNlpGradient, FallbackMatchesAnalyticPath)
{
    // A FunctionalNlp (tests/support) wrapping the same math must
    // produce the same augmented Lagrangian through its central
    // differences (gradientCheck of an FD problem against itself is
    // trivially consistent, so check them against the analytic one).
    const ConvProblem p = workloadByName("Y0").downscaled(28, 64);
    const GradSetup s = makeSetup(p, prunedClasses()[0], false);
    EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par, s.parallel);
    const ConvNlp nlp(ctx, LvlL3, s.lo, s.hi);

    FunctionalNlp fd(
        kNumVars, ConvNlp::kNumCons, s.lo, s.hi,
        [&nlp](const std::vector<double> &x, std::vector<double> &g) {
            return nlp.evalAll(x, g);
        });

    Rng rng(11);
    const std::vector<double> x = interiorPoint(s, rng);
    for (const Multipliers &mult : multiplierSets(rng)) {
        std::vector<double> ga, grada, gb, gradb;
        const double fa =
            nlp.augLagValueGrad(x, mult.lambda, mult.mu, ga, grada);
        const double fb =
            fd.augLagValueGrad(x, mult.lambda, mult.mu, gb, gradb);
        EXPECT_DOUBLE_EQ(fa, fb);
        EXPECT_EQ(ga, gb);
        // A pinned coordinate has no difference quotient (and the
        // solver never reads its entry).
        for (int i = 0; i < kNumVars; ++i) {
            const auto si = static_cast<std::size_t>(i);
            if (s.lo[si] < s.hi[si]) {
                EXPECT_NEAR(grada[si], gradb[si],
                            1e-4 * std::max(1.0, std::fabs(grada[si])));
            }
        }
    }
}

/** A uniform point in the box: not nested, often violating, and
 *  crossing the per-core-share clamp. Pinned coordinates keep lo. */
std::vector<double>
boxPoint(const std::vector<double> &lo, const std::vector<double> &hi,
         Rng &rng)
{
    std::vector<double> x(kNumVars);
    for (std::size_t j = 0; j < x.size(); ++j)
        x[j] = lo[j] < hi[j] ? rng.uniformReal(lo[j], hi[j]) : lo[j];
    return x;
}

/** Random multipliers with about a third of the rows at zero. */
Multipliers
randomMultipliers(Rng &rng)
{
    Multipliers mult{std::vector<double>(ConvNlp::kNumCons),
                     std::exp(rng.uniformReal(0.0, 9.0))};
    for (double &l : mult.lambda)
        l = rng.uniformInt(0, 2) == 0 ? 0.0 : rng.uniformReal(0.0, 3.0);
    return mult;
}

/**
 * augLagValueGrad of @p nlp (objective level @p obj) at @p x equals
 * the dense reference of @p ctx bit for bit: value, every constraint
 * and every gradient entry (EXPECT_EQ on doubles, so only a zero's
 * sign may differ).
 */
void
expectMatchesDense(const ConvNlp &nlp, const EvalContext &ctx, int obj,
                   const std::vector<double> &x, const Multipliers &mult,
                   const std::string &where)
{
    std::vector<double> g, grad, g_ref, grad_ref;
    const double v = nlp.augLagValueGrad(x, mult.lambda, mult.mu, g, grad);
    const double v_ref =
        denseConvNlpAugLag(ctx, obj, x, mult.lambda, mult.mu, g_ref, grad_ref);
    EXPECT_EQ(v, v_ref) << where;
    EXPECT_EQ(g, g_ref) << where;
    ASSERT_EQ(grad.size(), grad_ref.size()) << where;
    for (std::size_t j = 0; j < grad.size(); ++j)
        EXPECT_EQ(grad[j], grad_ref[j]) << where << " entry " << j;
}

TEST(ConvNlpAugLag, MatchesDenseReferenceBitForBit)
{
    // Random problems, classes, splits and objective levels; a box
    // with 0-3 levels pinned; steps that move only the free variables
    // (so pinned levels hit the per-level memo), alternating nested
    // interior points and uniform box points, with fresh multipliers.
    Rng rng(314);
    for (int rep = 0; rep < 24; ++rep) {
        const bool parallel = rep % 2 == 1;
        GradSetup s = randomOverheadSetup(rng, parallel);
        const std::vector<double> pin = interiorPoint(s, rng);
        const int pinned = static_cast<int>(rng.uniformInt(0, 3));
        for (int l = 0; l < pinned; ++l) {
            const int lvl = LvlL3 - static_cast<int>(
                                        (rep + l) % 3); // distinct
            for (int d = 0; d < NumDims; ++d)
                s.lo[vi(lvl, d)] = s.hi[vi(lvl, d)] = pin[vi(lvl, d)];
        }
        EvalContext ctx(s.p, s.m, s.perms, s.reg_tiles, s.par,
                        s.parallel);
        const int obj =
            static_cast<int>(rng.uniformInt(0, NumMemLevels - 1));
        const ConvNlp nlp(ctx, obj, s.lo, s.hi);
        for (int step = 0; step < 8; ++step) {
            std::vector<double> x = step % 2 == 0
                                        ? interiorPoint(s, rng)
                                        : boxPoint(s.lo, s.hi, rng);
            for (std::size_t j = 0; j < x.size(); ++j)
                if (s.lo[j] == s.hi[j])
                    x[j] = s.lo[j];
            expectMatchesDense(nlp, ctx, obj, x, randomMultipliers(rng),
                               "rep " + std::to_string(rep) + " step " +
                                   std::to_string(step) + " pinned " +
                                   std::to_string(pinned));
        }
    }
}

TEST(ConvNlpAugLag, MemoSurvivesInterleavedAndRebuiltContexts)
{
    Rng rng(2718);
    GradSetup a = randomOverheadSetup(rng, false);
    GradSetup b = randomOverheadSetup(rng, true);
    b.p.h = a.p.h + 5; // different extents: different level times
    const EvalContext ctx_a(a.p, a.m, a.perms, a.reg_tiles, a.par,
                            a.parallel);
    const EvalContext ctx_b(b.p, b.m, b.perms, b.reg_tiles, b.par,
                            b.parallel);
    const ConvNlp nlp_a(ctx_a, LvlL2, a.lo, a.hi);
    const ConvNlp nlp_b(ctx_b, LvlL1, b.lo, b.hi);

    // Two contexts interleaved on this thread's one scratch, each
    // revisiting its points (memo hits) between the other's calls.
    const std::vector<double> xa = interiorPoint(a, rng);
    const std::vector<double> xb = interiorPoint(b, rng);
    for (int step = 0; step < 6; ++step) {
        const Multipliers mult = randomMultipliers(rng);
        const std::string where = "interleaved step " +
                                  std::to_string(step);
        expectMatchesDense(nlp_a, ctx_a, LvlL2, xa, mult, where + " a");
        expectMatchesDense(nlp_b, ctx_b, LvlL1, step < 3 ? xb : xa, mult,
                           where + " b");
    }

    // A context destroyed and a new one built in the same storage for
    // another problem, evaluated at the same point: a memo keyed on
    // the address would return the first problem's level times.
    const std::vector<double> x = interiorPoint(a, rng);
    const Multipliers mult = randomMultipliers(rng);
    alignas(EvalContext) unsigned char storage[sizeof(EvalContext)];
    auto *first = new (storage) EvalContext(a.p, a.m, a.perms,
                                            a.reg_tiles, a.par, a.parallel);
    std::vector<double> g, grad_first, grad_second;
    double v_first = 0.0;
    {
        const ConvNlp nlp(*first, LvlL1, a.lo, a.hi);
        v_first = nlp.augLagValueGrad(x, mult.lambda, mult.mu, g,
                                      grad_first);
    }
    first->~EvalContext();
    GradSetup c = a;
    c.p.h = a.p.h + 5;
    c.p.k = a.p.k * 2;
    auto *second = new (storage) EvalContext(
        c.p, c.m, c.perms, c.reg_tiles, c.par, c.parallel);
    {
        const ConvNlp nlp(*second, LvlL1, c.lo, c.hi);
        const double v_second = nlp.augLagValueGrad(
            x, mult.lambda, mult.mu, g, grad_second);
        EXPECT_NE(v_second, v_first);
        expectMatchesDense(nlp, *second, LvlL1, x, mult,
                           "rebuilt context");
    }
    second->~EvalContext();
}

TEST(Optimizer, DeterministicAcrossThreadCounts)
{
    // The flattened (combo x objective x start) fan-out must produce
    // bit-identical results regardless of scheduling: every work item
    // is independent and the reduction is sequential in job order.
    for (const char *name : {"Y0", "Y23"}) {
        const ConvProblem p = workloadByName(name).downscaled(28, 64);
        const MachineSpec m = i7_9700k();
        OptimizerOptions o1;
        o1.effort = OptimizerOptions::Effort::Fast;
        o1.parallel = true;
        o1.threads = 1;
        OptimizerOptions o4 = o1;
        o4.threads = 4;

        const OptimizeOutput a = optimizeConv(p, m, o1);
        const OptimizeOutput b = optimizeConv(p, m, o4);
        ASSERT_FALSE(a.candidates.empty());
        ASSERT_EQ(a.candidates.size(), b.candidates.size());
        EXPECT_EQ(a.solver_evals, b.solver_evals);
        EXPECT_TRUE(a.candidates.front().config ==
                    b.candidates.front().config)
            << name << "\n"
            << a.candidates.front().config.str() << "vs\n"
            << b.candidates.front().config.str();
        EXPECT_DOUBLE_EQ(a.candidates.front().predicted.total_seconds,
                         b.candidates.front().predicted.total_seconds);

        // Repeat runs with identical options are also identical.
        const OptimizeOutput c = optimizeConv(p, m, o4);
        EXPECT_TRUE(b.candidates.front().config ==
                    c.candidates.front().config);
    }
}

} // namespace
} // namespace mopt
