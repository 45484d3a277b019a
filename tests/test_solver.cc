/**
 * @file
 * Tests of the nonlinear solver stack (the AMPL/Ipopt substitute):
 * Adam on unconstrained problems with known minima, the augmented-
 * Lagrangian method on constrained problems with closed-form optima
 * (including the paper's matmul tile problem, Eq. 2/3), the min-max
 * decomposition of Sec. 5, and the discrete refiner.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "solver/augmented_lagrangian.hh"
#include "solver/discrete_refine.hh"
#include "support/gradient_check.hh"

namespace mopt {
namespace {

TEST(Adam, QuadraticBowl)
{
    int calls = 0;
    const auto fg = [&calls](const std::vector<double> &x,
                             std::vector<double> &grad) {
        ++calls;
        grad = {2.0 * (x[0] - 3.0), 4.0 * (x[1] + 1.0)};
        return (x[0] - 3.0) * (x[0] - 3.0) +
               2.0 * (x[1] + 1.0) * (x[1] + 1.0);
    };
    AdamOptions opts;
    opts.max_steps = 600;
    opts.lr = 0.2;
    std::vector<double> x = {0.0, 0.0};
    AdamScratch scratch;
    adamMinimizeGrad(fg, x, {-10.0, -10.0}, {10.0, 10.0}, opts, scratch);
    EXPECT_NEAR(x[0], 3.0, 1e-2);
    EXPECT_NEAR(x[1], -1.0, 1e-2);
    EXPECT_GT(calls, 0);
}

TEST(Adam, RespectsBoxBounds)
{
    const auto fg = [](const std::vector<double> &x,
                       std::vector<double> &grad) {
        grad = {-1.0};
        return -x[0];
    };
    AdamOptions opts;
    opts.max_steps = 200;
    std::vector<double> x = {0.0};
    AdamScratch scratch;
    adamMinimizeGrad(fg, x, {-1.0}, {2.0}, opts, scratch);
    EXPECT_NEAR(x[0], 2.0, 1e-6);
}

TEST(Adam, StopsWhenClampedMovementVanishes)
{
    // x0 is fixed (lo == hi) and x1 runs into its upper face; both keep
    // a raw Adam step of about lr, but neither can move, so the solve
    // must stop long before max_steps.
    int calls = 0;
    const auto fg = [&calls](const std::vector<double> &x,
                             std::vector<double> &grad) {
        ++calls;
        grad = {-1.0, -1.0};
        return -x[0] - x[1];
    };
    AdamOptions opts;
    opts.max_steps = 200;
    std::vector<double> x = {0.5, 0.0};
    AdamScratch scratch;
    const double f =
        adamMinimizeGrad(fg, x, {0.5, 0.0}, {0.5, 1.0}, opts, scratch);
    EXPECT_DOUBLE_EQ(f, -1.5);
    EXPECT_DOUBLE_EQ(x[1], 1.0);
    EXPECT_LT(calls, 50);
}

TEST(AugLag, EqualityLikeConstraint)
{
    // min x^2 + y^2 s.t. x + y >= 2  ->  x = y = 1.
    FunctionalNlp nlp(
        2, 1, {-5.0, -5.0}, {5.0, 5.0},
        [](const std::vector<double> &x, std::vector<double> &g) {
            g[0] = 2.0 - x[0] - x[1]; // <= 0
            return x[0] * x[0] + x[1] * x[1];
        });
    AugLagOptions opts;
    opts.inner.max_steps = 300;
    const NlpResult r = solveAugLag(nlp, {0.0, 0.0}, opts);
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.x[0], 1.0, 5e-2);
    EXPECT_NEAR(r.x[1], 1.0, 5e-2);
    EXPECT_NEAR(r.objective, 2.0, 1e-1);
}

TEST(AugLag, MatmulTileProblem)
{
    // The paper's Sec. 2 example: minimize
    //   Ni*Nj*Nk*(1/Ti + 1/Tj) (dropping the constant 2/Nk term)
    // s.t. Ti*Tk + Tj*Tk + Ti*Tj <= C. With Tk -> 1 optimal and
    // symmetric Ti = Tj ~ sqrt(C). C = 1024: Ti = Tj ~ 31.0.
    const double C = 1024.0;
    FunctionalNlp nlp(
        3, 1, {0.0, 0.0, 0.0},
        {std::log(512.0), std::log(512.0), std::log(512.0)},
        [C](const std::vector<double> &z, std::vector<double> &g) {
            const double ti = std::exp(z[0]);
            const double tj = std::exp(z[1]);
            const double tk = std::exp(z[2]);
            g[0] = std::log((ti * tk + tj * tk + ti * tj) / C);
            return std::log(1.0 / ti + 1.0 / tj);
        });
    AugLagOptions opts;
    opts.inner.max_steps = 300;
    const NlpResult r = solveAugLag(
        nlp, {std::log(8.0), std::log(8.0), std::log(8.0)}, opts);
    ASSERT_TRUE(r.feasible);
    const double ti = std::exp(r.x[0]);
    const double tj = std::exp(r.x[1]);
    const double tk = std::exp(r.x[2]);
    // Optimum: Tk = 1, Ti = Tj = (sqrt(4C+1)-1)/2 ~ 31.5.
    EXPECT_NEAR(tk, 1.0, 0.35);
    EXPECT_NEAR(ti, 31.5, 4.0);
    EXPECT_NEAR(tj, 31.5, 4.0);
}

TEST(AugLag, ReportsInfeasibleProblems)
{
    // x >= 3 and x <= -3 cannot both hold.
    FunctionalNlp nlp(
        1, 2, {-10.0}, {10.0},
        [](const std::vector<double> &x, std::vector<double> &g) {
            g[0] = 3.0 - x[0];
            g[1] = x[0] + 3.0;
            return x[0] * x[0];
        });
    const NlpResult r = solveAugLag(nlp, {0.0});
    EXPECT_FALSE(r.feasible);
    EXPECT_GT(r.max_violation, 1.0);
}

TEST(DiscreteRefine, BalancedTile)
{
    EXPECT_EQ(balancedTile(100, 30), 25); // ceil(100/4)
    EXPECT_EQ(balancedTile(100, 100), 100);
    // 2 tiles of <= 51: ceil(100/ceil(100/51)) = ceil(100/2) = 50.
    EXPECT_EQ(balancedTile(100, 51), 50);
    EXPECT_EQ(balancedTile(7, 3), 3); // 3 tiles -> ceil(7/3) = 3
    EXPECT_EQ(balancedTile(7, 10), 7);
}

TEST(DiscreteRefine, HillClimbFindsIntegerOptimum)
{
    // Convex separable objective with integer optimum (5, -3).
    DiscreteProblem dp;
    dp.lo = {-10, -10};
    dp.hi = {10, 10};
    dp.cost = [](const std::vector<std::int64_t> &x) {
        const double a = static_cast<double>(x[0]) - 5.0;
        const double b = static_cast<double>(x[1]) + 3.0;
        return a * a + b * b;
    };
    const auto x = hillClimb(dp, {0, 0});
    EXPECT_EQ(x[0], 5);
    EXPECT_EQ(x[1], -3);
}

TEST(DiscreteRefine, HillClimbHonorsInfeasibility)
{
    // Feasible set: x >= 4 (else +inf). Minimize x.
    DiscreteProblem dp;
    dp.lo = {0};
    dp.hi = {100};
    dp.cost = [](const std::vector<std::int64_t> &x) {
        if (x[0] < 4)
            return std::numeric_limits<double>::infinity();
        return static_cast<double>(x[0]);
    };
    const auto x = hillClimb(dp, {50});
    EXPECT_EQ(x[0], 4);
}

TEST(MultiStart, PicksBestOfSeeds)
{
    // Two local minima: x = -2 (f = 1) and x = 2 (f = 0). A start near
    // each; keeping the better result (the optimizer's reduction over
    // its starts) must return the global one, whatever the order.
    FunctionalNlp nlp(
        1, 0, {-4.0}, {4.0},
        [](const std::vector<double> &x, std::vector<double> &) {
            const double a = x[0] - 2.0;
            const double b = x[0] + 2.0;
            // Double-well: min value 0 at +2, 1 at -2.
            return 0.25 * a * a * b * b + 0.125 * (2.0 - x[0]);
        });
    AugLagOptions opts;
    opts.inner.max_steps = 300;
    const NlpResult left = solveAugLag(nlp, {-2.2}, opts);
    const NlpResult right = solveAugLag(nlp, {2.2}, opts);
    EXPECT_NEAR(left.x[0], -2.0, 0.2);
    EXPECT_NEAR(right.x[0], 2.0, 0.2);
    EXPECT_TRUE(betterNlpResult(right, left));
    EXPECT_FALSE(betterNlpResult(left, right));
    EXPECT_FALSE(betterNlpResult(right, right)); // Ties keep the first.
}

} // namespace
} // namespace mopt
