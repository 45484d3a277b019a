/**
 * @file
 * Tests of the general single-level data-volume evaluator (Sec. 3)
 * against the paper's hand-derived closed forms (Sec. 4) and against
 * first-principles reasoning on small cases.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "conv/problem.hh"
#include "model/footprint.hh"
#include "model/single_level.hh"
#include "model/tile_config.hh"

namespace mopt {
namespace {

ConvProblem
makeProblem(std::int64_t n, std::int64_t k, std::int64_t c, std::int64_t r,
            std::int64_t s, std::int64_t h, std::int64_t w, int stride = 1)
{
    ConvProblem p;
    p.n = n;
    p.k = k;
    p.c = c;
    p.r = r;
    p.s = s;
    p.h = h;
    p.w = w;
    p.stride = stride;
    return p;
}

/** A divisible test setting: N = (4, 8, 8, 3, 3, 8, 8), T divides N. */
struct Setting
{
    ConvProblem p = makeProblem(4, 8, 8, 3, 3, 8, 8);
    TileVec t{2, 4, 2, 3, 1, 4, 2};

    double nOver(Dim d) const
    {
        const auto extents = toTileVec(problemExtents(p));
        return extents[static_cast<std::size_t>(d)] /
               t[static_cast<std::size_t>(d)];
    }
    double tile(Dim d) const { return t[static_cast<std::size_t>(d)]; }
    double extent(Dim d) const
    {
        return static_cast<double>(
            problemExtents(p)[static_cast<std::size_t>(d)]);
    }
};

TEST(SingleLevel, TileCountContinuousAndCeil)
{
    Setting st;
    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_DOUBLE_EQ(tileCount(st.t, outer, DivMode::Continuous),
                     2.0 * 2 * 4 * 1 * 3 * 2 * 4);
    TileVec odd = st.t;
    odd[DimW] = 3; // 8/3 -> ceil 3
    EXPECT_DOUBLE_EQ(tileCount(odd, outer, DivMode::Ceil),
                     2.0 * 2 * 4 * 1 * 3 * 2 * 3);
}

/** Eq. 5: permutation <kt,ct,rt,st,nt,ht,wt> (innermost wt). */
TEST(SingleLevel, MatchesEq5InnermostWt)
{
    Setting st;
    const Permutation perm = Permutation::parse("kcrsnhw");

    const double tn = st.tile(DimN), tk = st.tile(DimK),
                 tc = st.tile(DimC), tr = st.tile(DimR),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);
    const double expected =
        st.nOver(DimK) * st.nOver(DimC) * st.nOver(DimR) * st.nOver(DimS) *
        (tk * tc * tr * ts +
         st.nOver(DimN) * st.nOver(DimH) *
             (2.0 * st.nOver(DimW) * tn * tk * th * tw +
              tn * tc * (th + tr - 1.0) *
                  (st.extent(DimW) + ts - 1.0)));

    const double got = totalDataVolume(perm, st.t, st.p);
    EXPECT_NEAR(got, expected, 1e-9 * expected);
}

/** Innermost ht closed form (Sec. 4). */
TEST(SingleLevel, MatchesClosedFormInnermostHt)
{
    Setting st;
    const Permutation perm = Permutation::parse("kcrsnwh");

    const double tn = st.tile(DimN), tk = st.tile(DimK),
                 tc = st.tile(DimC), tr = st.tile(DimR),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);
    const double expected =
        st.nOver(DimK) * st.nOver(DimC) * st.nOver(DimR) * st.nOver(DimS) *
        (tk * tc * tr * ts +
         st.nOver(DimN) * st.nOver(DimW) *
             (2.0 * st.nOver(DimH) * tn * tk * th * tw +
              tn * tc * (tw + ts - 1.0) *
                  (st.extent(DimH) + tr - 1.0)));

    const double got = totalDataVolume(perm, st.t, st.p);
    EXPECT_NEAR(got, expected, 1e-9 * expected);
}

/** Innermost st closed form (Sec. 4): three separate tensor terms. */
TEST(SingleLevel, MatchesClosedFormInnermostSt)
{
    Setting st;
    const Permutation perm = Permutation::parse("nkhwcrs");

    const double tn = st.tile(DimN), tk = st.tile(DimK),
                 tc = st.tile(DimC), tr = st.tile(DimR),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);

    const double dv_ker = st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimC) * st.nOver(DimR) *
                          st.nOver(DimS) * st.nOver(DimW) *
                          st.nOver(DimH) * tk * tc * tr * ts;
    const double dv_in = st.nOver(DimN) * st.nOver(DimK) *
                         st.nOver(DimC) * st.nOver(DimR) *
                         st.nOver(DimW) * st.nOver(DimH) * tn * tc *
                         (th + tr - 1.0) *
                         (tw + st.extent(DimS) - 1.0);
    const double dv_out = 2.0 * st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimH) * st.nOver(DimW) * tn * tk * th *
                          tw;

    EXPECT_NEAR(tensorDataVolume(TenKer, perm, st.t,
                                 toTileVec(problemExtents(st.p)), st.p),
                dv_ker, 1e-9 * dv_ker);
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t,
                                 toTileVec(problemExtents(st.p)), st.p),
                dv_in, 1e-9 * dv_in);
    EXPECT_NEAR(tensorDataVolume(TenOut, perm, st.t,
                                 toTileVec(problemExtents(st.p)), st.p),
                dv_out, 1e-9 * dv_out);
}

/** Innermost kt with wt second (Sec. 4 <...,wt,kt> case). */
TEST(SingleLevel, MatchesClosedFormWtKtInnermost)
{
    Setting st;
    const Permutation perm = Permutation::parse("nchrswk");

    const double tn = st.tile(DimN), tk = st.tile(DimK),
                 tc = st.tile(DimC), tr = st.tile(DimR),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);

    const double dv_out = 2.0 * st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimC) * st.nOver(DimR) *
                          st.nOver(DimS) * st.nOver(DimH) *
                          st.nOver(DimW) * tn * tk * th * tw;
    const double dv_ker = st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimC) * st.nOver(DimR) *
                          st.nOver(DimS) * st.nOver(DimW) *
                          st.nOver(DimH) * tk * tc * tr * ts;
    const double dv_in = st.nOver(DimN) * st.nOver(DimC) *
                         st.nOver(DimR) * st.nOver(DimS) *
                         st.nOver(DimH) * tn * tc * (th + tr - 1.0) *
                         (st.extent(DimW) + ts - 1.0);

    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_NEAR(tensorDataVolume(TenOut, perm, st.t, outer, st.p), dv_out,
                1e-9 * dv_out);
    EXPECT_NEAR(tensorDataVolume(TenKer, perm, st.t, outer, st.p), dv_ker,
                1e-9 * dv_ker);
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t, outer, st.p), dv_in,
                1e-9 * dv_in);
}

/** Innermost rt closed form (Sec. 4, set <{nt,kt,ht,wt},{ct,st},rt>). */
TEST(SingleLevel, MatchesClosedFormInnermostRt)
{
    Setting st;
    const Permutation perm = Permutation::parse("nkhwcsr");

    const double tn = st.tile(DimN), tk = st.tile(DimK),
                 tc = st.tile(DimC), tr = st.tile(DimR),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);

    const double dv_out = 2.0 * st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimH) * st.nOver(DimW) * tn * tk * th *
                          tw;
    const double dv_ker = st.nOver(DimN) * st.nOver(DimK) *
                          st.nOver(DimC) * st.nOver(DimR) *
                          st.nOver(DimS) * st.nOver(DimW) *
                          st.nOver(DimH) * tk * tc * tr * ts;
    // In with rt at R_In: h-extent widened to Nr's sweep.
    const double dv_in = st.nOver(DimN) * st.nOver(DimK) *
                         st.nOver(DimC) * st.nOver(DimS) *
                         st.nOver(DimW) * st.nOver(DimH) * tn * tc *
                         (th + st.extent(DimR) - 1.0) * (tw + ts - 1.0);

    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_NEAR(tensorDataVolume(TenOut, perm, st.t, outer, st.p), dv_out,
                1e-9 * dv_out);
    EXPECT_NEAR(tensorDataVolume(TenKer, perm, st.t, outer, st.p), dv_ker,
                1e-9 * dv_ker);
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t, outer, st.p), dv_in,
                1e-9 * dv_in);
}

/** The three remaining kt-innermost cases of Sec. 4. */
TEST(SingleLevel, MatchesClosedFormHtKtInnermost)
{
    Setting st;
    const Permutation perm = Permutation::parse("ncwrshk");
    const double tn = st.tile(DimN), tc = st.tile(DimC),
                 tr = st.tile(DimR), ts = st.tile(DimS),
                 tw = st.tile(DimW);
    // DV_In^{...,ht,kt}: ht at R_In; the ht trip factor is consumed by
    // the sweep and kt (innermost, absent in In) contributes nothing.
    const double dv_in = st.nOver(DimN) * st.nOver(DimC) *
                         st.nOver(DimR) * st.nOver(DimS) *
                         st.nOver(DimW) * tn * tc *
                         (st.extent(DimH) + tr - 1.0) * (tw + ts - 1.0);
    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t, outer, st.p), dv_in,
                1e-9 * dv_in);
}

TEST(SingleLevel, MatchesClosedFormStKtInnermost)
{
    Setting st;
    const Permutation perm = Permutation::parse("nchwrsk");
    const double tn = st.tile(DimN), tc = st.tile(DimC),
                 tr = st.tile(DimR), th = st.tile(DimH),
                 tw = st.tile(DimW);
    const double dv_in = st.nOver(DimN) * st.nOver(DimC) *
                         st.nOver(DimR) * st.nOver(DimH) *
                         st.nOver(DimW) * tn * tc * (th + tr - 1.0) *
                         (tw + st.extent(DimS) - 1.0);
    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t, outer, st.p), dv_in,
                1e-9 * dv_in);
}

TEST(SingleLevel, MatchesClosedFormRtKtInnermost)
{
    Setting st;
    const Permutation perm = Permutation::parse("nchwsrk");
    const double tn = st.tile(DimN), tc = st.tile(DimC),
                 ts = st.tile(DimS), th = st.tile(DimH),
                 tw = st.tile(DimW);
    const double dv_in = st.nOver(DimN) * st.nOver(DimC) *
                         st.nOver(DimS) * st.nOver(DimH) *
                         st.nOver(DimW) * tn * tc *
                         (th + st.extent(DimR) - 1.0) * (tw + ts - 1.0);
    const TileVec outer = toTileVec(problemExtents(st.p));
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, st.t, outer, st.p), dv_in,
                1e-9 * dv_in);
}

/**
 * Sec. 2.2's pedagogical example: matrix multiplication
 * C[i,j] += A[i,k] * B[k,j] encodes as a convolution with
 * n = h = r = s = 1 (i -> output channel, j -> output width,
 * k -> input channel), and the general CNN evaluator must reduce to
 * the paper's Eq. 3:
 *
 *   DV_{it,jt,kt} = Ni*Nj*Nk*(1/Ti + 1/Tj + 2/Nk)
 */
TEST(SingleLevel, MatmulReductionMatchesEq3)
{
    const double Ni = 24, Nj = 32, Nk = 16;
    const double Ti = 4, Tj = 8, Tk = 2;
    ConvProblem p = makeProblem(1, static_cast<std::int64_t>(Ni),
                                static_cast<std::int64_t>(Nk), 1, 1, 1,
                                static_cast<std::int64_t>(Nj));

    // Tile loops <it, jt, kt> == conv dims <k, w, c> innermost-last;
    // the unit dims can sit anywhere outside.
    const Permutation perm = Permutation::parse("nrshkwc");
    TileVec t{1, Ti, Tk, 1, 1, 1, Tj};

    const double expected = Ni * Nj * Nk * (1.0 / Ti + 1.0 / Tj) +
                            2.0 * Ni * Nj;
    const double got = totalDataVolume(perm, t, p);
    EXPECT_NEAR(got, expected, 1e-9 * expected);

    // And the Eq. 2 capacity footprint: Ti*Tk + Tj*Tk + Ti*Tj.
    EXPECT_DOUBLE_EQ(totalFootprint(t, p),
                     Ti * Tk + Tj * Tk + Ti * Tj);
}

/** Whole-problem tile: everything is loaded exactly once. */
TEST(SingleLevel, SingleTileLoadsEverythingOnce)
{
    Setting st;
    const TileVec whole = toTileVec(problemExtents(st.p));
    for (const char *ps : {"nkcrshw", "whsrckn", "kcrsnhw"}) {
        const Permutation perm = Permutation::parse(ps);
        const double dv = totalDataVolume(perm, whole, st.p);
        const double expected = tileFootprint(TenIn, whole, st.p) +
                                tileFootprint(TenKer, whole, st.p) +
                                2.0 * tileFootprint(TenOut, whole, st.p);
        EXPECT_NEAR(dv, expected, 1e-9 * expected) << ps;
    }
}

/**
 * The nt/ct-innermost permutations are dominated (Sec. 4): with the
 * same tile sizes, their cost is >= the corresponding w-innermost
 * variant.
 */
TEST(SingleLevel, InnermostNtDominatedByInnermostWt)
{
    Setting st;
    const double dv_n = totalDataVolume(Permutation::parse("kcrshwn"),
                                        st.t, st.p);
    const double dv_w = totalDataVolume(Permutation::parse("kcrsnhw"),
                                        st.t, st.p);
    EXPECT_GE(dv_n, dv_w - 1e-9);
}

/** Stride-2 input extents propagate into the In volume. */
TEST(SingleLevel, StrideAwareInputVolume)
{
    ConvProblem p = makeProblem(1, 8, 8, 3, 3, 8, 8, 2);
    TileVec t{1, 8, 8, 3, 3, 8, 2};
    const Permutation perm = Permutation::parse("kcrsnhw");
    const TileVec outer = toTileVec(problemExtents(p));
    // Innermost wt sweeps the full W: extent (Nw-1)*stride + Ts.
    const double expected_in =
        1.0 * 1.0 * ((8.0 - 1) * 2 + 3) * ((8.0 - 1) * 2 + 3) * 8.0;
    EXPECT_NEAR(tensorDataVolume(TenIn, perm, t, outer, p), expected_in,
                1e-9 * expected_in);
}

/** Ceil mode rounds partial trip counts up. */
TEST(SingleLevel, CeilModeUpperBoundsContinuous)
{
    Setting st;
    TileVec odd = st.t;
    odd[DimH] = 3; // 8/3 not integral
    odd[DimK] = 5;
    for (const char *ps : {"kcrsnhw", "nkhwcrs", "nchrswk"}) {
        const Permutation perm = Permutation::parse(ps);
        const double cont =
            totalDataVolume(perm, odd, st.p, DivMode::Continuous);
        const double ceil =
            totalDataVolume(perm, odd, st.p, DivMode::Ceil);
        EXPECT_GE(ceil, cont - 1e-9) << ps;
    }
}

/** R_A positions: spot-check the paper's Sec. 3.1 example. */
TEST(SingleLevel, InnermostPresentPositions)
{
    // vec p = <..., ct, nt>: nt innermost.
    const Permutation perm = Permutation::parse("krshwcn");
    EXPECT_EQ(perm.innermostPresentPosition(TenOut), 1); // nt
    EXPECT_EQ(perm.innermostPresentPosition(TenIn), 1);  // nt
    EXPECT_EQ(perm.innermostPresentPosition(TenKer), 2); // ct
}

} // namespace
} // namespace mopt
