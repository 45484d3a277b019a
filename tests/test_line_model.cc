/**
 * @file
 * Tests of the cache-line (spatial locality) model extension of
 * Sec. 12: reduction to the unit-line model at L = 1, exact line
 * arithmetic, monotonicity, and rank agreement with line-granularity
 * cache simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cachesim/conv_trace.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "machine/machine.hh"
#include "model/footprint.hh"
#include "model/multi_level.hh"
#include "model/pruned_classes.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {
namespace {

ConvProblem
prob()
{
    ConvProblem p;
    p.name = "line";
    p.n = 1;
    p.k = 32;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 14;
    p.w = 14;
    return p;
}

TEST(LineCount, ExactCeilInCeilMode)
{
    EXPECT_DOUBLE_EQ(lineCount(16.0, 16, DivMode::Ceil), 1.0);
    EXPECT_DOUBLE_EQ(lineCount(17.0, 16, DivMode::Ceil), 2.0);
    EXPECT_DOUBLE_EQ(lineCount(1.0, 16, DivMode::Ceil), 1.0);
    EXPECT_DOUBLE_EQ(lineCount(32.0, 16, DivMode::Ceil), 2.0);
}

TEST(LineCount, SmoothUpperBoundInContinuousMode)
{
    // (T + L - 1)/L >= ceil-free T/L and >= 1 for T >= 1.
    for (double t : {1.0, 2.5, 15.9, 16.0, 16.1, 100.0}) {
        const double smooth = lineCount(t, 16, DivMode::Continuous);
        EXPECT_GE(smooth, t / 16.0);
        EXPECT_GE(smooth, 1.0 - 1e-12);
        // Never exceeds the exact ceil by more than one line.
        EXPECT_LE(smooth, lineCount(t, 16, DivMode::Ceil) + 1.0);
    }
}

TEST(LineCount, UnitLineIsIdentity)
{
    EXPECT_DOUBLE_EQ(lineCount(7.3, 1, DivMode::Continuous), 7.3);
    EXPECT_DOUBLE_EQ(lineCount(7.3, 1, DivMode::Ceil), 7.3);
}

TEST(LineFootprint, ReducesToWordFootprintAtUnitLine)
{
    const ConvProblem p = prob();
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        TileVec t;
        const IntTileVec ext = problemExtents(p);
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            t[sd] = static_cast<double>(rng.uniformInt(1, ext[sd]));
        }
        for (TensorId ten : {TenIn, TenKer, TenOut})
            EXPECT_DOUBLE_EQ(
                tileFootprintLines(ten, t, p, 1, DivMode::Ceil),
                tileFootprint(ten, t, p));
    }
}

TEST(LineFootprint, WholeLinesRoundUp)
{
    const ConvProblem p = prob();
    // Out tile with w = 5 on 16-word lines: 1 line of 16 words per
    // (n, k, h) row.
    TileVec t{1, 4, 1, 1, 1, 3, 5};
    EXPECT_DOUBLE_EQ(tileFootprintLines(TenOut, t, p, 16, DivMode::Ceil),
                     4 * 3 * 1 * 16.0);
    // Ker tile with s = 3 on 8-word lines: 1 line per (k, c, r).
    EXPECT_DOUBLE_EQ(tileFootprintLines(TenKer, t, p, 8, DivMode::Ceil),
                     4 * 1 * 1 * 8.0);
}

TEST(LineModel, VolumeAtLeastWordVolume)
{
    // Rounding extents up to whole lines can only increase the moved
    // volume (in words).
    const ConvProblem p = prob();
    const TileVec outer = toTileVec(problemExtents(p));
    Rng rng(9);
    for (const auto &cls : prunedClasses()) {
        for (int i = 0; i < 5; ++i) {
            TileVec t;
            for (int d = 0; d < NumDims; ++d) {
                const auto sd = static_cast<std::size_t>(d);
                t[sd] = static_cast<double>(
                    rng.uniformInt(1, problemExtents(p)[sd]));
            }
            const double words = totalDataVolume(cls.representative(), t,
                                                 outer, p, DivMode::Ceil);
            const double lines16 = totalDataVolume(
                cls.representative(), t, outer, p, DivMode::Ceil, 16);
            EXPECT_GE(lines16, words - 1e-9) << cls.name();
        }
    }
}

TEST(LineModel, UnitLineMatchesBaseModelEndToEnd)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg;
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm =
            Permutation::parse("kcrsnhw");
    cfg.level[LvlReg].perm = microkernelPermutation();
    cfg.level[LvlReg].tiles = {1, 16, 1, 1, 1, 1, 6};
    cfg.level[LvlL1].tiles = {1, 16, 8, 3, 3, 2, 12};
    cfg.level[LvlL2].tiles = {1, 32, 16, 3, 3, 7, 14};
    cfg.level[LvlL3].tiles = {1, 32, 16, 3, 3, 14, 14};

    const CostBreakdown base =
        evalMultiLevel(cfg, p, m, false, DivMode::Ceil);
    const CostBreakdown unit =
        evalMultiLevel(cfg, p, m, false, DivMode::Ceil, 1);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_DOUBLE_EQ(unit.volume_words[static_cast<std::size_t>(l)],
                         base.volume_words[static_cast<std::size_t>(l)]);
    EXPECT_EQ(unit.bottleneck, base.bottleneck);
    EXPECT_DOUBLE_EQ(unit.overhead_seconds, base.overhead_seconds);
    EXPECT_DOUBLE_EQ(unit.total_seconds, base.total_seconds);
}

TEST(LineModel, WiderLinesNeverReduceCacheTraffic)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg;
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm =
            Permutation::parse("nkhwcrs");
    cfg.level[LvlReg].perm = microkernelPermutation();
    cfg.level[LvlReg].tiles = {1, 16, 1, 1, 1, 1, 6};
    cfg.level[LvlL1].tiles = {1, 16, 4, 3, 3, 2, 7};
    cfg.level[LvlL2].tiles = {1, 32, 8, 3, 3, 7, 14};
    cfg.level[LvlL3].tiles = {1, 32, 16, 3, 3, 14, 14};

    double prev[NumMemLevels] = {};
    const double unit_overhead =
        evalMultiLevel(cfg, p, m, false, DivMode::Ceil).overhead_seconds;
    bool first = true;
    for (int lw : {1, 4, 16}) {
        const CostBreakdown cb =
            evalMultiLevel(cfg, p, m, false, DivMode::Ceil, lw);
        // The line size moves volumes only, never the call and
        // region overhead.
        EXPECT_DOUBLE_EQ(cb.overhead_seconds, unit_overhead)
            << "line size " << lw;
        if (!first) {
            for (int l = LvlL1; l <= LvlL3; ++l)
                EXPECT_GE(cb.volume_words[static_cast<std::size_t>(l)],
                          prev[l] - 1e-9)
                    << "line size " << lw << " level " << l;
        }
        for (int l = 0; l < NumMemLevels; ++l)
            prev[l] = cb.volume_words[static_cast<std::size_t>(l)];
        first = false;
    }
}

/**
 * Sec. 12 validation in miniature: with real (multi-word) lines in
 * the simulator, the line-aware model ranks configurations at least
 * as well as the unit-line model at the memory boundary.
 */
TEST(LineModel, TracksLineGranularSimulation)
{
    ConvProblem p;
    p.name = "linecorr";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 24;
    p.w = 24;
    const MachineSpec m = tinyTestMachine();
    constexpr int kLine = 8;

    Rng rng(21);
    std::vector<double> line_model, word_model, sim;
    for (int i = 0; i < 10; ++i) {
        ExecConfig cfg;
        cfg.perm[LvlReg] = microkernelPermutation();
        cfg.tiles[LvlReg] = {1, 8, 1, 1, 1, 1, 6};
        const IntTileVec extents = problemExtents(p);
        for (int l = LvlL1; l <= LvlL3; ++l)
            cfg.perm[static_cast<std::size_t>(l)] =
                Permutation::parse("kcrsnhw");
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            std::array<std::int64_t, 3> t;
            for (auto &x : t)
                x = rng.uniformInt(cfg.tiles[LvlReg][sd], extents[sd]);
            std::sort(t.begin(), t.end());
            cfg.tiles[LvlL1][sd] = t[0];
            cfg.tiles[LvlL2][sd] = t[1];
            cfg.tiles[LvlL3][sd] = t[2];
        }
        const CostBreakdown lm = evalMultiLevel(
            cfg.toModel(), p, m, false, DivMode::Ceil, kLine);
        const CostBreakdown wm =
            evalMultiLevel(cfg, p, m, false);
        const TraceStats ts = simulateConvTrace(p, cfg, m, kLine);
        line_model.push_back(lm.volume_words[LvlL3]);
        word_model.push_back(wm.volume_words[LvlL3]);
        sim.push_back(static_cast<double>(ts.level_words[2]));
    }
    const double rho_line = spearman(line_model, sim);
    const double rho_word = spearman(word_model, sim);
    EXPECT_GT(rho_line, 0.5);
    // The line model should not rank worse than the word model when
    // the machine actually moves multi-word lines.
    EXPECT_GE(rho_line, rho_word - 0.15);
}

} // namespace
} // namespace mopt
