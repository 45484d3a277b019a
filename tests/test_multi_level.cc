/**
 * @file
 * Tests of the multi-level cost composition (Sec. 5), the parallel
 * adjustments (Sec. 7), capacity checking, and parallel-split
 * enumeration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "exec/loop_nest.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/parallel_model.hh"
#include "model/pruned_classes.hh"

namespace mopt {
namespace {

ConvProblem
prob()
{
    ConvProblem p;
    p.name = "ml";
    p.n = 1;
    p.k = 64;
    p.c = 32;
    p.r = 3;
    p.s = 3;
    p.h = 28;
    p.w = 28;
    return p;
}

MultiLevelConfig
config(const ConvProblem &p)
{
    MultiLevelConfig cfg;
    const Permutation perm = Permutation::parse("kcrsnhw");
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm = perm;
    cfg.level[LvlReg].perm = Permutation::parse("nhwkcrs");
    cfg.level[LvlReg].tiles = {1, 16, 1, 1, 1, 1, 6};
    cfg.level[LvlL1].tiles = {1, 16, 8, 3, 3, 2, 12};
    cfg.level[LvlL2].tiles = {1, 32, 16, 3, 3, 7, 28};
    cfg.level[LvlL3].tiles = {1, 64, 32, 3, 3, 14, 28};
    (void)p;
    return cfg;
}

TEST(MultiLevel, BreakdownIsConsistent)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const CostBreakdown cb =
        evalMultiLevel(config(p), p, m, false, DivMode::Continuous);

    for (int l = 0; l < NumMemLevels; ++l) {
        EXPECT_GT(cb.volume_words[static_cast<std::size_t>(l)], 0.0);
        EXPECT_GT(cb.seconds[static_cast<std::size_t>(l)], 0.0);
    }
    EXPECT_GE(cb.total_seconds, cb.compute_seconds);
    EXPECT_GE(cb.total_seconds,
              cb.seconds[static_cast<std::size_t>(cb.bottleneck)] -
                  1e-15);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_LE(cb.seconds[static_cast<std::size_t>(l)],
                  cb.seconds[static_cast<std::size_t>(cb.bottleneck)] +
                      1e-15);
    EXPECT_NEAR(cb.gflops, p.flops() / cb.total_seconds / 1e9, 1e-6);
}

TEST(Dims, FloorTilesRoundTripsLogExtents)
{
    // exp(log E) lands below E for hundreds of E in 1..1024 (7, 14,
    // 28, 64, ... among them); flooring must not turn those into E-1.
    for (std::int64_t e = 1; e <= 1024; ++e) {
        const double t = std::exp(std::log(static_cast<double>(e)));
        EXPECT_EQ(floorTiles({t, t, t, t, t, t, t})[DimC], e) << e;
    }
    const IntTileVec v =
        floorTiles({0.5, 7.5, 6.999, 63.9999999999, 1.0, 2.0, 3.2});
    EXPECT_EQ(v, (IntTileVec{1, 7, 6, 64, 1, 2, 3}));
}

TEST(Dims, TilesToStringKeepsStreamFormatting)
{
    // Tiles print as an ostream prints an integer.
    EXPECT_EQ(tilesToString(IntTileVec{1, -2, 1234567890123, 0, 3, 9, 7}),
              "[n=1 k=-2 c=1234567890123 r=0 s=3 h=9 w=7]");
}

TEST(MultiLevel, OverheadAddsCallAndRegionCosts)
{
    const ConvProblem p = prob();
    MachineSpec m = i7_9700k();
    m.t_call = 2e-7;
    m.t_sync = 5e-6;
    MultiLevelConfig cfg = config(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 2};
    for (bool parallel : {false, true}) {
        const CostBreakdown cb =
            evalMultiLevel(cfg, p, m, parallel, DivMode::Continuous);
        const OverheadCounts oc =
            overheadCounts(cfg, p, parallel, DivMode::Continuous);
        // 28 x (64/16) x (28/6) register tiles, (32/8) c tiles at L1.
        EXPECT_NEAR(oc.calls, 28.0 * 4.0 * 28.0 / 6.0 * 4.0, 1e-9);
        // L3 tiles: 28/14 along h.
        EXPECT_NEAR(oc.regions, parallel ? 2.0 : 0.0, 1e-12);
        const double active = parallel ? 8.0 : 1.0;
        EXPECT_NEAR(cb.overhead_seconds,
                    m.t_call * oc.calls / active + m.t_sync * oc.regions,
                    1e-18);
        EXPECT_DOUBLE_EQ(
            cb.total_seconds,
            std::max(cb.compute_seconds,
                     cb.seconds[static_cast<std::size_t>(cb.bottleneck)]) +
                cb.overhead_seconds);
    }
}

/**
 * Count what runConv does for @p cfg: one parallel region per L3 tile
 * (when parallel) and one microkernel call per register tile of every
 * L1 tile inside every per-core chunk.
 */
OverheadCounts
walkedCounts(const ExecConfig &cfg, const ConvProblem &p, bool parallel)
{
    OverheadCounts out;
    for (std::int64_t g = 0; g < p.groups; ++g)
        walkTilesAtLevel(cfg, LvlL3, fullRegion(p), [&](const TileBounds &l3) {
            std::vector<TileBounds> chunks{l3};
            if (parallel) {
                out.regions += 1.0;
                chunks = splitRegion(l3, cfg.par);
            }
            for (const TileBounds &chunk : chunks)
                walkTilesAtLevel(cfg, LvlL2, chunk, [&](const TileBounds &l2) {
                    walkTilesAtLevel(cfg, LvlL1, l2,
                                     [&](const TileBounds &l1) {
                                         walkRegisterTiles(
                                             cfg, l1,
                                             [&](auto...) {
                                                 out.calls += 1.0;
                                             });
                                     });
                });
        });
    return out;
}

TEST(MultiLevel, CeilOverheadCountsMatchTheExecutorWalk)
{
    Rng rng(31);
    for (int rep = 0; rep < 40; ++rep) {
        ConvProblem p;
        p.name = "walk";
        p.n = rng.uniformInt(1, 2);
        p.groups = rep % 4 == 0 ? 2 : 1;
        p.k = p.groups * rng.uniformInt(1, 40);
        p.c = p.groups * rng.uniformInt(1, 12);
        p.r = p.s = rep % 3 == 0 ? 1 : 3;
        p.h = rng.uniformInt(1, 13);
        p.w = rng.uniformInt(1, 15);
        const IntTileVec e = problemExtents(p);

        ExecConfig cfg;
        cfg.perm[LvlReg] = Permutation::parse("nhwkcrs");
        cfg.tiles[LvlReg] = {1, std::min<std::int64_t>(16, e[DimK]), 1, 1,
                             1, 1, std::min<std::int64_t>(6, e[DimW])};
        IntTileVec inner = cfg.tiles[LvlReg];
        for (int l = LvlL1; l <= LvlL3; ++l) {
            const auto sl = static_cast<std::size_t>(l);
            cfg.perm[sl] = Permutation::parse(rep % 2 ? "kcrsnhw" : "nhwcrsk");
            for (int d = 0; d < NumDims; ++d) {
                const auto sd = static_cast<std::size_t>(d);
                cfg.tiles[sl][sd] = rng.uniformInt(inner[sd], e[sd]);
            }
            inner = cfg.tiles[sl];
        }
        cfg.par = {1, 1, 1, 1, 1, 1, 1};
        cfg.par[DimK] = rng.uniformInt(1, 3);
        cfg.par[DimH] = rng.uniformInt(1, 3);

        for (bool parallel : {false, true}) {
            const OverheadCounts want = walkedCounts(cfg, p, parallel);
            const OverheadCounts got =
                overheadCounts(cfg.toModel(), p, parallel, DivMode::Ceil);
            EXPECT_DOUBLE_EQ(got.calls, want.calls) << "rep " << rep;
            EXPECT_DOUBLE_EQ(got.regions, want.regions) << "rep " << rep;
        }
    }
}

TEST(MultiLevel, VolumesShrinkAsCacheTilesGrow)
{
    // Larger L2 tiles -> fewer L3-to-L2 transfers of L3-resident data.
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig small = config(p);
    MultiLevelConfig big = config(p);
    big.level[LvlL2].tiles[DimK] = 64;
    const auto cb_small =
        evalMultiLevel(small, p, m, false, DivMode::Continuous);
    const auto cb_big =
        evalMultiLevel(big, p, m, false, DivMode::Continuous);
    // Growing the enclosing L2 tile cannot increase L1-level traffic
    // per word and reduces the k-replication of In at L2.
    EXPECT_LE(cb_big.volume_words[LvlL2],
              cb_small.volume_words[LvlL2] + 1e-6);
}

TEST(MultiLevel, OuterVolumeBoundedByInner)
{
    // Traffic at an outer boundary never exceeds the inner boundary's
    // (every word entering L1 came through L2, etc.) for nested tiles.
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const auto cb =
        evalMultiLevel(config(p), p, m, false, DivMode::Continuous);
    EXPECT_LE(cb.volume_words[LvlL2], cb.volume_words[LvlL1] * 1.01);
    EXPECT_LE(cb.volume_words[LvlL3], cb.volume_words[LvlL2] * 1.01);
}

TEST(MultiLevel, ParallelReducesPredictedTime)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg = config(p);
    const auto seq = evalMultiLevel(cfg, p, m, false, DivMode::Ceil);
    cfg.par = {1, 8, 1, 1, 1, 1, 1};
    const auto par = evalMultiLevel(cfg, p, m, true, DivMode::Ceil);
    EXPECT_LT(par.total_seconds, seq.total_seconds);
    EXPECT_LT(par.compute_seconds, seq.compute_seconds);
}

TEST(MultiLevel, PerCoreL3Tile)
{
    MultiLevelConfig cfg = config(prob());
    cfg.par = {1, 4, 1, 1, 1, 2, 1};
    const TileVec pt = perCoreL3Tile(cfg);
    EXPECT_DOUBLE_EQ(pt[DimK], 16.0);
    EXPECT_DOUBLE_EQ(pt[DimH], 7.0);
    EXPECT_DOUBLE_EQ(pt[DimW], 28.0);
}

TEST(MultiLevel, CapacityViolationDetectsOversizedTiles)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg = config(p);
    EXPECT_DOUBLE_EQ(capacityViolation(cfg, p, m), 0.0);
    cfg.level[LvlL1].tiles = {1, 64, 32, 3, 3, 28, 28}; // way over 8K words
    EXPECT_GT(capacityViolation(cfg, p, m), 0.0);
}

TEST(MultiLevel, ClampNestingRepairsOrder)
{
    const ConvProblem p = prob();
    MultiLevelConfig cfg = config(p);
    cfg.level[LvlL1].tiles[DimK] = 128.0; // exceeds L2 tile and extent
    cfg.clampNesting(problemExtents(p));
    EXPECT_LE(cfg.level[LvlL1].tiles[DimK], cfg.level[LvlL2].tiles[DimK]);
    EXPECT_LE(cfg.level[LvlL3].tiles[DimK], 64.0);
}

TEST(ParallelModel, ExactSplitsForEightCores)
{
    const IntTileVec l3{1, 64, 32, 3, 3, 14, 28};
    const auto splits = parallelSplits(8, l3);
    ASSERT_FALSE(splits.empty());
    for (const auto &s : splits) {
        std::int64_t prod = 1;
        for (std::int64_t f : s)
            prod *= f;
        EXPECT_EQ(prod, 8);
        EXPECT_EQ(s[DimC], 1);
        EXPECT_EQ(s[DimR], 1);
        EXPECT_EQ(s[DimS], 1);
        EXPECT_LE(s[DimK], 64);
        EXPECT_LE(s[DimH], 14);
    }
    // (1,8,1,1,1,1,1) must be present: k split by 8.
    bool found_k8 = false;
    for (const auto &s : splits)
        found_k8 |= s[DimK] == 8 && s[DimH] == 1 && s[DimW] == 1 &&
                    s[DimN] == 1;
    EXPECT_TRUE(found_k8);
}

TEST(ParallelModel, FallbackWhenNoExactFactorization)
{
    // Extents too small for 18 cores in any exact factorization.
    const IntTileVec l3{1, 2, 1, 1, 1, 2, 2};
    const auto splits = parallelSplits(18, l3);
    ASSERT_FALSE(splits.empty());
    std::int64_t best = 0;
    for (const auto &s : splits) {
        std::int64_t prod = 1;
        for (std::int64_t f : s)
            prod *= f;
        best = std::max(best, prod);
    }
    EXPECT_GT(best, 1);
    EXPECT_LT(best, 18);
}

TEST(ParallelModel, BestSplitBeatsWorstSplit)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg = config(p);
    const IntTileVec best = bestParallelSplit(cfg, p, m);

    double best_time, worst_time = 0.0;
    cfg.par = best;
    best_time = evalMultiLevel(cfg, p, m, true, DivMode::Ceil).total_seconds;
    for (const auto &s :
         parallelSplits(m.cores, floorTiles(cfg.level[LvlL3].tiles))) {
        cfg.par = s;
        worst_time = std::max(
            worst_time,
            evalMultiLevel(cfg, p, m, true, DivMode::Ceil).total_seconds);
    }
    EXPECT_LE(best_time, worst_time + 1e-12);
}

TEST(ExecConfigRoundTrip, ModelConversionPreservesValues)
{
    const ConvProblem p = prob();
    MultiLevelConfig cfg = config(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 2};
    const ExecConfig e = ExecConfig::fromModel(cfg);
    const MultiLevelConfig back = e.toModel();
    for (int l = 0; l < NumMemLevels; ++l)
        for (int d = 0; d < NumDims; ++d)
            EXPECT_DOUBLE_EQ(
                back.level[static_cast<std::size_t>(l)]
                    .tiles[static_cast<std::size_t>(d)],
                cfg.level[static_cast<std::size_t>(l)]
                    .tiles[static_cast<std::size_t>(d)]);
    EXPECT_EQ(back.par, cfg.par);
    EXPECT_EQ(back.totalParallelism(), 8);
}

} // namespace
} // namespace mopt
