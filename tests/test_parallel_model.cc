/**
 * @file
 * Tests of the Sec. 7 parallel machinery: split enumeration
 * invariants, best-split selection (register-tile chunk floor, even
 * chunking preference), and load balancing of integer configurations.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/parallel_model.hh"
#include "model/pruned_classes.hh"
#include "optimizer/load_balance.hh"
#include "optimizer/mopt_optimizer.hh"
#include "support/idle_fraction.hh"

namespace mopt {
namespace {

ConvProblem
prob()
{
    ConvProblem p;
    p.name = "par";
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
modelConfig(const ConvProblem &p)
{
    (void)p; // tiles below are sized for prob()
    MultiLevelConfig cfg;
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm =
            Permutation::parse("kcrsnhw");
    cfg.level[LvlReg].perm = Permutation::parse("nhwkcrs");
    cfg.level[LvlReg].tiles = {1, 16, 1, 1, 1, 1, 6};
    cfg.level[LvlL1].tiles = {1, 16, 8, 3, 3, 2, 12};
    cfg.level[LvlL2].tiles = {1, 32, 16, 3, 3, 7, 28};
    cfg.level[LvlL3].tiles = {1, 64, 32, 3, 3, 28, 28};
    return cfg;
}

class SplitCores : public ::testing::TestWithParam<int>
{
};

TEST_P(SplitCores, ExactFactorizationsWhenExtentsAllow)
{
    const int cores = GetParam();
    const IntTileVec l3{1, 64, 32, 3, 3, 28, 28};
    const auto splits = parallelSplits(cores, l3);
    ASSERT_FALSE(splits.empty());
    for (const auto &s : splits) {
        std::int64_t prod = 1;
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            prod *= s[sd];
            EXPECT_LE(s[sd], l3[sd]);
            if (isReductionDim(static_cast<Dim>(d))) {
                EXPECT_EQ(s[sd], 1);
            }
        }
        EXPECT_EQ(prod, cores);
    }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, SplitCores,
                         ::testing::Values(1, 2, 4, 6, 8, 16, 18));

TEST(ParallelSplits, FallsBackWhenNoExactFactorization)
{
    // Extents (1,1,...,1,2): at most 2-way parallelism available.
    const IntTileVec l3{1, 2, 1, 1, 1, 1, 1};
    const auto splits = parallelSplits(8, l3);
    ASSERT_FALSE(splits.empty());
    for (const auto &s : splits) {
        std::int64_t prod = 1;
        for (std::int64_t f : s)
            prod *= f;
        EXPECT_EQ(prod, 2); // largest achievable
    }
}

TEST(ParallelSplits, SingleCoreIsIdentity)
{
    const auto splits = parallelSplits(1, IntTileVec{1, 8, 4, 3, 3, 7, 7});
    ASSERT_EQ(splits.size(), 1u);
    for (std::int64_t f : splits.front())
        EXPECT_EQ(f, 1);
}

TEST(BestParallelSplit, ProductMatchesCores)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const IntTileVec best = bestParallelSplit(modelConfig(p), p, m);
    std::int64_t prod = 1;
    for (std::int64_t f : best)
        prod *= f;
    EXPECT_EQ(prod, m.cores);
}

TEST(BestParallelSplit, ChunksNeverSmallerThanRegisterTile)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const MultiLevelConfig cfg = modelConfig(p);
    const IntTileVec best = bestParallelSplit(cfg, p, m);
    const IntTileVec l3 = floorTiles(cfg.level[LvlL3].tiles);
    const IntTileVec reg = floorTiles(cfg.level[LvlReg].tiles);
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (best[sd] > 1) {
            EXPECT_GE(l3[sd] / best[sd], reg[sd]) << dimName(
                static_cast<Dim>(d));
        }
    }
}

TEST(BestParallelSplit, PrefersEvenChunking)
{
    // h extent 28 with 8 cores: splitting h 8-ways leaves 4 idle rows
    // per round; k (64) splits evenly. The imbalance-scaled score must
    // not choose a split whose ceil-chunk waste exceeds alternatives
    // with identical model cost.
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const IntTileVec best = bestParallelSplit(modelConfig(p), p, m);
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (best[sd] > 1) {
            const std::int64_t l3 =
                floorTiles(modelConfig(p).level[LvlL3].tiles)[sd];
            const std::int64_t up = (l3 + best[sd] - 1) / best[sd];
            // Waste below 15%.
            EXPECT_LE(static_cast<double>(up * best[sd]),
                      1.15 * static_cast<double>(l3));
        }
    }
}

TEST(LoadBalanceExtra, SnapsParallelDimsToMultiples)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = microkernelTiles(p, m);
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] =
            Permutation::parse("kcrsnhw");
        cfg.tiles[static_cast<std::size_t>(l)] = problemExtents(p);
    }
    cfg.tiles[LvlL1] = {1, 16, 8, 3, 3, 2, 14};
    cfg.tiles[LvlL2] = {1, 32, 32, 3, 3, 7, 28};

    loadBalance(cfg, p, m);
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (cfg.par[sd] > 1) {
            EXPECT_EQ(cfg.tiles[LvlL3][sd] % cfg.par[sd], 0);
            // Nesting survives: L1 <= L2 <= per-core chunk.
            EXPECT_LE(cfg.tiles[LvlL1][sd], cfg.tiles[LvlL2][sd]);
            EXPECT_LE(cfg.tiles[LvlL2][sd],
                      cfg.tiles[LvlL3][sd] / cfg.par[sd]);
        }
    }
}

TEST(LoadBalanceExtra, PrimeExtentStillBalances)
{
    ConvProblem p = prob();
    p.h = 29; // prime
    p.w = 29;
    const MachineSpec m = i7_9700k();
    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = microkernelTiles(p, m);
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] =
            Permutation::parse("kcrsnhw");
        cfg.tiles[static_cast<std::size_t>(l)] = problemExtents(p);
    }
    loadBalance(cfg, p, m);
    std::int64_t par = 1;
    for (std::int64_t f : cfg.par)
        par *= f;
    EXPECT_EQ(par, m.cores);
    EXPECT_LT(idleFraction(cfg, p), 0.35);
}

TEST(PerCoreTile, DividesByParallelFactors)
{
    MultiLevelConfig cfg = modelConfig(prob());
    cfg.par = {1, 8, 1, 1, 1, 1, 1};
    const TileVec pt = perCoreL3Tile(cfg);
    EXPECT_DOUBLE_EQ(pt[DimK], 8.0);
    EXPECT_DOUBLE_EQ(pt[DimW], 28.0);
}

} // namespace
} // namespace mopt
