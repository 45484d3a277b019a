/**
 * @file
 * Tests of the LRU cache simulator, the multi-level hierarchy, and
 * the agreement between simulated traffic and the analytical model
 * (the Sec. 9 validation, in miniature).
 */

#include <gtest/gtest.h>

#include "cachesim/conv_trace.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/lru_cache.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {
namespace {

TEST(LruCache, ColdMissesThenHits)
{
    LruCache c(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(i, false), AccessResult::Miss);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(i, false), AccessResult::Hit);
    EXPECT_EQ(c.misses(), 4);
    EXPECT_EQ(c.hits(), 4);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache c(2);
    c.access(1, false);
    c.access(2, false);
    c.access(1, false);            // 1 is now MRU
    c.access(3, false);            // evicts 2
    EXPECT_EQ(c.access(1, false), AccessResult::Hit);
    EXPECT_EQ(c.access(2, false), AccessResult::Miss);
}

TEST(LruCache, DirtyEvictionCountsWriteback)
{
    LruCache c(1);
    c.access(1, true);
    EXPECT_EQ(c.writebacks(), 0);
    c.access(2, false); // evicts dirty 1
    EXPECT_EQ(c.writebacks(), 1);
    c.access(3, false); // evicts clean 2
    EXPECT_EQ(c.writebacks(), 1);
}

TEST(LruCache, FlushWritesBackDirtyLines)
{
    LruCache c(8);
    c.access(1, true);
    c.access(2, false);
    c.access(3, true);
    c.flush();
    EXPECT_EQ(c.writebacks(), 2);
    EXPECT_EQ(c.residentLines(), 0);
}

TEST(LruCache, LineGranularity)
{
    LruCache c(16, 4); // 4 lines of 4 words
    EXPECT_EQ(c.capacityLines(), 4);
    EXPECT_EQ(c.access(0, false), AccessResult::Miss);
    EXPECT_EQ(c.access(3, false), AccessResult::Hit);  // same line
    EXPECT_EQ(c.access(4, false), AccessResult::Miss); // next line
}

TEST(LruCache, WorkingSetLargerThanCapacityThrashes)
{
    LruCache c(4);
    // Cyclic sweep over 5 addresses with LRU: every access misses.
    for (int rep = 0; rep < 3; ++rep)
        for (int i = 0; i < 5; ++i)
            c.access(i, false);
    EXPECT_EQ(c.hits(), 0);
    EXPECT_EQ(c.misses(), 15);
}

TEST(Hierarchy, CascadesMisses)
{
    Hierarchy h({2, 4, 8});
    h.access(0, false);
    // Cold: all three levels miss.
    EXPECT_EQ(h.traffic(0).misses, 1);
    EXPECT_EQ(h.traffic(1).misses, 1);
    EXPECT_EQ(h.traffic(2).misses, 1);
    h.access(0, false);
    // L1 hit: outer levels untouched.
    EXPECT_EQ(h.traffic(0).misses, 1);
    EXPECT_EQ(h.traffic(1).accesses, 1);
}

TEST(Hierarchy, L2CatchesL1CapacityMisses)
{
    Hierarchy h({2, 8, 32});
    for (int i = 0; i < 4; ++i)
        h.access(i, false);
    // Re-sweep: L1 (2 lines) thrashes, L2 (8 lines) holds all 4.
    for (int i = 0; i < 4; ++i)
        h.access(i, false);
    EXPECT_EQ(h.traffic(0).misses, 8);
    EXPECT_EQ(h.traffic(1).misses, 4);
    EXPECT_EQ(h.traffic(2).misses, 4);
}

/** Trace accounting identities on a small convolution. */
TEST(ConvTrace, AccessCountMatchesAnalyticCount)
{
    ConvProblem p;
    p.name = "trace";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 6;
    p.w = 6;
    const MachineSpec m = tinyTestMachine();

    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = microkernelTiles(p, m);
    cfg.tiles[LvlReg][DimK] = 16; // machine-independent in this test
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] =
            Permutation::parse("kcrsnhw");
        cfg.tiles[static_cast<std::size_t>(l)] = problemExtents(p);
    }
    cfg.tiles[LvlL1] = {1, 16, 4, 3, 3, 2, 6};

    const TraceStats stats = simulateConvTrace(p, cfg, m);
    // Per register tile (kb=16, wb=6): crs * (16 + 6) accesses + 2*96
    // for the Out block. Register tiles: h=6 x (w/6=1) x (k/16=1).
    const std::int64_t crs = 4 * 3 * 3;
    const std::int64_t tiles = 6;
    EXPECT_EQ(stats.reg_words, tiles * (crs * (16 + 6) + 2 * 96));
    // Memory traffic at least: all tensors once, Out twice... Out is
    // written once (write-allocated) so: In + Ker + 2*Out lower bound.
    EXPECT_GE(stats.level_words[2],
              p.kerSize() + p.outSize()); // loose lower bound
}

/**
 * Sec. 9 in miniature: analytical DV tracks simulated traffic across
 * configurations (rank correlation at the memory boundary).
 */
TEST(ConvTrace, ModelCorrelatesWithSimulatedTraffic)
{
    // Sized to overflow the tiny machine's 16K-word L3 (footprint
    // ~22K words): a problem that fits L3 entirely has constant
    // (compulsory) memory traffic for every tiling, which makes rank
    // correlation at that boundary meaningless.
    ConvProblem p;
    p.name = "corr";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 24;
    p.w = 24;
    const MachineSpec m = tinyTestMachine();

    Rng rng(77);
    std::vector<double> model_l3, sim_l3, model_l1, sim_l1;
    for (int i = 0; i < 12; ++i) {
        ExecConfig cfg;
        cfg.perm[LvlReg] = microkernelPermutation();
        cfg.tiles[LvlReg] = {1, 8, 1, 1, 1, 1, 6};
        for (int l = LvlL1; l <= LvlL3; ++l)
            cfg.perm[static_cast<std::size_t>(l)] =
                Permutation::parse("kcrsnhw");
        // Random nested tiles.
        const IntTileVec extents = problemExtents(p);
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
        const CostBreakdown cb = evalMultiLevel(cfg, p, m, false);
        const TraceStats ts = simulateConvTrace(p, cfg, m);
        model_l3.push_back(cb.volume_words[LvlL3]);
        sim_l3.push_back(static_cast<double>(ts.level_words[2]));
        model_l1.push_back(cb.volume_words[LvlL1]);
        sim_l1.push_back(static_cast<double>(ts.level_words[0]));
    }
    EXPECT_GT(spearman(model_l3, sim_l3), 0.5);
    EXPECT_GT(spearman(model_l1, sim_l1), 0.4);
}

/**
 * When the whole problem fits in a cache level, simulated traffic at
 * that boundary collapses to the compulsory footprint.
 */
TEST(ConvTrace, CompulsoryTrafficWhenProblemFits)
{
    ConvProblem p;
    p.name = "fits";
    p.n = 1;
    p.k = 8;
    p.c = 2;
    p.r = 3;
    p.s = 3;
    p.h = 6;
    p.w = 6;
    const MachineSpec m = tinyTestMachine(); // L3 = 16K words

    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = {1, 8, 1, 1, 1, 1, 6};
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] =
            Permutation::parse("kcrsnhw");
        cfg.tiles[static_cast<std::size_t>(l)] = problemExtents(p);
    }
    cfg.tiles[LvlL1] = {1, 8, 2, 3, 3, 2, 6};

    const TraceStats ts = simulateConvTrace(p, cfg, m);
    // Total distinct words: In + Ker + Out; plus Out writebacks.
    const std::int64_t compulsory =
        p.inSize() + p.kerSize() + p.outSize();
    EXPECT_EQ(ts.traffic[2].misses, compulsory);
    EXPECT_EQ(ts.traffic[2].writebacks, p.outSize());
}

} // namespace
} // namespace mopt
