/**
 * @file
 * End-to-end tests of the MOpt optimizer (Algorithm 1): feasibility
 * and nesting of its output, ranking, superiority over random
 * configurations under the model, integerization, and load balancing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>

#include "baselines/grid_sampler.hh"
#include "baselines/heuristic_lib.hh"
#include "common/rng.hh"
#include "conv/workloads.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/integerize.hh"
#include "optimizer/load_balance.hh"
#include "optimizer/mopt_optimizer.hh"
#include "frontend/registry.hh"
#include "service/network_optimizer.hh"
#include "support/idle_fraction.hh"

namespace mopt {
namespace {

ConvProblem
prob()
{
    ConvProblem p;
    p.name = "opt";
    p.n = 1;
    p.k = 64;
    p.c = 32;
    p.r = 3;
    p.s = 3;
    p.h = 28;
    p.w = 28;
    return p;
}

OptimizerOptions
fastOpts(bool parallel)
{
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = parallel;
    o.threads = 4;
    return o;
}

TEST(MicrokernelTiles, ShapeFollowsMachine)
{
    const MachineSpec m = i7_9700k();
    const IntTileVec t = microkernelTiles(prob(), m);
    EXPECT_EQ(t[DimK], 16); // 2 AVX2 registers
    EXPECT_EQ(t[DimW], 6);
    EXPECT_EQ(t[DimN], 1);
    EXPECT_EQ(t[DimC], 1);

    ConvProblem small = prob();
    small.k = 4;
    small.w = 3;
    const IntTileVec ts = microkernelTiles(small, m);
    EXPECT_EQ(ts[DimK], 4);
    EXPECT_EQ(ts[DimW], 3);
}

TEST(MicrokernelPermutation, ReductionInnermost)
{
    const Permutation p = microkernelPermutation();
    EXPECT_EQ(p.dimAtPosition(1), DimS);
    EXPECT_EQ(p.dimAtPosition(2), DimR);
    EXPECT_EQ(p.dimAtPosition(3), DimC);
    // Out is reused across the whole reduction.
    EXPECT_EQ(p.innermostPresentPosition(TenOut), 4);
}

TEST(Optimizer, ProducesFeasibleNestedCandidates)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const OptimizeOutput out = optimizeConv(p, m, fastOpts(true));
    ASSERT_FALSE(out.candidates.empty());
    const IntTileVec extents = problemExtents(p);

    for (const auto &cand : out.candidates) {
        EXPECT_DOUBLE_EQ(capacityViolation(cand.config, p, m), 0.0)
            << cand.config.str();
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            std::int64_t prev = cand.config.tiles[LvlReg][sd];
            for (int l = LvlL1; l <= LvlL3; ++l) {
                const std::int64_t t =
                    cand.config.tiles[static_cast<std::size_t>(l)][sd];
                EXPECT_GE(t, prev);
                EXPECT_LE(t, extents[sd]);
                prev = t;
            }
        }
        // Parallel split only on non-reduction dims, within cores.
        EXPECT_EQ(cand.config.par[DimC], 1);
        EXPECT_EQ(cand.config.par[DimR], 1);
        EXPECT_EQ(cand.config.par[DimS], 1);
        std::int64_t par = 1;
        for (std::int64_t f : cand.config.par)
            par *= f;
        EXPECT_LE(par, m.cores);
    }
}

TEST(Optimizer, CandidatesSortedByPredictedTime)
{
    const OptimizeOutput out =
        optimizeConv(prob(), i7_9700k(), fastOpts(true));
    for (std::size_t i = 1; i < out.candidates.size(); ++i)
        EXPECT_LE(out.candidates[i - 1].predicted.total_seconds,
                  out.candidates[i].predicted.total_seconds);
    EXPECT_GT(out.seconds, 0.0);
    EXPECT_GT(out.solver_evals, 0);
}

TEST(Optimizer, BeatsRandomConfigurationsUnderModel)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    const OptimizeOutput out = optimizeConv(p, m, fastOpts(false));
    ASSERT_FALSE(out.candidates.empty());
    const double best =
        out.candidates.front().predicted.total_seconds;

    Rng rng(31);
    SamplerOptions sopts;
    sopts.count = 40;
    double best_random = std::numeric_limits<double>::infinity();
    for (const auto &cfg : sampleConfigs(p, m, rng, sopts))
        best_random = std::min(
            best_random,
            evalMultiLevel(cfg, p, m, false).total_seconds);

    // The model-driven optimum should be at least as good as the best
    // of 40 random feasible samples (slack for solver tolerance).
    EXPECT_LE(best, best_random * 1.15);
}

TEST(Optimizer, SequentialModeDisablesParallelSplit)
{
    const OptimizeOutput out =
        optimizeConv(prob(), i7_9700k(), fastOpts(false));
    for (const auto &cand : out.candidates)
        for (std::int64_t f : cand.config.par)
            EXPECT_EQ(f, 1);
}

TEST(Optimizer, TopKLimitsCandidates)
{
    OptimizerOptions o = fastOpts(false);
    o.top_k = 2;
    const OptimizeOutput out = optimizeConv(prob(), i7_9700k(), o);
    EXPECT_LE(out.candidates.size(), 2u);
}

// The search-time claim's deterministic guard: the model evaluations
// a Standard-effort search spends on the first and last Yolo stages
// (Y0, Y23; the paper's Sec. 12 layers). Unlike wall time, the count
// depends on neither the machine nor the thread count. A change that
// moves these counts lists the new values in CHANGES.md.
TEST(Optimizer, StandardSearchEvalCountsArePinned)
{
    const MachineSpec m = i7_9700k();
    EXPECT_EQ(optimizeConv(workloadByName("Y0"), m, {}).solver_evals,
              145558);
    EXPECT_EQ(optimizeConv(workloadByName("Y23"), m, {}).solver_evals,
              184492);
}

TEST(Optimizer, StandardSearchPlanBytesArePinned)
{
    // Each top-5 candidate's configuration and the exact bits of its
    // predicted time, for Y0 and Y23 at two seeds. A change that is
    // meant to make the search cheaper without changing its result
    // must leave every row as it is.
    struct Pin
    {
        const char *config;
        std::uint64_t seconds_bits;
    };
    static const Pin kPins[] = {
        // Y0, seed 1
        {"L3: perm=ncwrshk tiles=[n=1 k=32 c=3 r=3 s=3 h=136 w=544]\n"
         "L2: perm=ncwrshk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "L1: perm=ncwrshk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7c637dc548bdbfULL},
        {"L3: perm=nkhwcrs tiles=[n=1 k=32 c=3 r=3 s=3 h=136 w=544]\n"
         "L2: perm=nkhwcrs tiles=[n=1 k=16 c=3 r=1 s=3 h=1 w=6]\n"
         "L1: perm=nkhwcrs tiles=[n=1 k=16 c=3 r=1 s=3 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7c64937964280aULL},
        {"L3: perm=nkhwcsr tiles=[n=1 k=32 c=3 r=3 s=3 h=136 w=544]\n"
         "L2: perm=nkhwcsr tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "L1: perm=nkhwcsr tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7c64937964280aULL},
        {"L3: perm=nchwsrk tiles=[n=1 k=32 c=3 r=3 s=3 h=136 w=544]\n"
         "L2: perm=nchwsrk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "L1: perm=nchwsrk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7c64937964280aULL},
        {"L3: perm=nchwrsk tiles=[n=1 k=32 c=3 r=3 s=3 h=544 w=109]\n"
         "L2: perm=nchwrsk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "L1: perm=nchwrsk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7d1419b4609806ULL},
        // Y0, seed 7
        {"L3: perm=kcrsnwh tiles=[n=1 k=32 c=3 r=3 s=3 h=136 w=544]\n"
         "L2: perm=kcrsnwh tiles=[n=1 k=32 c=3 r=3 s=1 h=68 w=6]\n"
         "L1: perm=kcrsnwh tiles=[n=1 k=16 c=3 r=3 s=1 h=16 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=2 w=4]\n",
         0x3f7c9ad258c375e2ULL},
        {"L3: perm=nchrswk tiles=[n=1 k=32 c=3 r=3 s=3 h=272 w=182]\n"
         "L2: perm=nchrswk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "L1: perm=nchrswk tiles=[n=1 k=16 c=3 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7cabbc0349b189ULL},
        {"L3: perm=nkhwcrs tiles=[n=1 k=32 c=3 r=3 s=3 h=272 w=182]\n"
         "L2: perm=nkhwcrs tiles=[n=1 k=16 c=3 r=1 s=3 h=1 w=6]\n"
         "L1: perm=nkhwcrs tiles=[n=1 k=16 c=3 r=1 s=3 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f7cacd2bbce3c1aULL},
        {"L3: perm=nkhwcsr tiles=[n=1 k=32 c=3 r=3 s=3 h=272 w=272]\n"
         "L2: perm=nkhwcsr tiles=[n=1 k=16 c=2 r=3 s=1 h=1 w=6]\n"
         "L1: perm=nkhwcsr tiles=[n=1 k=16 c=2 r=3 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=4 w=2]\n",
         0x3f884c46180e33d8ULL},
        {"L3: perm=kcrsnhw tiles=[n=1 k=32 c=3 r=3 s=3 h=272 w=182]\n"
         "L2: perm=kcrsnhw tiles=[n=1 k=32 c=3 r=2 s=1 h=1 w=6]\n"
         "L1: perm=kcrsnhw tiles=[n=1 k=16 c=3 r=2 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=1 c=1 r=1 s=1 h=8 w=1]\n",
         0x3f8853fc891fe412ULL},
        // Y23, seed 1
        {"L3: perm=ncwrshk tiles=[n=1 k=2176 c=1024 r=1 s=1 h=17 w=12]\n"
         "L2: perm=ncwrshk tiles=[n=1 k=16 c=1024 r=1 s=1 h=2 w=6]\n"
         "L1: perm=ncwrshk tiles=[n=1 k=16 c=328 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98b2e316bb2d68ULL},
        {"L3: perm=nchrswk tiles=[n=1 k=1792 c=1024 r=1 s=1 h=17 w=17]\n"
         "L2: perm=nchrswk tiles=[n=1 k=80 c=491 r=1 s=1 h=2 w=12]\n"
         "L1: perm=nchrswk tiles=[n=1 k=16 c=256 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f9a2880a7b032b8ULL},
        {"L3: perm=nchwrsk tiles=[n=1 k=1792 c=1024 r=1 s=1 h=17 w=17]\n"
         "L2: perm=nchwrsk tiles=[n=1 k=80 c=491 r=1 s=1 h=2 w=12]\n"
         "L1: perm=nchwrsk tiles=[n=1 k=16 c=256 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f9a2880a7b032b8ULL},
        {"L3: perm=nchwsrk tiles=[n=1 k=1792 c=1024 r=1 s=1 h=17 w=17]\n"
         "L2: perm=nchwsrk tiles=[n=1 k=80 c=491 r=1 s=1 h=2 w=12]\n"
         "L1: perm=nchwsrk tiles=[n=1 k=16 c=256 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f9a2880a7b032b8ULL},
        {"L3: perm=kcrsnhw tiles=[n=1 k=2560 c=784 r=1 s=1 h=17 w=17]\n"
         "L2: perm=kcrsnhw tiles=[n=1 k=32 c=477 r=1 s=1 h=2 w=6]\n"
         "L1: perm=kcrsnhw tiles=[n=1 k=16 c=192 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f9d3117faf37bb8ULL},
        // Y23, seed 7
        {"L3: perm=nchrswk tiles=[n=1 k=2176 c=1024 r=1 s=1 h=17 w=12]\n"
         "L2: perm=nchrswk tiles=[n=1 k=16 c=1024 r=1 s=1 h=2 w=6]\n"
         "L1: perm=nchrswk tiles=[n=1 k=16 c=328 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98b2e316bb2d68ULL},
        {"L3: perm=ncwrshk tiles=[n=1 k=2176 c=1024 r=1 s=1 h=17 w=12]\n"
         "L2: perm=ncwrshk tiles=[n=1 k=16 c=904 r=1 s=1 h=3 w=6]\n"
         "L1: perm=ncwrshk tiles=[n=1 k=16 c=328 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98b2e316bb2d68ULL},
        {"L3: perm=nchwrsk tiles=[n=1 k=2176 c=1024 r=1 s=1 h=17 w=12]\n"
         "L2: perm=nchwrsk tiles=[n=1 k=16 c=1024 r=1 s=1 h=2 w=6]\n"
         "L1: perm=nchwrsk tiles=[n=1 k=16 c=328 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98b2e316bb2d68ULL},
        {"L3: perm=nchwsrk tiles=[n=1 k=2176 c=1024 r=1 s=1 h=17 w=12]\n"
         "L2: perm=nchwsrk tiles=[n=1 k=16 c=1024 r=1 s=1 h=2 w=6]\n"
         "L1: perm=nchwsrk tiles=[n=1 k=16 c=328 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98b2e316bb2d68ULL},
        {"L3: perm=kcrsnhw tiles=[n=1 k=2560 c=1024 r=1 s=1 h=17 w=6]\n"
         "L2: perm=kcrsnhw tiles=[n=1 k=48 c=1024 r=1 s=1 h=1 w=6]\n"
         "L1: perm=kcrsnhw tiles=[n=1 k=16 c=284 r=1 s=1 h=1 w=6]\n"
         "Reg: perm=nhwkcrs tiles=[n=1 k=16 c=1 r=1 s=1 h=1 w=6]\n"
         "par=[n=1 k=8 c=1 r=1 s=1 h=1 w=1]\n",
         0x3f98bd5f717f9f1dULL},
    };
    const MachineSpec m = i7_9700k();
    std::size_t at = 0;
    for (const char *name : {"Y0", "Y23"})
        for (std::uint64_t seed : {1, 7}) {
            OptimizerOptions o;
            o.seed = seed;
            const OptimizeOutput out =
                optimizeConv(workloadByName(name), m, o);
            ASSERT_EQ(out.candidates.size(), 5u) << name;
            for (std::size_t i = 0; i < 5; ++i, ++at) {
                const Candidate &c = out.candidates[i];
                EXPECT_EQ(c.config.str(), kPins[at].config)
                    << name << " seed " << seed << " candidate " << i;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              c.predicted.total_seconds),
                          kPins[at].seconds_bits)
                    << name << " seed " << seed << " candidate " << i;
            }
        }
}

TEST(Integerize, OutputRespectsCapacityAndBlocks)
{
    const ConvProblem p = prob();
    const MachineSpec m = i7_9700k();
    MultiLevelConfig cfg;
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm =
            Permutation::parse("kcrsnhw");
    cfg.level[LvlReg].perm = microkernelPermutation();
    cfg.level[LvlReg].tiles = toTileVec(microkernelTiles(p, m));
    cfg.level[LvlL1].tiles = {1.0, 17.3, 9.8, 3.0, 3.0, 2.4, 13.9};
    cfg.level[LvlL2].tiles = {1.0, 33.9, 17.2, 3.0, 3.0, 7.7, 28.0};
    cfg.level[LvlL3].tiles = {1.0, 64.0, 32.0, 3.0, 3.0, 14.2, 28.0};

    const ExecConfig e = integerize(cfg, p, m, false);
    EXPECT_DOUBLE_EQ(capacityViolation(e, p, m), 0.0);
    for (int l = LvlL1; l <= LvlL3; ++l)
        EXPECT_EQ(e.tiles[static_cast<std::size_t>(l)][DimK] % 16, 0)
            << memLevelName(l);
}

TEST(LoadBalance, EvenSplitHasNoIdling)
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
    std::int64_t par = 1;
    for (std::int64_t f : cfg.par)
        par *= f;
    EXPECT_EQ(par, m.cores);
    // Parallelized extents are multiples of their split factors.
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (cfg.par[sd] > 1) {
            EXPECT_EQ(cfg.tiles[LvlL3][sd] % cfg.par[sd], 0);
        }
    }
    EXPECT_NEAR(idleFraction(cfg, p), 0.0, 0.3);
}

TEST(Optimizer, HandlesOnebyOneKernels)
{
    ConvProblem p = workloadByName("Y5").downscaled(34, 64);
    const OptimizeOutput out =
        optimizeConv(p, i7_9700k(), fastOpts(true));
    ASSERT_FALSE(out.candidates.empty());
    EXPECT_DOUBLE_EQ(
        capacityViolation(out.candidates.front().config, p, i7_9700k()),
        0.0);
}

TEST(Optimizer, HandlesStrideTwo)
{
    ConvProblem p = workloadByName("M2").downscaled(28, 32);
    const OptimizeOutput out =
        optimizeConv(p, i7_9700k(), fastOpts(true));
    ASSERT_FALSE(out.candidates.empty());
    EXPECT_GT(out.candidates.front().predicted.gflops, 0.0);
}

/**
 * Standard-effort parallel plans of a registered network at seed 1 on
 * the i7 model, as the benchmark plans them; solved once per network.
 */
const NetworkPlan &
networkPlan(const std::string &name)
{
    static std::map<std::string, NetworkPlan> plans;
    auto it = plans.find(name);
    if (it == plans.end()) {
        OptimizerOptions o;
        o.effort = OptimizerOptions::Effort::Standard;
        o.parallel = true;
        o.seed = 1;
        o.threads = 4;
        SolutionCache cache;
        const NetworkPlan plan = NetworkOptimizer(i7_9700k(), o, &cache)
                                     .optimize(networkDefByName(name).lower());
        it = plans.emplace(name, plan).first;
    }
    return it->second;
}

TEST(Optimizer, Resnet18PlansMakeAtMostTwiceTheLibraryCalls)
{
    // A plan that splits the reduction at L1 makes many more
    // microkernel calls than the library blocking; the overhead term
    // must keep every chosen plan within 2x of it.
    const MachineSpec m = i7_9700k();
    for (const LayerPlan &lp : networkPlan("resnet18").layers) {
        const ConvProblem &p = lp.problem;
        const double mine = overheadCounts(lp.best.config.toModel(), p,
                                           true, DivMode::Ceil)
                                .calls;
        const double lib =
            overheadCounts(heuristicConfig(p, m, true).toModel(), p, true,
                           DivMode::Ceil)
                .calls;
        EXPECT_LE(mine, 2.0 * lib) << p.name;
    }
}

TEST(Optimizer, PlannedKTilesStayOnTheRegisterBlockGrid)
{
    // Every k tile and every per-core k share is a whole number of
    // register k blocks (or the extent), so no register tile falls
    // back to the scalar path inside a full tile.
    for (const char *net : {"resnet18", "vgg16", "yolov3"}) {
        for (const LayerPlan &lp : networkPlan(net).layers) {
            const ExecConfig &cfg = lp.best.config;
            const std::int64_t ext = problemExtents(lp.problem)[DimK];
            const std::int64_t block = cfg.tiles[LvlReg][DimK];
            auto onGrid = [&](std::int64_t t) {
                return t % block == 0 || t == ext;
            };
            for (int l = LvlL1; l <= LvlL3; ++l)
                EXPECT_TRUE(onGrid(cfg.tiles[static_cast<std::size_t>(l)][DimK]))
                    << net << " " << lp.problem.name << " "
                    << memLevelName(l) << " k="
                    << cfg.tiles[static_cast<std::size_t>(l)][DimK];
            const std::int64_t f = cfg.par[DimK];
            if (f > 1) {
                const std::int64_t t3 = cfg.tiles[LvlL3][DimK];
                EXPECT_EQ(t3 % f, 0) << net << " " << lp.problem.name;
                EXPECT_TRUE(onGrid(t3 / f))
                    << net << " " << lp.problem.name << " share=" << t3 / f;
            }
        }
    }
}

} // namespace
} // namespace mopt
