/**
 * @file
 * Tests of the simulated testbed (cachesim/sim_machine): capacity
 * scaling, sequential/parallel traffic accounting, chunk sampling,
 * and agreement with the analytic model's bandwidth composition.
 */

#include <gtest/gtest.h>

#include "cachesim/sim_machine.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {
namespace {

ConvProblem
prob()
{
    ConvProblem p;
    p.name = "simt";
    p.n = 1;
    p.k = 16;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    return p;
}

ExecConfig
config(const ConvProblem &p)
{
    ExecConfig cfg;
    cfg.perm[LvlReg] = microkernelPermutation();
    cfg.tiles[LvlReg] = {1, 8, 1, 1, 1, 1, 6};
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] =
            Permutation::parse("kcrsnhw");
        cfg.tiles[static_cast<std::size_t>(l)] = problemExtents(p);
    }
    cfg.tiles[LvlL1] = {1, 8, 2, 3, 3, 2, 6};
    cfg.tiles[LvlL2] = {1, 16, 4, 3, 3, 6, 12};
    return cfg;
}

TEST(ScaledMachine, DividesCapacitiesKeepsBandwidths)
{
    const MachineSpec base = i7_9700k();
    const MachineSpec s = scaledMachine(base, 32, 32, 32);
    EXPECT_EQ(s.capacityWords(LvlL1), base.capacityWords(LvlL1) / 32);
    EXPECT_EQ(s.capacityWords(LvlL3), base.capacityWords(LvlL3) / 32);
    for (int l = 0; l < NumMemLevels; ++l) {
        EXPECT_DOUBLE_EQ(s.bandwidth(l, false), base.bandwidth(l, false));
        EXPECT_DOUBLE_EQ(s.bandwidth(l, true), base.bandwidth(l, true));
    }
    EXPECT_EQ(s.cores, base.cores);
    EXPECT_EQ(s.vec_lanes, base.vec_lanes);
}

TEST(ScaledMachine, FloorsAndKeepsOrderingForHugeDivisors)
{
    const MachineSpec s = scaledMachine(i7_9700k(), 1 << 20, 1 << 20, 1 << 20);
    EXPECT_NO_THROW(s.validate());
    EXPECT_LT(s.capacityWords(LvlL1), s.capacityWords(LvlL2));
    EXPECT_LT(s.capacityWords(LvlL2), s.capacityWords(LvlL3));
}

TEST(ScaledMachine, DivisorOneIsIdentityOnCapacities)
{
    const MachineSpec base = tinyTestMachine();
    const MachineSpec s = scaledMachine(base, 1, 1, 1);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_EQ(s.capacityWords(l), base.capacityWords(l));
}

TEST(SimulateTime, SequentialBreakdownIsConsistent)
{
    const ConvProblem p = prob();
    const MachineSpec m = tinyTestMachine();
    const SimTimeBreakdown t = simulateTime(p, config(p), m, false);

    EXPECT_EQ(t.active_cores, 1);
    EXPECT_GT(t.volume_words[LvlReg], 0.0);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_GE(t.seconds[static_cast<std::size_t>(l)], 0.0);
    EXPECT_GE(t.total_seconds, t.compute_seconds);
    EXPECT_GE(t.total_seconds,
              t.seconds[static_cast<std::size_t>(t.bottleneck)] - 1e-18);
    EXPECT_NEAR(t.gflops, p.flops() / t.total_seconds / 1e9, 1e-6);
    // Register references: per (c,r,s) step the microkernel loads kb
    // kernel words and wb input words for kb*wb MACs, so the stream
    // has at least macs * (1/kb + 1/wb) references plus the Out
    // spills — far more than macs/8 for the 8x6 register tile here.
    EXPECT_GE(t.volume_words[LvlReg],
              static_cast<double>(p.macs()) / 8.0);
}

TEST(SimulateTime, SequentialMatchesRawTrace)
{
    const ConvProblem p = prob();
    const MachineSpec m = tinyTestMachine();
    const ExecConfig cfg = config(p);
    const SimTimeBreakdown t = simulateTime(p, cfg, m, false);
    const TraceStats ts = simulateConvTrace(p, cfg, m);
    EXPECT_DOUBLE_EQ(t.volume_words[LvlL1],
                     static_cast<double>(ts.level_words[0]));
    EXPECT_DOUBLE_EQ(t.volume_words[LvlL3],
                     static_cast<double>(ts.level_words[2]));
}

TEST(SimulateTime, ParallelUsesChunksAndReducesTime)
{
    const ConvProblem p = prob();
    const MachineSpec m = tinyTestMachine(); // 2 cores
    ExecConfig cfg = config(p);
    cfg.par[DimK] = 2;

    const SimTimeBreakdown seq = simulateTime(p, config(p), m, false);
    const SimTimeBreakdown par = simulateTime(p, cfg, m, true);
    EXPECT_EQ(par.active_cores, 2);
    // Splitting k across 2 cores halves each core's compute.
    EXPECT_LT(par.compute_seconds, seq.compute_seconds);
    EXPECT_GT(par.volume_words[LvlL3], 0.0);
}

TEST(SimulateTime, SharedL3DeduplicatesAcrossCores)
{
    // Under an h-split both cores read the whole kernel; the shared
    // L3 fetches it from memory once, so DRAM traffic stays near the
    // sequential compulsory volume instead of doubling the kernel.
    ConvProblem p = prob();
    p.h = 12;
    const MachineSpec m = tinyTestMachine();
    ExecConfig cfg = config(p);
    cfg.par[DimH] = 2;

    const SimTimeBreakdown seq = simulateTime(p, config(p), m, false);
    const SimTimeBreakdown par = simulateTime(p, cfg, m, true);
    // Shared-tensor dedup: parallel memory traffic within 1.5x of
    // sequential (halo overlap only), far below the 2x a private-L3
    // model would charge for the replicated kernel.
    EXPECT_LT(par.volume_words[LvlL3],
              1.5 * seq.volume_words[LvlL3] + 16.0);
}

TEST(SimulateTime, AgreesWithAnalyticModelOnBottleneckScale)
{
    // The analytic model and the simulated testbed share bandwidth
    // accounting; on a config satisfying the model's assumptions the
    // predicted and simulated memory-boundary volumes agree within a
    // small factor.
    const ConvProblem p = prob();
    const MachineSpec m = tinyTestMachine();
    const ExecConfig cfg = config(p);
    const SimTimeBreakdown sim = simulateTime(p, cfg, m, false);
    const CostBreakdown model = evalMultiLevel(cfg, p, m, false);
    EXPECT_LT(sim.volume_words[LvlL3], 3.0 * model.volume_words[LvlL3]);
    EXPECT_GT(sim.volume_words[LvlL3], model.volume_words[LvlL3] / 3.0);
}

TEST(SimulateTime, LineGranularityIncreasesMemoryTraffic)
{
    const ConvProblem p = prob();
    const MachineSpec m = tinyTestMachine();
    const SimTimeOptions unit;
    SimTimeOptions lines;
    lines.line_words = 8;
    const SimTimeBreakdown a = simulateTime(p, config(p), m, false, unit);
    const SimTimeBreakdown b =
        simulateTime(p, config(p), m, false, lines);
    EXPECT_GE(b.volume_words[LvlL3], a.volume_words[LvlL3]);
}

} // namespace
} // namespace mopt
