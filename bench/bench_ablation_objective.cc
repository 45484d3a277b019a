/**
 * @file
 * Ablation study of MOpt's design choices (DESIGN.md experiment
 * index): (a) multi-level vs single-level tiling, (b) load-balanced
 * vs naive parallel split, (c) line-aware vs unit-line cost model,
 * and — at full scale — (d) uniform vs independent permutation
 * classes across levels (the 8^3 sweep). Scores come from the
 * simulated testbed so the comparison is deterministic.
 */

#include <iostream>

#include "bench_common.hh"
#include "bench_comparison.hh"
#include "cachesim/sim_machine.hh"
#include "common/table.hh"
#include "conv/workloads.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"

int
main()
{
    using namespace mopt;
    benchBanner("Ablations: multi-level tiling, load balance, "
                "line model, permutation sweep",
                "Sec. 5 (multi-level min-max), Sec. 7/8 (parallel "
                "split), Sec. 12 (line model), Sec. 4 (classes)");

    // Same twin geometry as the Figs. 7/8 comparison: operators a few
    // times larger than the scaled L3 so tiling quality matters.
    const MachineSpec m = scaledMachine(i7_9700k(), 32, 32, 512);
    const std::int64_t max_hw = scaled<std::int64_t>(16, 28);
    const std::int64_t max_ch = scaled<std::int64_t>(64, 128);

    // "model" is evalMultiLevel without its t_call/t_sync overhead term,
    // which the simulator does not have, so the two columns compare
    // like quantities; the overhead gets its own column.
    Table t({"Layer", "variant", "model (ms)", "overhead (ms)",
             "simulated (ms)", "GFLOPS"});

    for (const char *name : {"Y4", "R2", "M5"}) {
        const ConvProblem p = simTwin(workloadByName(name), scaled(4, 2),
                                      scaled(4, 2), max_hw, max_ch);
        OptimizerOptions oo;
        oo.effort = OptimizerOptions::Effort::Fast;
        oo.parallel = true;
        const OptimizeOutput opt = optimizeConv(p, m, oo);
        const ExecConfig best = opt.candidates.front().config;

        auto report = [&](const std::string &label,
                          const ExecConfig &cfg) {
            const CostBreakdown cb = evalMultiLevel(cfg, p, m, true);
            const SimTimeBreakdown sim = simulateTime(p, cfg, m, true);
            t.row()
                .add(p.name)
                .add(label)
                .add((cb.total_seconds - cb.overhead_seconds) * 1e3, 3)
                .add(cb.overhead_seconds * 1e3, 3)
                .add(sim.total_seconds * 1e3, 3)
                .add(sim.gflops, 1);
        };

        // (a) Full MOpt.
        report("mopt (multi-level)", best);

        // (b) Single-level-only: collapse L2/L3 tiles to the problem.
        ExecConfig single = best;
        const IntTileVec ext = problemExtents(p);
        single.tiles[LvlL2] = ext;
        single.tiles[LvlL3] = ext;
        report("single-level (L1 only)", single);

        // (c) Naive parallel split: all cores on the k dimension.
        ExecConfig naive = best;
        naive.par = {1, 1, 1, 1, 1, 1, 1};
        naive.par[DimK] = std::min<std::int64_t>(
            m.cores, naive.tiles[LvlL3][DimK]);
        report("naive k-split", naive);

        // (d) Line-aware re-ranking of the top-5 (Sec. 12 extension):
        // evaluate the candidates under the 16-word-line model and
        // pick the one moving the fewest lines.
        const ExecConfig *line_best = &best;
        double line_cost = std::numeric_limits<double>::infinity();
        for (const auto &cand : opt.candidates) {
            const CostBreakdown lb = evalMultiLevel(
                cand.config.toModel(), p, m, true, DivMode::Ceil, 16);
            if (lb.total_seconds < line_cost) {
                line_cost = lb.total_seconds;
                line_best = &cand.config;
            }
        }
        report("line-aware top-5 pick", *line_best);

        // (e) Independent permutation classes per level (8^3 sweep) —
        // ~64x the search cost, so full scale only.
        if (benchFullScale()) {
            OptimizerOptions oi = oo;
            oi.perm_mode = OptimizerOptions::PermMode::Independent;
            const OptimizeOutput ind = optimizeConv(p, m, oi);
            report("independent perms (8^3 sweep)",
                   ind.candidates.front().config);
        }
    }
    t.print(std::cout);

    std::cout << "\nExpected shapes: multi-level beats single-level on "
                 "operators with L2/L3-bound reuse;\nload-balanced "
                 "splits beat the naive k-split; the line-aware pick "
                 "never simulates worse\nthan MOpt-1 under multi-word "
                 "lines. (Set MOPT_BENCH_FULL=1 for the 8^3 sweep.)\n";
    return 0;
}
