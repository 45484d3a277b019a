/**
 * @file
 * ResNet-18 pipeline on the service layer: optimize all twenty conv2d
 * layers of the full network in one NetworkOptimizer call —
 * deduplicating repeated shapes and, with --cache, persisting
 * solutions across runs — then execute every layer and report
 * per-stage and whole-pipeline GFLOPS. This is the workload a
 * DNN-framework integration would run, and the simplest demonstration
 * of why the solution cache exists: a second run with the same cache
 * file does zero solver work.
 *
 *   ./resnet_pipeline [--machine=i7] [--threads=8] [--reps=3]
 *                     [--downscale=1] [--cache=resnet.cache.json]
 *                     [--effort=fast|standard|thorough]
 */

#include <iostream>
#include <sstream>
#include <thread>

#include "common/flags.hh"
#include "common/stats.hh"
#include "common/string_util.hh"
#include "common/table.hh"
#include "exec/measure.hh"
#include "frontend/registry.hh"
#include "machine/machine.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"

int
main(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    const MachineSpec m = machineByName(flags.getString("machine", "i7"));
    const int threads = static_cast<int>(flags.getInt(
        "threads",
        std::min<std::int64_t>(m.cores,
                               std::thread::hardware_concurrency())));
    const int reps = static_cast<int>(flags.getInt("reps", 3));
    const bool downscale = flags.getBool("downscale", false);

    OptimizerOptions opts;
    opts.parallel = true;
    opts.effort = effortFromString(flags.getString("effort", "fast"));

    SolutionCacheOptions co;
    co.journal_path = flags.getString("cache", "");
    SolutionCache cache(co);

    std::vector<ConvProblem> net;
    for (const auto &orig : networkDefByName("resnet18").lower())
        net.push_back(downscale ? orig.downscaled(28, 128) : orig);

    std::cout << "ResNet-18 conv2d pipeline on " << m.name << ", "
              << threads << " threads\n";
    if (!co.journal_path.empty())
        std::cout << "Solution cache: " << co.journal_path << " ("
                  << cache.stats().journal_loaded << " entries loaded)\n";
    std::cout << "\n";

    // One batch solve for the whole network; repeated shapes and
    // journal entries short-circuit to cache hits.
    const NetworkOptimizer nopt(m, opts, &cache);
    const NetworkPlan plan = nopt.optimize(net);

    Table t({"Layer", "shape", "src", "GFLOPS", "+-CI", "ms/layer"});
    double total_seconds = 0.0, total_flops = 0.0;
    std::vector<double> per_stage_gflops;

    for (const LayerPlan &lp : plan.layers) {
        const ConvProblem &p = lp.problem;

        MeasureOptions mo;
        mo.reps = reps;
        mo.threads = threads;
        const Measurement meas = measureConfig(p, lp.best.config, mo);

        total_seconds += meas.mean_seconds;
        total_flops += p.flops();
        per_stage_gflops.push_back(meas.mean_gflops);

        std::ostringstream shape;
        shape << "K" << p.k << " C" << p.c << " H" << p.h << " R"
              << p.r << (p.stride == 2 ? "*" : "");
        t.row()
            .add(p.name)
            .add(shape.str())
            .add(lp.cache_hit    ? "cache"
                 : lp.dedup_hit  ? "dedup"
                                 : "solve")
            .add(meas.mean_gflops, 1)
            .add(meas.ci95_gflops, 2)
            .add(meas.mean_seconds * 1e3, 2);
    }
    t.print(std::cout);

    const NetworkPlanStats &st = plan.stats;
    std::cout << "\nSearch: " << st.unique_shapes << " unique shapes, "
              << st.cache_hits << " cache hits (hit rate "
              << formatDouble(100.0 * st.hitRate(), 1) << "%), "
              << formatDouble(st.solve_seconds, 2) << " s solving\n";
    std::cout << "Pipeline: " << total_seconds * 1e3 << " ms total, "
              << total_flops / total_seconds / 1e9
              << " GFLOPS aggregate, geomean per-stage "
              << geomean(per_stage_gflops) << " GFLOPS\n";
    return 0;
}
