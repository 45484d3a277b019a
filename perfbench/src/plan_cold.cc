/**
 * @file
 * plan_cold: cold Standard-effort plans of every layer of resnet18,
 * vgg16 and yolov3 through NetworkOptimizer — fresh in-memory cache
 * per repetition, serial full-width solves. No RPC, no execution.
 * After each timed repetition (untimed) a warm replan of every
 * network must be byte-identical and solve nothing, and every
 * repetition must reproduce the first one's plans and eval count.
 * Its operation (op_ms) is one repetition: all three networks.
 */

#include <set>

#include "bench.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr int kMinReps = 3;

/** Number of distinct solve keys among @p nets' layers. */
std::size_t
uniqueShapes(const std::vector<Net> &nets,
             const mopt::OptimizerOptions &opts)
{
    const mopt::MachineSpec m = benchMachine();
    std::set<std::uint64_t> keys;
    for (const Net &net : nets)
        for (const mopt::ConvProblem &p : net.layers)
            keys.insert(mopt::CacheKey::make(p, m, opts).hash());
    return keys.size();
}

/**
 * Set-up would otherwise be a few allocations, which no bound can
 * hold steady: one Fast-effort cold plan of resnet18 (fresh cache), so
 * thread pools, code pages and the allocator are warm before anything
 * is timed.
 */
void
warmUp(const Options &o)
{
    mopt::OptimizerOptions opts = planOptions(o);
    opts.effort = mopt::OptimizerOptions::Effort::Fast;
    mopt::SolutionCache cache;
    mopt::NetworkOptimizer(benchMachine(), opts, &cache)
        .optimize(loadNet("resnet18").layers);
}

} // namespace

void
runPlanCold(const Options &o, Report &r)
{
    const mopt::MachineSpec m = benchMachine();
    const mopt::OptimizerOptions opts = planOptions(o);

    std::vector<Net> nets;
    for (int i = 0; i < kSetupReps; ++i) {
        r.setup(timed([&] {
            nets = {loadNet("resnet18"), loadNet("vgg16"),
                    loadNet("yolov3")};
            warmUp(o);
        }));
    }
    const std::size_t unique = uniqueShapes(nets, opts);

    std::vector<std::string> first_plans;
    long first_evals = -1;
    std::vector<mopt::NetworkPlan> plans;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0;; ++rep) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        if (rep >= kMinReps && elapsed >= o.seconds)
            break;

        mopt::SolutionCache cache;
        const mopt::NetworkOptimizer opt(m, opts, &cache);
        plans.clear();
        {
            Span rep_span("plan_cold.rep");
            r.sample("op_ms", 1e3 * timed([&] {
                         for (const Net &net : nets) {
                             Span span("NetworkOptimizer::optimize/" +
                                       net.name);
                             plans.push_back(opt.optimize(net.layers));
                         }
                     }));
        }

        // Untimed checks: determinism across repetitions, and a warm
        // replan that replays every layer byte-identically.
        long evals = 0;
        std::size_t misses = 0;
        for (std::size_t i = 0; i < nets.size(); ++i) {
            const mopt::NetworkPlan &cold = plans[i];
            evals += cold.stats.solver_evals;
            misses += cold.stats.cache_misses;
            const std::string text = cold.str();
            if (rep == 0)
                first_plans.push_back(text);
            r.check(text == first_plans[i],
                    nets[i].name + ": cold plan differs from the first "
                                   "repetition's");
            const mopt::NetworkPlan warm = opt.optimize(nets[i].layers);
            r.check(warm.str() == text && warm.stats.cache_misses == 0,
                    nets[i].name + ": warm replan is not byte-identical "
                                   "to the cold plan");
        }
        if (rep == 0)
            first_evals = evals;
        r.check(evals == first_evals,
                "model evaluation count changed between repetitions");
        r.check(misses == unique,
                "cold plans did not solve each unique shape once");
    }
}

} // namespace perfbench
