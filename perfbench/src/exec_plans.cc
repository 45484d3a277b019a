/**
 * @file
 * exec_plans: run the plans. Set-up plans resnet18 cold (the only
 * solves of the run); the timed part then runs, layer by layer and pass
 * after pass, each layer's top-1 MOpt plan through measureConfig, with
 * threads = nproc and the cache flushed before every run. Its
 * operation (op_ms, computed by run.py) is one run of the network: the
 * sum over layers of each layer's median run time. Before timing,
 * every layer's output under its plan and under the library blocking
 * (heuristicConfig, which the layer probes time) is checked against
 * the naive referenceConv on a seeded slice of output channels.
 */

#include <algorithm>
#include <cmath>

#include "baselines/heuristic_lib.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "exec/measure.hh"
#include "service/network_optimizer.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr int kMinPasses = 2;
constexpr int kRepsPerPass = 3;
constexpr int kCheckedChannels = 2;

/**
 * Run @p cfg once on seeded tensors and compare kCheckedChannels
 * seeded output channels (every point of them) against referenceConv
 * of the same slice. Grouped layers are checked whole.
 */
bool
matchesReference(const mopt::ConvProblem &p, const mopt::ExecConfig &cfg,
                 int threads, std::uint64_t seed)
{
    mopt::Rng rng(seed);
    mopt::Tensor4 in = mopt::makeInput(p);
    mopt::Tensor4 ker = mopt::makeKernel(p);
    mopt::Tensor4 out = mopt::makeOutput(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    mopt::runConv(p, in, ker, out, cfg, threads);

    std::vector<std::int64_t> ks;
    if (p.groups == 1) {
        while (static_cast<int>(ks.size()) < kCheckedChannels) {
            const std::int64_t k = rng.uniformInt(0, p.k - 1);
            if (std::find(ks.begin(), ks.end(), k) == ks.end())
                ks.push_back(k);
        }
    } else {
        for (std::int64_t k = 0; k < p.k; ++k)
            ks.push_back(k);
    }
    mopt::ConvProblem q = p;
    if (p.groups == 1)
        q.k = static_cast<std::int64_t>(ks.size());
    mopt::Tensor4 qker = mopt::makeKernel(q);
    for (std::size_t i = 0; i < ks.size(); ++i)
        for (std::int64_t c = 0; c < q.cPerGroup(); ++c)
            for (std::int64_t r = 0; r < p.r; ++r)
                for (std::int64_t s = 0; s < p.s; ++s)
                    qker.at(static_cast<std::int64_t>(i), c, r, s) =
                        ker.at(ks[i], c, r, s);
    mopt::Tensor4 ref = mopt::makeOutput(q);
    mopt::referenceConv(q, in, qker, ref);

    // fp32 sums of cPerGroup*r*s products in [-1, 1), accumulated in
    // a different order than the reference.
    const double tol =
        1e-4 + 1e-5 * static_cast<double>(p.cPerGroup() * p.r * p.s);
    for (std::size_t i = 0; i < ks.size(); ++i)
        for (std::int64_t n = 0; n < p.n; ++n)
            for (std::int64_t h = 0; h < p.h; ++h)
                for (std::int64_t w = 0; w < p.w; ++w)
                    if (std::abs(out.at(n, ks[i], h, w) -
                                 ref.at(n, static_cast<std::int64_t>(i), h,
                                        w)) > tol)
                        return false;
    return true;
}

} // namespace

void
runExecPlans(const Options &o, Report &r)
{
    const mopt::MachineSpec m = benchMachine();
    const mopt::OptimizerOptions opts = planOptions(o);

    Net net;
    mopt::NetworkPlan plan;
    for (int i = 0; i < kSetupReps; ++i) {
        r.setup(timed([&] {
            net = loadNet("resnet18");
            mopt::SolutionCache cache;
            plan = mopt::NetworkOptimizer(m, opts, &cache)
                       .optimize(net.layers);
        }));
    }

    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const mopt::ConvProblem &p = plan.layers[i].problem;
        Span span("check/" + p.name);
        r.check(matchesReference(p, plan.layers[i].best.config, o.threads,
                                 o.seed + i),
                p.name + ": MOpt plan output differs from referenceConv");
        r.check(matchesReference(p, mopt::heuristicConfig(p, m, true),
                                 o.threads, o.seed + i),
                p.name + ": library output differs from referenceConv");
    }

    mopt::MeasureOptions mo;
    mo.reps = kRepsPerPass;
    mo.warmups = 1;
    mo.flush_cache = true;
    mo.threads = o.threads;
    mo.seed = o.seed;
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0;; ++pass) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        if (pass >= kMinPasses && elapsed >= o.seconds)
            break;
        Span pass_span("exec_plans.pass");
        for (const mopt::LayerPlan &lp : plan.layers) {
            mopt::Measurement mine;
            {
                Span s("measureConfig/" + lp.problem.name);
                mine = mopt::measureConfig(lp.problem, lp.best.config, mo);
            }
            for (const double t : mine.seconds)
                r.sample("exec.layer_ms." + lp.problem.name, t * 1e3);
        }
    }
}

} // namespace perfbench
