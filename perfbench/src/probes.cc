/**
 * @file
 * The layer probes every traced run ends with, whatever its workload.
 * Each times one layer's public functions on the same inputs — resnet18
 * planned cold under the run's seed — so every traced run reports
 * every per-layer metric, and a layer's figure means the same under
 * every workload. They run after the workload's timed window and
 * checks, so no end-to-end figure includes them.
 *
 * A call too short to time alone reports the fastest of several
 * batches (perCall); a probe over each unique layer records one sample
 * per layer, which run.py reduces to the median.
 */

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/heuristic_lib.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "exec/measure.hh"
#include "exec/microkernel.hh"
#include "model/eval_context.hh"
#include "model/multi_level.hh"
#include "optimizer/integerize.hh"
#include "optimizer/load_balance.hh"
#include "rpc/server.hh"
#include "service/cache_key.hh"
#include "tensor/packing.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr int kRounds = 3;

/** The layer the exec probes run: a 3x3, 128-channel conv at 28x28. */
constexpr const char *kExecLayer = "layer2.0.conv2";

using Records = std::vector<std::pair<mopt::CacheKey, mopt::CachedSolution>>;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Cold Standard plans of @p net, a fresh cache each round; every
 *  round must produce the same plan, which is returned. */
mopt::NetworkPlan
probeOptimizer(const Options &o, const Net &net, Report &r)
{
    Span s("NetworkOptimizer::optimize/cold");
    std::vector<mopt::NetworkPlan> plans;
    const double best = perCall(1, kRounds, [&] {
        mopt::SolutionCache cache;
        plans.push_back(mopt::NetworkOptimizer(benchMachine(),
                                               planOptions(o), &cache)
                            .optimize(net.layers));
    });
    for (const mopt::NetworkPlan &plan : plans)
        r.check(plan.str() == plans[0].str(),
                "probe: cold resnet18 plans differ between rounds");
    const mopt::NetworkPlanStats &st = plans[0].stats;
    r.value("optimizer.solve_ms", 1e3 * best);
    r.value("optimizer.evals", static_cast<double>(st.solver_evals));
    r.value("optimizer.evals_per_s",
            static_cast<double>(st.solver_evals) / st.solve_seconds);
    return plans[0];
}

/** The model and Algorithm-1 tail on each unique winner. */
void
probeModel(const mopt::NetworkPlan &plan, Report &r)
{
    const mopt::MachineSpec m = benchMachine();
    for (const mopt::LayerPlan &lp : plan.layers) {
        if (lp.dedup_hit)
            continue;
        const mopt::ConvProblem &p = lp.problem;
        const mopt::ExecConfig &cfg = lp.best.config;
        const mopt::MultiLevelConfig model = cfg.toModel();
        {
            Span s("integerize");
            r.sample("optimizer.integerize_us",
                     1e6 * perCall(4, kRounds, [&] {
                         volatile auto c =
                             mopt::integerize(model, p, m, true).par[0];
                         (void)c;
                     }));
        }
        {
            Span s("loadBalance");
            r.sample("optimizer.load_balance_us",
                     1e6 * perCall(16, kRounds, [&] {
                         mopt::ExecConfig c = cfg;
                         mopt::loadBalance(c, p, m);
                     }));
        }
        {
            Span s("evalMultiLevel");
            r.sample("model.eval_ref_ns",
                     1e9 * perCall(200, kRounds, [&] {
                         volatile double t =
                             mopt::evalMultiLevel(cfg, p, m, true)
                                 .total_seconds;
                         (void)t;
                     }));
        }
        {
            Span s("EvalContext::evalBreakdown");
            const mopt::EvalContext ctx(p, m, cfg.perm,
                                        model.level[mopt::LvlReg].tiles,
                                        cfg.par, true);
            double x[mopt::EvalContext::kNumVars];
            for (int l = mopt::LvlL1; l <= mopt::LvlL3; ++l)
                for (int d = 0; d < mopt::NumDims; ++d)
                    x[(l - mopt::LvlL1) * mopt::NumDims + d] = std::log(
                        static_cast<double>(cfg.tiles[l][d]));
            mopt::EvalContext::Scratch scratch;
            r.sample("model.eval_ctx_ns",
                     1e9 * perCall(1000, kRounds, [&] {
                         volatile double t =
                             ctx.evalBreakdown(x, scratch).total_seconds;
                         (void)t;
                     }));
        }
    }
}

/** Journal append and load, lookup and warm replay of the plan's
 *  unique solutions. */
void
probeService(const Options &o, const Net &net,
             const mopt::NetworkPlan &plan, const Records &records,
             Report &r)
{
    std::string journal;
    double best = 0;
    for (int round = 0; round < kRounds; ++round) {
        journal = freshJournal(o, "probe");
        mopt::SolutionCache cache({.journal_path = journal});
        Span s("SolutionCache::insert");
        const double t = timed([&] {
            for (const auto &[key, sol] : records)
                cache.insert(key, sol);
        });
        if (round == 0 || t < best)
            best = t;
    }
    r.value("service.insert_us",
            1e6 * best / static_cast<double>(records.size()));
    {
        Span s("SolutionCache/journal load");
        r.value("service.journal_load_ms", 1e3 * perCall(1, kRounds, [&] {
                    mopt::SolutionCache cache({.journal_path = journal});
                }));
    }

    mopt::SolutionCache warm;
    for (const auto &[key, sol] : records)
        warm.insert(key, sol);
    {
        Span s("SolutionCache::lookup");
        std::size_t j = 0;
        mopt::CachedSolution out;
        r.value("service.lookup_ns", 1e9 * perCall(1000, kRounds, [&] {
                    warm.lookup(records[j].first, &out);
                    j = (j + 1) % records.size();
                }));
    }
    {
        Span s("NetworkOptimizer::optimize/warm");
        const mopt::NetworkOptimizer opt(benchMachine(), planOptions(o),
                                         &warm);
        mopt::NetworkPlan last;
        r.value("service.replay_us", 1e6 * perCall(5, kRounds, [&] {
                    last = opt.optimize(net.layers);
                }));
        r.check(last.stats.cache_misses == 0 && last.str() == plan.str(),
                "probe: warm replan is not byte-identical to the cold "
                "plan");
    }
}

/** Server::handle (no socket) over a warm cache and the wire codec;
 *  then a cold solve_network through the scheduler at budget 2. */
void
probeRpc(const Options &o, const mopt::NetworkPlan &plan,
         const Records &records, Report &r)
{
    const mopt::MachineSpec m = benchMachine();
    const mopt::OptimizerOptions opts = planOptions(o);
    const mopt::RpcRequest net_req = networkRequest(o, "resnet18");
    // records[0] is the plan's first layer (never a repeated shape).
    mopt::RpcRequest solve_req = identityRequest(o);
    solve_req.op = mopt::RpcOp::Solve;
    solve_req.problem = plan.layers.at(0).problem;

    {
        mopt::SolutionCache warm;
        for (const auto &[key, sol] : records)
            warm.insert(key, sol);
        mopt::Server server(m, opts, &warm);
        const mopt::RpcResponse solve_resp = server.handle(solve_req);
        const mopt::RpcResponse net_resp = server.handle(net_req);
        r.check(solve_resp.ok && solve_resp.solve.sol == records[0].second,
                "probe: solve handle() disagrees with the plan");
        r.check(net_resp.ok && net_resp.plan_text == plan.str(),
                "probe: solve_network handle() disagrees with the plan");
        const std::string net_line = mopt::responseToJsonLine(net_resp);
        r.value("rpc.resp_bytes.net", static_cast<double>(net_line.size()));
        {
            Span s("Server::handle/solve");
            r.value("rpc.handle_us.solve", 1e6 * perCall(200, kRounds, [&] {
                        (void)server.handle(solve_req);
                    }));
        }
        {
            Span s("Server::handle/solve_network");
            r.value("rpc.handle_us.net", 1e6 * perCall(20, kRounds, [&] {
                        (void)server.handle(net_req);
                    }));
        }
        {
            Span s("responseToJsonLine");
            r.value("rpc.encode_us.net", 1e6 * perCall(20, kRounds, [&] {
                        (void)mopt::responseToJsonLine(net_resp);
                    }));
        }
        {
            Span s("responseFromJsonLine");
            mopt::RpcResponse out;
            r.value("rpc.decode_us.net", 1e6 * perCall(20, kRounds, [&] {
                        (void)mopt::responseFromJsonLine(net_line, out,
                                                         nullptr);
                    }));
        }
    }

    mopt::SolutionCache cold;
    mopt::ServerOptions so;
    so.solve_concurrency = 2;
    mopt::Server server(m, opts, &cold, so);
    mopt::RpcResponse resp;
    {
        Span s("Server::handle/solve_network cold");
        r.value("scheduler.cold_net_ms",
                1e3 * timed([&] { resp = server.handle(net_req); }));
    }
    const mopt::SolveSchedulerStats ss = server.schedulerStats();
    r.check(resp.ok && resp.plan_text == plan.str(),
            "probe: scheduled cold plan differs from the serial one");
    r.check(ss.solves == static_cast<std::int64_t>(records.size()),
            "probe: scheduler solves != unique shapes");
    r.value("scheduler.solves", static_cast<double>(ss.solves));
    r.value("scheduler.peak_concurrency",
            static_cast<double>(ss.peak_concurrency));
}

/** Single-thread rate of the register tile on an L1-resident
 *  problem (the executor's innermost building block). */
double
microkernelGflops()
{
    mopt::ConvProblem p;
    p.k = mopt::MicroKernelShape::kKU;
    p.c = 16;
    p.r = p.s = 3;
    p.h = p.w = 12;
    mopt::Tensor4 in = mopt::makeInput(p);
    mopt::Tensor4 ker = mopt::makeKernel(p);
    mopt::Tensor4 out = mopt::makeOutput(p);
    mopt::Rng rng(1);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    const mopt::PackedKernel pk(ker, mopt::MicroKernelShape::kVecLen);
    const std::int64_t wu = mopt::MicroKernelShape::kWU;
    const double seconds = perCall(200, 5, [&] {
        for (std::int64_t h = 0; h < p.h; ++h)
            for (std::int64_t w = 0; w < p.w; w += wu)
                mopt::computeRegisterTile(
                    p, in, pk, out, 0, h, w, std::min(wu, p.w - w), 0, p.k,
                    0, p.c, 0, p.r, 0, p.s);
    });
    return p.flops() / seconds / 1e9;
}

/** kExecLayer's planned configuration and the library blocking,
 *  through measureConfig; then the bare microkernel. */
void
probeExec(const Options &o, const mopt::NetworkPlan &plan, Report &r)
{
    const auto lp = std::find_if(
        plan.layers.begin(), plan.layers.end(),
        [](const mopt::LayerPlan &l) { return l.problem.name == kExecLayer; });
    if (lp == plan.layers.end())
        throw std::runtime_error(std::string("resnet18 has no layer ") +
                                 kExecLayer);
    const mopt::ConvProblem &p = lp->problem;
    mopt::MeasureOptions mo;
    mo.reps = 5;
    mo.warmups = 1;
    mo.flush_cache = true;
    mo.threads = o.threads;
    mo.seed = o.seed;
    mopt::Measurement mine, lib;
    {
        Span s("measureConfig/mopt");
        mine = mopt::measureConfig(p, lp->best.config, mo);
    }
    {
        Span s("measureConfig/lib");
        lib = mopt::measureConfig(
            p, mopt::heuristicConfig(p, benchMachine(), true), mo);
    }
    const double mine_s = median(mine.seconds);
    r.value("exec.conv_ms", 1e3 * mine_s);
    r.value("lib.conv_ms", 1e3 * median(lib.seconds));
    r.value("exec.pack_ms", 1e3 * mine.pack_seconds);
    r.value("exec.gflops", p.flops() / mine_s / 1e9);
    r.value("exec.pred_ratio",
            mine_s / lp->best.predicted.total_seconds);
    Span s("microkernel");
    r.value("microkernel.gflops", microkernelGflops());
}

} // namespace

void
runProbes(const Options &o, Report &r)
{
    Span probes("probes");
    const mopt::MachineSpec m = benchMachine();
    const mopt::OptimizerOptions opts = planOptions(o);
    const Net net = loadNet("resnet18");
    const mopt::NetworkPlan plan = probeOptimizer(o, net, r);

    Records records;
    for (const mopt::LayerPlan &lp : plan.layers)
        if (!lp.dedup_hit)
            records.emplace_back(mopt::CacheKey::make(lp.problem, m, opts),
                                 cachedOf(lp));

    probeModel(plan, r);
    probeService(o, net, plan, records, r);
    probeRpc(o, plan, records, r);
    probeExec(o, plan, r);
}

} // namespace perfbench
