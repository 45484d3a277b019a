#include "support/golden_records.hh"

namespace mopt {

namespace {

constexpr std::uint64_t kMachineFp = 0x0123456789abcdefull;
constexpr std::uint64_t kSettingsFp = 0xfedcba9876543210ull;

ConvProblem
goldenProblem(int layer)
{
    ConvProblem p;
    p.n = 2;
    switch (layer) {
    case 0:
        p.name = "conv1";
        p.k = 64;
        p.c = 3;
        p.r = p.s = 7;
        p.h = p.w = 112;
        p.stride = 2;
        break;
    case 1:
        p.name = "dw \"2\"";
        p.k = p.c = p.groups = 32;
        p.r = p.s = 3;
        p.h = p.w = 56;
        break;
    default:
        p.name = "pw";
        p.k = 128;
        p.c = 64;
        p.r = p.s = 1;
        p.h = p.w = 28;
        p.stride = 2;
        p.groups = 4;
        break;
    }
    return p;
}

ExecConfig
goldenConfig(int layer)
{
    const std::int64_t v = layer + 1;
    ExecConfig c;
    c.perm = {Permutation::parse("nkhwcrs"), Permutation::parse("nhwkcrs"),
              Permutation::parse("knchwrs"), Permutation::parse("wkhncrs")};
    c.tiles[LvlReg] = {1, 8, 1, 1, 1, 1, 6};
    c.tiles[LvlL1] = {1, 16, 3 * v, 3, 3, 2, 12};
    c.tiles[LvlL2] = {1, 32, 16, 3, 3, 7 * v, 28};
    c.tiles[LvlL3] = {2, 64, 32, 3, 3, 14, 56};
    c.par = {1, 2, 1, 1, 1, 2 * v, 1};
    return c;
}

} // namespace

CacheKey
goldenKey(int layer)
{
    CacheKey k;
    k.problem = CacheKey::canonicalProblem(goldenProblem(layer));
    k.machine_fp = kMachineFp;
    k.settings_fp = kSettingsFp;
    return k;
}

CachedSolution
goldenSolution()
{
    return CachedSolution{goldenConfig(1), 1.0 / 3.0,
                          "kc|hw \"q\" \\ \t\x01"};
}

NetworkPlan
goldenPlan()
{
    NetworkPlan plan;
    for (int i = 0; i < 3; ++i) {
        LayerPlan lp;
        lp.problem = goldenProblem(i);
        lp.best.config = goldenConfig(i);
        lp.best.perm_label = i == 1 ? "hw|kc" : "nk|crs";
        lp.best.predicted.total_seconds = 1.2345678e-4 * (i + 1);
        lp.best.predicted.gflops = 98.76 / (i + 1);
        plan.layers.push_back(lp);
    }
    return plan;
}

RpcResponse
goldenNetworkResponse()
{
    RpcResponse r;
    r.ok = true;
    r.op = RpcOp::SolveNetwork;
    r.plan_text = goldenPlan().str();
    r.unique_shapes = 2;
    r.cache_hits = 1;
    r.cache_misses = 1;
    r.solver_evals = 123456;
    r.solve_seconds = 0.1;
    r.layers.push_back(
        RpcSolveResult{goldenKey(0), CachedSolution{goldenConfig(0), 2.5e-5,
                                                    "nk|crs"},
                       true});
    r.layers.push_back(RpcSolveResult{goldenKey(2), goldenSolution(), false});
    return r;
}

RpcRequest
goldenSolveRequest()
{
    RpcRequest req;
    req.op = RpcOp::Solve;
    req.problem = goldenKey(2).problem;
    req.machine_fp = kMachineFp;
    req.settings_fp = kSettingsFp;
    req.deadline_ms = 2500;
    return req;
}

RpcRequest
goldenNetworkRequest()
{
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    req.net = "resnet18";
    req.batch = 8;
    req.machine_fp = kMachineFp;
    req.settings_fp = kSettingsFp;
    return req;
}

} // namespace mopt
