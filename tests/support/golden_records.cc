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

std::vector<RpcRequest>
goldenReplicateRequests()
{
    RpcRequest push;
    push.op = RpcOp::Replicate;
    push.machine_fp = kMachineFp;
    push.settings_fp = kSettingsFp;
    push.deadline_ms = 1000;
    push.has_record = true;
    push.repl_record = {goldenKey(1), goldenSolution(), 9};

    RpcRequest pull;
    pull.op = RpcOp::Replicate;
    pull.machine_fp = kMachineFp;
    pull.settings_fp = kSettingsFp;
    pull.deadline_ms = 2000;
    pull.repl_pull = true;
    pull.repl_since = 412;
    pull.repl_for = 2;

    RpcRequest digest;
    digest.op = RpcOp::Replicate;
    digest.machine_fp = kMachineFp;
    digest.settings_fp = kSettingsFp;
    digest.repl_digest = true;
    digest.repl_for = 1;

    RpcRequest ping;
    ping.op = RpcOp::Ping;
    ping.deadline_ms = 250;
    return {push, pull, digest, ping};
}

std::vector<RpcResponse>
goldenReplicateResponses()
{
    RpcResponse applied;
    applied.ok = true;
    applied.op = RpcOp::Replicate;
    applied.repl_applied = 1;

    RpcResponse pull;
    pull.ok = true;
    pull.op = RpcOp::Replicate;
    pull.repl_is_pull = true;
    pull.repl_records.resize(2);
    pull.repl_records[0].key = goldenKey(0);
    pull.repl_records[0].sol =
        CachedSolution{goldenConfig(0), 2.5e-5, "nk|crs"};
    pull.repl_records[0].seq = 3;
    pull.repl_records[1].key = goldenKey(2);
    pull.repl_records[1].sol = goldenSolution();

    RpcResponse digest;
    digest.ok = true;
    digest.op = RpcOp::Replicate;
    digest.repl_has_digest = true;
    digest.repl_digest_count = 7;
    digest.repl_digest_fp = 0xdeadbeefcafef00dull;

    RpcResponse ping;
    ping.ok = true;
    ping.op = RpcOp::Ping;
    return {applied, pull, digest, ping};
}

} // namespace mopt
