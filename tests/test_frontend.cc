/**
 * @file
 * Tests of the network frontend: the NetworkDef IR, the darknet .cfg
 * parser, the registry's builtin builders, grouped-conv correctness
 * in the reference implementation and the cost model, and the
 * groups/batch extensions to the cache journal and RPC protocol.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "conv/problem.hh"
#include "conv/reference.hh"
#include "conv/workloads.hh"
#include "frontend/cfg_parser.hh"
#include "frontend/network_def.hh"
#include "frontend/registry.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/protocol.hh"
#include "service/cache_key.hh"
#include "service/solution_cache.hh"

namespace mopt {
namespace {

std::string
dataPath(const std::string &file)
{
    return std::string(MOPT_TEST_DATA_DIR) + "/" + file;
}

/** Field-by-field problem equality (operator== also compares names). */
void
expectSameProblem(const ConvProblem &a, const ConvProblem &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.c, b.c);
    EXPECT_EQ(a.r, b.r);
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.h, b.h);
    EXPECT_EQ(a.w, b.w);
    EXPECT_EQ(a.stride, b.stride);
    EXPECT_EQ(a.dilation, b.dilation);
    EXPECT_EQ(a.groups, b.groups);
}

// ---------------------------------------------------------------------
// Registry: the builtin builders are the single source of truth for
// the named networks.

TEST(Registry, BuildersMatchNamedLookup)
{
    const struct
    {
        NetworkDef (*def)();
        const char *name;
        std::size_t layers;
    } cases[] = {
        {resnet18Def, "resnet18", 20},
        {vgg16Def, "vgg16", 13},
        {yolov3Def, "yolov3", 52},
    };
    for (const auto &tc : cases) {
        const std::vector<ConvProblem> lowered = tc.def().lower();
        const std::vector<ConvProblem> named =
            networkDefByName(tc.name).lower();
        ASSERT_EQ(lowered.size(), tc.layers);
        ASSERT_EQ(lowered.size(), named.size());
        for (std::size_t i = 0; i < lowered.size(); ++i)
            expectSameProblem(lowered[i], named[i]);
    }
}

TEST(Registry, BatchThreadsToEveryLayer)
{
    NetworkDef def = resnet18Def();
    def.batch = 8;
    for (const ConvProblem &p : def.lower())
        EXPECT_EQ(p.n, 8);
}

TEST(Registry, UnknownNameListsValidNames)
{
    try {
        networkDefByName("resnet50");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        for (const std::string &name : registeredNetworkNames())
            EXPECT_NE(msg.find(name), std::string::npos) << msg;
        EXPECT_NE(msg.find(".cfg"), std::string::npos) << msg;
    }
}

TEST(Registry, AliasesAndCase)
{
    EXPECT_EQ(networkDefByName("ResNet-18").name, "resnet18");
    EXPECT_EQ(networkDefByName("YOLOv3").name, "yolov3");
    EXPECT_EQ(networkDefByName("darknet53").name, "yolov3");
    EXPECT_EQ(networkDefByName("vgg-16").name, "vgg16");
}

TEST(Registry, CfgPathDetection)
{
    EXPECT_TRUE(looksLikeCfgPath("model.cfg"));
    EXPECT_TRUE(looksLikeCfgPath("tests/data/tiny.cfg"));
    EXPECT_TRUE(looksLikeCfgPath("./resnet18"));
    EXPECT_FALSE(looksLikeCfgPath("resnet18"));
}

// ---------------------------------------------------------------------
// The committed tiny.cfg: round-trip through the parser and the IR's
// JSON encoding.

TEST(CfgParser, TinyCfgRoundTrip)
{
    const NetworkDef def = parseCfgFile(dataPath("tiny.cfg"));
    EXPECT_EQ(def.name, "tiny");
    EXPECT_EQ(def.batch, 1);
    ASSERT_EQ(def.layers.size(), 4u);

    // conv0: dense 3x3 "same" on the 32x32x3 input.
    EXPECT_EQ(def.layers[0].kind, LayerKind::Conv);
    EXPECT_EQ(def.layers[0].filters, 16);
    EXPECT_EQ(def.layers[0].in_c, 3);
    EXPECT_EQ(def.layers[0].in_h, 32);
    EXPECT_EQ(def.layers[0].pad, 1);

    // conv1: grouped conv after the 2x2/2 maxpool (32 -> 16 spatial).
    EXPECT_EQ(def.layers[1].kind, LayerKind::Conv);
    EXPECT_EQ(def.layers[1].groups, 8);
    EXPECT_EQ(def.layers[1].in_c, 16);
    EXPECT_EQ(def.layers[1].in_h, 16);

    // conv2: groups == filters == input channels => depthwise.
    EXPECT_EQ(def.layers[2].kind, LayerKind::Depthwise);
    EXPECT_EQ(def.layers[2].groups, 32);
    EXPECT_EQ(def.layers[2].stride, 2);

    // fc3: [connected] output=10 over the flattened 32x8x8 tensor.
    EXPECT_EQ(def.layers[3].kind, LayerKind::Matmul);
    EXPECT_EQ(def.layers[3].filters, 10);
    EXPECT_EQ(def.layers[3].in_c, 32 * 8 * 8);
    EXPECT_EQ(def.layers[3].in_h, 1);

    const std::vector<ConvProblem> net = def.lower();
    ASSERT_EQ(net.size(), 4u);
    EXPECT_EQ(net[1].groups, 8);
    EXPECT_EQ(net[2].groups, 32);
    EXPECT_EQ(net[2].h, 8); // (16 + 2*1 - 3)/2 + 1
    EXPECT_EQ(net[3].c, 2048);
}

TEST(CfgParser, NetworkDefJsonRoundTrip)
{
    const NetworkDef def = parseCfgFile(dataPath("tiny.cfg"));
    const std::string json = networkDefToJson(def);
    JsonReader reader;
    ASSERT_TRUE(reader.read(json)) << json;
    NetworkDef back;
    std::string err;
    ASSERT_TRUE(networkDefFromJson(reader.root(), back, &err)) << err;
    EXPECT_EQ(back.name, def.name);
    EXPECT_EQ(back.batch, 1); // Batch travels beside the payload.
    ASSERT_EQ(back.layers.size(), def.layers.size());
    back.batch = 3;
    const std::vector<ConvProblem> a = back.lower();
    NetworkDef batched = def;
    batched.batch = 3;
    const std::vector<ConvProblem> b = batched.lower();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameProblem(a[i], b[i]);
}

TEST(CfgParser, BatchReachesConvProblemN)
{
    const std::string text = "[net]\n"
                             "width=16\nheight=16\nchannels=4\nbatch=4\n"
                             "[convolutional]\nfilters=8\nsize=3\npad=1\n";
    const NetworkDef def = parseCfgText(text, "batch.cfg");
    EXPECT_EQ(def.batch, 4);
    for (const ConvProblem &p : def.lower())
        EXPECT_EQ(p.n, 4);
}

// ---------------------------------------------------------------------
// Malformed input: every rejection carries "source:line:" context.

void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        parseCfgText(text, "bad.cfg");
        FAIL() << "expected FatalError for: " << needle;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message: " << e.what();
    }
}

TEST(CfgParser, RejectsBadKeyLine)
{
    // Line 2 is not key=value and not a section header.
    expectParseError("[net]\nwhat is this\n", "bad.cfg:2");
}

TEST(CfgParser, RejectsNonIntegerValue)
{
    expectParseError("[net]\nwidth=16\nheight=16\nchannels=3\n"
                     "[convolutional]\nfilters=many\n",
                     "bad.cfg:6");
}

TEST(CfgParser, RejectsZeroFilters)
{
    expectParseError("[net]\nwidth=16\nheight=16\nchannels=3\n"
                     "[convolutional]\nfilters=0\nsize=3\n",
                     "filters");
}

TEST(CfgParser, RejectsTruncatedSection)
{
    // [convolutional] with no filters= at all.
    expectParseError("[net]\nwidth=16\nheight=16\nchannels=3\n"
                     "[convolutional]\nsize=3\n",
                     "filters");
}

TEST(CfgParser, RejectsConvBeforeNet)
{
    expectParseError("[convolutional]\nfilters=8\n", "[net]");
}

TEST(CfgParser, RejectsEmptyNetwork)
{
    EXPECT_THROW(parseCfgText("[net]\nwidth=8\nheight=8\nchannels=3\n",
                              "bad.cfg"),
                 FatalError);
}

TEST(CfgParser, SkipsUnknownSectionsAndParsesOn)
{
    const std::string text = "[net]\nwidth=8\nheight=8\nchannels=4\n"
                             "[convolutional]\nfilters=8\nsize=3\npad=1\n"
                             "[yolo]\nclasses=80\nanchors=1,2,3\n"
                             "[convolutional]\nfilters=4\nsize=1\n";
    const NetworkDef def = parseCfgText(text, "skip.cfg");
    ASSERT_EQ(def.layers.size(), 2u);
    EXPECT_EQ(def.layers[1].in_c, 8); // Propagated straight past [yolo].
}

// ---------------------------------------------------------------------
// Grouped conv correctness: the reference implementation vs a dense
// conv with a block-diagonal kernel, and the descriptor's counts.

ConvProblem
groupedProb(std::int64_t groups)
{
    ConvProblem p;
    p.name = "grp";
    p.n = 2;
    p.k = 8;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 5;
    p.w = 5;
    p.groups = groups;
    return p;
}

TEST(GroupedReference, MatchesDenseBlockDiagonalKernel)
{
    for (const std::int64_t groups : {1L, 2L, 4L, 8L}) {
        const ConvProblem pg = groupedProb(groups);
        ConvProblem pd = groupedProb(1);

        Rng rng(42);
        Tensor4 in = makeInput(pg);
        in.fillRandom(rng);
        Tensor4 kg = makeKernel(pg); // [k][c/groups][r][s]
        kg.fillRandom(rng);

        // Embed the grouped kernel block-diagonally in a dense one:
        // group g couples output channels [g*kp, ...) with input
        // channels [g*cp, ...), everything else is zero.
        Tensor4 kd = makeKernel(pd); // [k][c][r][s], zero-initialized.
        const std::int64_t kp = pg.kPerGroup(), cp = pg.cPerGroup();
        for (std::int64_t k = 0; k < pg.k; ++k)
            for (std::int64_t c = 0; c < cp; ++c)
                for (std::int64_t r = 0; r < pg.r; ++r)
                    for (std::int64_t s = 0; s < pg.s; ++s)
                        kd.at(k, (k / kp) * cp + c, r, s) =
                            kg.at(k, c, r, s);

        Tensor4 og = makeOutput(pg);
        Tensor4 od = makeOutput(pd);
        referenceConv(pg, in, kg, og);
        referenceConv(pd, in, kd, od);
        ASSERT_EQ(og.size(), od.size());
        for (std::int64_t i = 0; i < og.size(); ++i)
            ASSERT_FLOAT_EQ(og.data()[i], od.data()[i])
                << "groups=" << groups << " i=" << i;
    }
}

TEST(GroupedReference, DepthwiseIsPerChannel)
{
    // groups == c == k: each output channel sees only its own input
    // channel, so scaling one input channel scales one output channel.
    ConvProblem p = groupedProb(8);
    p.k = p.c = p.groups = 8;

    Rng rng(7);
    Tensor4 in = makeInput(p);
    in.fillRandom(rng);
    Tensor4 ker = makeKernel(p);
    ker.fillRandom(rng);
    ASSERT_EQ(ker.size(), p.k * 1 * p.r * p.s);

    Tensor4 base = makeOutput(p);
    referenceConv(p, in, ker, base);

    for (std::int64_t hh = 0; hh < p.inH(); ++hh)
        for (std::int64_t ww = 0; ww < p.inW(); ++ww)
            in.at(0, 3, hh, ww) *= 2.0f;
    Tensor4 scaled = makeOutput(p);
    referenceConv(p, in, ker, scaled);

    for (std::int64_t k = 0; k < p.k; ++k)
        for (std::int64_t h = 0; h < p.h; ++h)
            for (std::int64_t w = 0; w < p.w; ++w) {
                const float expect = k == 3 ? 2.0f * base.at(0, k, h, w)
                                            : base.at(0, k, h, w);
                ASSERT_FLOAT_EQ(scaled.at(0, k, h, w), expect);
            }
}

TEST(GroupedProblem, CountsMatchLoopEnumeration)
{
    for (const std::int64_t groups : {1L, 2L, 8L}) {
        const ConvProblem p = groupedProb(groups);
        // Enumerate the MACs the reference performs.
        std::int64_t macs = 0;
        for (std::int64_t n = 0; n < p.n; ++n)
            for (std::int64_t k = 0; k < p.k; ++k)
                for (std::int64_t c = 0; c < p.cPerGroup(); ++c)
                    for (std::int64_t r = 0; r < p.r; ++r)
                        for (std::int64_t s = 0; s < p.s; ++s)
                            for (std::int64_t h = 0; h < p.h; ++h)
                                macs += p.w;
        EXPECT_EQ(p.macs(), macs) << "groups=" << groups;
        EXPECT_DOUBLE_EQ(p.flops(), 2.0 * static_cast<double>(macs));
        EXPECT_EQ(makeKernel(p).size(), p.kerSize());
    }
}

TEST(GroupedProblem, ValidateRejectsIndivisibleGroups)
{
    ConvProblem p = groupedProb(3); // 8 % 3 != 0
    EXPECT_THROW(p.validate(), FatalError);
    p = groupedProb(8);
    p.k = 4; // c divisible, k not
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(GroupedModel, CostScalesLinearlyInGroups)
{
    // A grouped problem's per-group extents equal a dense problem of
    // k/groups x c/groups channels; the model multiplies every count
    // by groups, so cost and volume must scale exactly linearly.
    const MachineSpec m = i7_9700k();
    const std::int64_t groups = 4;
    ConvProblem pg = groupedProb(groups);
    pg.k = 32;
    pg.c = 32;
    ConvProblem p1 = pg;
    p1.k = pg.kPerGroup();
    p1.c = pg.cPerGroup();
    p1.groups = 1;

    MultiLevelConfig cfg;
    const Permutation perm = Permutation::parse("kcrsnhw");
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm = perm;
    cfg.level[LvlReg].tiles = {1, 4, 1, 1, 1, 1, 5};
    cfg.level[LvlL1].tiles = {1, 8, 4, 3, 3, 5, 5};
    cfg.level[LvlL2].tiles = {2, 8, 8, 3, 3, 5, 5};
    cfg.level[LvlL3].tiles = {2, 8, 8, 3, 3, 5, 5};

    const CostBreakdown cg =
        evalMultiLevel(cfg, pg, m, false, DivMode::Continuous);
    const CostBreakdown c1 =
        evalMultiLevel(cfg, p1, m, false, DivMode::Continuous);
    const double g = static_cast<double>(groups);
    for (int l = 0; l < NumMemLevels; ++l) {
        const std::size_t lvl = static_cast<std::size_t>(l);
        EXPECT_DOUBLE_EQ(cg.volume_words[lvl], g * c1.volume_words[lvl]);
        EXPECT_DOUBLE_EQ(cg.seconds[lvl], g * c1.seconds[lvl]);
    }
    EXPECT_DOUBLE_EQ(cg.compute_seconds, g * c1.compute_seconds);
}

TEST(GroupedOptimizer, DepthwiseSolveIsDeterministic)
{
    ConvProblem p;
    p.name = "dw";
    p.n = 1;
    p.k = p.c = p.groups = 32;
    p.r = p.s = 3;
    p.h = p.w = 16;
    p.stride = 2;

    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.threads = 4;
    const OptimizeOutput a = optimizeConv(p, i7_9700k(), o);
    const OptimizeOutput b = optimizeConv(p, i7_9700k(), o);
    ASSERT_FALSE(a.candidates.empty());
    // Tiles cannot exceed the per-group extents.
    const IntTileVec &l1 = a.candidates[0].config.tiles[LvlL1];
    EXPECT_LE(l1[DimK], p.kPerGroup());
    EXPECT_LE(l1[DimC], p.cPerGroup());
    EXPECT_EQ(a.candidates[0].config.str(), b.candidates[0].config.str());
    EXPECT_DOUBLE_EQ(a.candidates[0].predicted.total_seconds,
                     b.candidates[0].predicted.total_seconds);
}

// ---------------------------------------------------------------------
// Identity plumbing: cache keys, the journal, and the RPC protocol.

TEST(GroupedIdentity, CacheKeySeparatesGroupsAndBatch)
{
    const MachineSpec m = i7_9700k();
    const OptimizerOptions o;
    ConvProblem a = groupedProb(1);
    ConvProblem b = groupedProb(8);
    const CacheKey ka = CacheKey::make(a, m, o);
    const CacheKey kb = CacheKey::make(b, m, o);
    EXPECT_FALSE(ka == kb);
    EXPECT_NE(ka.hash(), kb.hash());

    ConvProblem c = groupedProb(1);
    c.n = 4;
    EXPECT_FALSE(CacheKey::make(c, m, o) == ka);
}

TEST(GroupedIdentity, JournalRoundTripsGroups)
{
    const MachineSpec m = i7_9700k();
    const OptimizerOptions o;
    const ConvProblem p = groupedProb(8);
    const CacheKey key = CacheKey::make(p, m, o);
    CachedSolution sol;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        sol.config.perm[sl] = Permutation::parse("kcrsnhw");
        sol.config.tiles[sl] = {1, 1, 1, 1, 1, 1, 1};
    }
    sol.predicted_seconds = 1.5;
    sol.perm_label = "L1:x";

    const std::string line = solutionToJsonLine(key, sol);
    EXPECT_NE(line.find("\"groups\":8"), std::string::npos) << line;
    CacheKey back;
    CachedSolution bsol;
    ASSERT_TRUE(solutionFromJsonLine(line, back, bsol));
    EXPECT_TRUE(back == key);
    EXPECT_EQ(back.problem.groups, 8);

    // Dense records stay byte-free of the field (old journals load
    // because absent reads as 1; new dense lines look like old ones).
    const ConvProblem d = groupedProb(1);
    const std::string dense =
        solutionToJsonLine(CacheKey::make(d, m, o), sol);
    EXPECT_EQ(dense.find("\"groups\""), std::string::npos) << dense;
    ASSERT_TRUE(solutionFromJsonLine(dense, back, bsol));
    EXPECT_EQ(back.problem.groups, 1);
}

TEST(GroupedIdentity, RpcSolveCarriesGroups)
{
    RpcRequest req;
    req.op = RpcOp::Solve;
    req.problem = groupedProb(8);
    const std::string line = requestToJsonLine(req);
    EXPECT_NE(line.find("\"groups\":8"), std::string::npos) << line;

    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(line, back, &err)) << err;
    EXPECT_EQ(back.problem.groups, 8);

    // Dense solves keep the pre-groups encoding.
    req.problem = groupedProb(1);
    EXPECT_EQ(requestToJsonLine(req).find("\"groups\""),
              std::string::npos);
}

TEST(GroupedIdentity, RpcSolveNetworkCarriesBatchAndInlineIr)
{
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    req.ir = parseCfgFile(dataPath("tiny.cfg"));
    req.has_ir = true;
    req.batch = 4;
    const std::string line = requestToJsonLine(req);
    EXPECT_NE(line.find("\"ir\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"batch\":4"), std::string::npos) << line;

    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(line, back, &err)) << err;
    ASSERT_TRUE(back.has_ir);
    EXPECT_EQ(back.batch, 4);
    ASSERT_EQ(back.ir.layers.size(), req.ir.layers.size());
    EXPECT_EQ(back.ir.layers[2].groups, 32);

    // Legacy name-only request: absent batch parses as 1.
    RpcRequest named;
    std::string perr;
    ASSERT_TRUE(requestFromJsonLine(
        "{\"v\":1,\"op\":\"solve_network\",\"net\":\"resnet18\"}",
        named, &perr))
        << perr;
    EXPECT_FALSE(named.has_ir);
    EXPECT_EQ(named.net, "resnet18");
    EXPECT_EQ(named.batch, 1);

    // "net" and "ir" are mutually exclusive.
    RpcRequest both;
    EXPECT_FALSE(requestFromJsonLine(
        "{\"v\":1,\"op\":\"solve_network\",\"net\":\"resnet18\","
        "\"ir\":{\"name\":\"x\",\"layers\":[]}}",
        both, &perr));
}

} // namespace
} // namespace mopt
