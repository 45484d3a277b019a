/**
 * @file
 * Allocation guard: with a counting global operator new, the checks
 * and model evaluations that run on every request and every solver
 * step must allocate nothing when they pass, and decoding a warm
 * response allocates a pinned number of times. A failing check still
 * builds its full message, naming the shape or layer at fault.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/logging.hh"
#include "conv/problem.hh"
#include "frontend/network_def.hh"
#include "machine/machine.hh"
#include "model/eval_context.hh"
#include "model/tile_config.hh"
#include "optimizer/conv_nlp.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/protocol.hh"
#include "support/golden_records.hh"

namespace {

std::atomic<long> g_allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mopt {
namespace {

/** Heap allocations made by @p f. */
template <typename F>
long
allocationsOf(F &&f)
{
    const long before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

ConvProblem
validProblem()
{
    ConvProblem p;
    p.name = "a layer name longer than the small-string buffer";
    p.n = 2;
    p.k = 64;
    p.c = 32;
    p.r = p.s = 3;
    p.h = p.w = 28;
    p.groups = 4;
    return p;
}

TEST(Allocation, CounterSeesHeapAllocations)
{
    // The guard is only as good as its counter.
    EXPECT_GE(allocationsOf([] {
                  std::vector<int> v(1000);
                  EXPECT_EQ(v.size(), 1000u);
              }),
              1);
}

TEST(Allocation, PassingChecksAllocateNothing)
{
    EXPECT_EQ(allocationsOf([] {
                  checkUser(true, "a literal message well past fifteen "
                                  "characters, the small-string limit");
                  checkInvariant(true, "another literal message that "
                                       "would not fit in place");
              }),
              0);
}

TEST(Allocation, ValidProblemValidatesWithoutAllocating)
{
    const ConvProblem p = validProblem();
    EXPECT_EQ(allocationsOf([&] { p.validate(); }), 0);
}

TEST(Allocation, PermutationParseAllocatesNothing)
{
    Permutation perm;
    EXPECT_EQ(allocationsOf([&] { perm = Permutation::parse("nkhwcrs"); }),
              0);
    EXPECT_EQ(perm.str(), "nkhwcrs");
}

TEST(Allocation, WarmConvNlpAugLagValueGradAllocatesNothing)
{
    const ConvProblem p = validProblem();
    const MachineSpec m = i7_9700k();
    const Permutation outer = Permutation::parse("nkhwcrs");
    const TileVec reg = toTileVec(microkernelTiles(p, m));
    const IntTileVec par = {1, 2, 1, 1, 1, 1, 1};
    const EvalContext ctx(p, m, {microkernelPermutation(), outer, outer,
                                 outer},
                          reg, par, true);
    const IntTileVec extents = problemExtents(p);
    std::vector<double> lo(ConvNlp::kNumVars), hi(ConvNlp::kNumVars);
    std::vector<double> x(ConvNlp::kNumVars);
    for (int l = 0; l < 3; ++l)
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            const auto j = static_cast<std::size_t>(l * NumDims + d);
            lo[j] = std::log(reg[sd]);
            hi[j] = std::log(static_cast<double>(extents[sd]));
            // Nested interior point: L1 <= L2 <= L3.
            x[j] = lo[j] + (hi[j] - lo[j]) * (0.3 + 0.2 * l);
        }
    const ConvNlp nlp(ctx, LvlL2, lo, hi);
    std::vector<double> g(ConvNlp::kNumCons), grad(ConvNlp::kNumVars);
    // Every row active, so every level gradient and capacity row is
    // computed.
    const std::vector<double> lambda(ConvNlp::kNumCons, 1e3);

    // The first call may set up this thread's model scratch; the
    // second moves one L1 variable, so the L1 and register levels miss
    // the per-level memo and L2 and L3 hit it.
    const double f0 = nlp.augLagValueGrad(x, lambda, 10.0, g, grad);
    std::size_t moved = 0;
    while (moved < x.size() && lo[moved] == hi[moved])
        ++moved;
    ASSERT_LT(moved, x.size());
    x[moved] = lo[moved] + 0.9 * (x[moved] - lo[moved]);
    double f1 = 0;
    EXPECT_EQ(allocationsOf([&] {
                  f1 = nlp.augLagValueGrad(x, lambda, 10.0, g, grad);
              }),
              0);
    EXPECT_NE(f0, f1);
    EXPECT_EQ(allocationsOf([&] {
                  f1 = nlp.augLagValueGrad(x, lambda, 10.0, g, grad);
              }),
              0);
    EXPECT_TRUE(std::isfinite(f1));
}

TEST(Allocation, WarmResponseDecodeAllocationsArePinned)
{
    // The golden solve_network response (a plan text and two layers)
    // decoded into a reused response allocates four times: the
    // reader's token and name tables, the plan string and the layer
    // vector. The labels fit in place, and nothing is built per value.
    const std::string line = responseToJsonLine(goldenNetworkResponse());
    RpcResponse out;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, out, &err)) << err;
    bool ok = false;
    const long n = allocationsOf(
        [&] { ok = responseFromJsonLine(line, out, &err); });
    ASSERT_TRUE(ok);
    EXPECT_EQ(n, 4);
}

TEST(Allocation, FailureMessagesNameTheShapeAndLayer)
{
    ConvProblem bad = validProblem();
    bad.name = "odd";
    bad.c = 30; // 4 groups do not divide 30 channels.
    try {
        bad.validate();
        FAIL() << "validate accepted groups=4 with C=30";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "ConvProblem: groups must divide both K and C (odd: "
                     "N=2 K=64 C=30 H=28 W=28 R=3 S=3 stride=1 "
                     "groups=4)");
    }

    NetworkDef net("tiny-net", 3, 4, 4);
    net.conv("too-wide", 8, 7);
    net.layers.back().pad = 0;
    try {
        net.lower();
        FAIL() << "lower accepted a 7x7 kernel over a 4x4 input";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "layer too-wide: kernel (size 7, dilation 1) "
                               "does not fit the padded 4x4 input");
    }

    net.batch = 0;
    try {
        net.lower();
        FAIL() << "lower accepted batch 0";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "network tiny-net: batch must be >= 1");
    }
}

} // namespace
} // namespace mopt
