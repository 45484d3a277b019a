/**
 * @file
 * Correctness tests of the tiled executor against the naive reference:
 * the microkernel fast/fallback paths and each ISA's block kernel,
 * arbitrary sampled tilings (property test), strides, partial tiles,
 * and parallel execution on the shared executor pool.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/grid_sampler.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "conv/reference.hh"
#include "conv/workloads.hh"
#include "exec/conv_exec.hh"
#include "exec/loop_nest.hh"
#include "exec/measure.hh"
#include "exec/microkernel.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {
namespace {

/** Tolerance for float accumulation-order differences. */
constexpr double kTol = 2e-3;

void
expectMatchesReference(const ConvProblem &p, const ExecConfig &cfg,
                       int threads = 1, std::uint64_t seed = 5)
{
    Rng rng(seed);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);

    Tensor4 expected = makeOutput(p);
    referenceConv(p, in, ker, expected);

    Tensor4 got = makeOutput(p);
    const ExecStats st = runConv(p, in, ker, got, cfg, threads);
    EXPECT_GT(st.seconds, 0.0);
    EXPECT_LT(Tensor4::maxAbsDiff(expected, got), kTol)
        << p.summary() << "\n"
        << cfg.str();
}

/** True when the CPU reports both AVX2 and FMA. */
bool
cpuHasAvx2Fma()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

/** True when the CPU reports AVX-512F as well as AVX2 and FMA. */
bool
cpuHasAvx512()
{
#if defined(__x86_64__) || defined(__i386__)
    return cpuHasAvx2Fma() && __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

TEST(Microkernel, DispatchUsesAvx2FmaWhenCpuHasIt)
{
    // A build that never compiles a vector kernel (or a dispatcher that
    // never picks it) falls back to a narrower one silently; this
    // catches it by expecting the widest ISA the CPU supports. The ISA
    // is printed so a CI log shows which kernel this host exercised.
    std::printf("microkernel ISA exercised: %s\n", microkernelIsa());
    RecordProperty("microkernel_isa", microkernelIsa());
    EXPECT_STREQ(microkernelIsa(), cpuHasAvx512()    ? "avx512"
                                   : cpuHasAvx2Fma() ? "avx2-fma"
                                                     : "portable");
}

using BlockKernelFn = decltype(&detail::registerTilePortable);

/** One full-size block call: the problem's stride/dilation/groups and
 *  output channels per group, the block's width and first output
 *  channel, and the reduction range. */
struct BlockCase
{
    std::int64_t stride, dil, groups, kpg, wb, k0;
    std::int64_t c0, c1, r0, r1, s0, s1;
};

/** The problem a BlockCase's block sits in: its stride, dilation and
 *  groups, kpg output and 3 input channels per group, 3 x 3 taps. */
ConvProblem
blockProblem(const BlockCase &bc)
{
    ConvProblem p;
    p.name = "block";
    p.n = 2;
    p.k = bc.kpg * bc.groups;
    p.c = 3 * bc.groups;
    p.r = 3;
    p.s = 3;
    p.h = 3;
    p.w = 10;
    p.stride = static_cast<int>(bc.stride);
    p.dilation = static_cast<int>(bc.dil);
    p.groups = bc.groups;
    p.validate();
    return p;
}

/**
 * Property check of one block kernel against scalarTile semantics:
 * out is pre-filled with non-zero values inside the block (so the
 * read-modify-write accumulate is checked) and a canary everywhere
 * else, which must survive bit for bit (so no mask lane leaks). The
 * canary is -0.0f: a lane that leaks past the block adds a +0.0f
 * padding value, which still flips it to +0.0f.
 */
void
expectBlockKernelMatches(BlockKernelFn kernel, const BlockCase &bc,
                         std::uint64_t seed)
{
    constexpr float kCanary = -0.0f;
    const ConvProblem p = blockProblem(bc);

    Rng rng(seed);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    const PackedKernel pk(ker, MicroKernelShape::kVecLen);

    // The block sits in the last group, so c_off > 0 and, for grouped
    // problems, k0 is that group's first channel.
    const std::int64_t c_off = p.c - p.cPerGroup();
    const std::int64_t n = 1, h = 1, w0 = 3;
    const auto inBlock = [&](std::int64_t nn, std::int64_t k,
                             std::int64_t hh, std::int64_t w) {
        return nn == n && hh == h && k >= bc.k0 &&
               k < bc.k0 + MicroKernelShape::kKU && w >= w0 &&
               w < w0 + bc.wb;
    };

    Tensor4 out = makeOutput(p);
    out.fill(kCanary);
    Tensor4 expected = out;
    for (std::int64_t k = bc.k0; k < bc.k0 + MicroKernelShape::kKU; ++k) {
        for (std::int64_t wi = 0; wi < bc.wb; ++wi) {
            const float prior = static_cast<float>(rng.uniform01()) + 0.5f;
            float acc = 0.0f;
            for (std::int64_t c = bc.c0; c < bc.c1; ++c)
                for (std::int64_t r = bc.r0; r < bc.r1; ++r)
                    for (std::int64_t s = bc.s0; s < bc.s1; ++s)
                        acc += in.at(n, c_off + c,
                                     h * p.stride + r * p.dilation,
                                     (w0 + wi) * p.stride + s * p.dilation) *
                               ker.at(k, c, r, s);
            out.at(n, k, h, w0 + wi) = prior;
            expected.at(n, k, h, w0 + wi) = prior + acc;
        }
    }

    kernel(p, in, pk, out, n, h, w0, bc.wb, bc.k0, bc.c0, bc.c1, bc.r0,
           bc.r1, bc.s0, bc.s1, c_off);

    int wrong = 0, clobbered = 0;
    for (std::int64_t nn = 0; nn < p.n; ++nn)
        for (std::int64_t k = 0; k < p.k; ++k)
            for (std::int64_t hh = 0; hh < p.h; ++hh)
                for (std::int64_t w = 0; w < p.w; ++w) {
                    const float got = out.at(nn, k, hh, w);
                    if (!inBlock(nn, k, hh, w))
                        clobbered += std::bit_cast<std::uint32_t>(got) !=
                                     std::bit_cast<std::uint32_t>(kCanary);
                    else if (std::abs(got - expected.at(nn, k, hh, w)) >
                             kTol)
                        ++wrong;
                }
    EXPECT_EQ(wrong, 0) << "points of the block off by more than kTol";
    EXPECT_EQ(clobbered, 0) << "points outside the block written";
}

/**
 * Every wb in 1..6 x stride {1,2} x dilation {1,2}, over a dense and
 * a grouped problem, each with the full and a partial reduction, and
 * with the block on a packed row (k0 % 16 == 0) and, unless
 * @p row_aligned_only, straddling two rows (k0 % 16 == 8).
 */
void
expectBlockKernelProperty(BlockKernelFn kernel, bool row_aligned_only)
{
    std::uint64_t seed = 1000;
    for (std::int64_t groups : {1, 2})
        for (bool straddle : {false, true})
            for (bool partial : {false, true})
                for (std::int64_t stride : {1, 2})
                    for (std::int64_t dil : {1, 2})
                        for (std::int64_t wb = 1;
                             wb <= MicroKernelShape::kWU; ++wb) {
                            if (straddle && row_aligned_only)
                                continue;
                            // Dense: k0 = 16 or 8 of 32 channels.
                            // Grouped: the second group's first
                            // channel, 32 or 24.
                            const std::int64_t kpg = straddle ? 24 : 32;
                            const std::int64_t k0 =
                                groups == 1 ? (straddle ? 8 : 16) : kpg;
                            BlockCase bc{stride, dil, groups, kpg, wb, k0,
                                         0, 3, 0, 3, 0, 3};
                            if (partial) {
                                bc.c0 = 1;
                                bc.r0 = 1;
                                bc.s1 = 2;
                            }
                            SCOPED_TRACE(testing::Message()
                                         << "groups=" << groups
                                         << " k0=" << k0
                                         << " partial=" << partial
                                         << " stride=" << stride
                                         << " dil=" << dil << " wb=" << wb);
                            expectBlockKernelMatches(kernel, bc, ++seed);
                        }
}

TEST(Microkernel, PortableBlockKernelMatchesScalarSemantics)
{
    expectBlockKernelProperty(&detail::registerTilePortable, false);
}

TEST(Microkernel, Avx2FmaBlockKernelMatchesScalarSemantics)
{
    if (!cpuHasAvx2Fma())
        GTEST_SKIP() << "CPU lacks AVX2/FMA";
    expectBlockKernelProperty(&detail::registerTileAvx2Fma, false);
}

TEST(Microkernel, Avx512BlockKernelMatchesScalarSemantics)
{
    if (!cpuHasAvx512())
        GTEST_SKIP() << "CPU lacks AVX-512F (avx512f), so the avx512 "
                        "kernel is not exercised";
    expectBlockKernelProperty(&detail::registerTileAvx512, true);
}

/**
 * Seeded random blocks (wb 1..6, stride and dilation in {1, 2}, dense
 * and grouped, full and partial reductions, on a packed row or
 * straddling two): every FMA kernel the CPU supports, and the
 * dispatcher, give the same bits as one std::fma chain per point in
 * (c, r, s) order; the portable kernel gives those of a multiply-then-
 * add chain.
 */
TEST(Microkernel, KernelsAreBitIdenticalOnRandomBlocks)
{
    struct Kernel
    {
        const char *name;
        BlockKernelFn fn;
        bool fused, row_aligned_only;
    };
    std::vector<Kernel> kernels;
#if defined(__x86_64__) || defined(__i386__)
    kernels.push_back({"portable", &detail::registerTilePortable, false,
                       false});
#endif
    if (cpuHasAvx2Fma())
        kernels.push_back({"avx2-fma", &detail::registerTileAvx2Fma, true,
                           false});
    if (cpuHasAvx512())
        kernels.push_back({"avx512", &detail::registerTileAvx512, true,
                           true});
    if (kernels.empty())
        GTEST_SKIP() << "no kernel with a known rounding on this CPU";

    Rng rng(2024);
    int blocks = 0;
    for (int trial = 0; trial < 240; ++trial) {
        BlockCase bc{};
        bc.stride = rng.uniformInt(1, 2);
        bc.dil = rng.uniformInt(1, 2);
        bc.groups = rng.uniformInt(1, 3);
        bc.kpg = 8 * rng.uniformInt(2, 6);
        bc.wb = rng.uniformInt(1, MicroKernelShape::kWU);
        // An 8-aligned block inside the last group.
        const std::int64_t k_off = (bc.groups - 1) * bc.kpg;
        bc.k0 = k_off + 8 * rng.uniformInt(0, (bc.kpg - 16) / 8);
        const bool partial = rng.uniform01() < 0.5;
        bc.c0 = partial ? rng.uniformInt(0, 2) : 0;
        bc.c1 = partial ? rng.uniformInt(bc.c0 + 1, 3) : 3;
        bc.r0 = partial ? rng.uniformInt(0, 2) : 0;
        bc.r1 = partial ? rng.uniformInt(bc.r0 + 1, 3) : 3;
        bc.s0 = partial ? rng.uniformInt(0, 2) : 0;
        bc.s1 = partial ? rng.uniformInt(bc.s0 + 1, 3) : 3;
        const ConvProblem p = blockProblem(bc);
        Tensor4 in = makeInput(p), ker = makeKernel(p);
        in.fillRandom(rng);
        ker.fillRandom(rng);
        const PackedKernel pk(ker, MicroKernelShape::kVecLen);
        const std::int64_t c_off = p.c - p.cPerGroup();
        const std::int64_t n = rng.uniformInt(0, 1);
        const std::int64_t h = rng.uniformInt(0, p.h - 1);
        const std::int64_t w0 = rng.uniformInt(0, p.w - bc.wb);
        Tensor4 prior = makeOutput(p);
        prior.fillRandom(rng);

        // The two roundings, point by point in (c, r, s) order.
        Tensor4 want_fused = prior, want_unfused = prior;
        for (std::int64_t k = bc.k0; k < bc.k0 + MicroKernelShape::kKU;
             ++k)
            for (std::int64_t wi = 0; wi < bc.wb; ++wi) {
                float fused = 0.0f, unfused = 0.0f;
                for (std::int64_t c = bc.c0; c < bc.c1; ++c)
                    for (std::int64_t r = bc.r0; r < bc.r1; ++r)
                        for (std::int64_t s = bc.s0; s < bc.s1; ++s) {
                            const float x =
                                in.at(n, c_off + c,
                                      h * p.stride + r * p.dilation,
                                      (w0 + wi) * p.stride +
                                          s * p.dilation);
                            const float y = ker.at(k, c, r, s);
                            fused = std::fma(x, y, fused);
                            const float xy = x * y;
                            unfused = unfused + xy;
                        }
                want_fused.at(n, k, h, w0 + wi) += fused;
                want_unfused.at(n, k, h, w0 + wi) += unfused;
            }

        const auto expectBits = [&](const Tensor4 &got, const Tensor4 &want,
                                    const char *name) {
            std::int64_t mismatches = 0;
            for (std::int64_t i = 0; i < got.size(); ++i)
                mismatches += std::bit_cast<std::uint32_t>(got.data()[i]) !=
                              std::bit_cast<std::uint32_t>(want.data()[i]);
            EXPECT_EQ(mismatches, 0)
                << name << " trial=" << trial << " groups=" << bc.groups
                << " kpg=" << bc.kpg << " k0=" << bc.k0 << " wb=" << bc.wb
                << " stride=" << bc.stride << " dil=" << bc.dil
                << " c=[" << bc.c0 << "," << bc.c1 << ") r=[" << bc.r0
                << "," << bc.r1 << ") s=[" << bc.s0 << "," << bc.s1 << ")";
        };
        const bool row_aligned = bc.k0 % MicroKernelShape::kVecLen == 0;
        for (const Kernel &kern : kernels) {
            if (kern.row_aligned_only && !row_aligned)
                continue;
            Tensor4 out = prior;
            kern.fn(p, in, pk, out, n, h, w0, bc.wb, bc.k0, bc.c0, bc.c1,
                    bc.r0, bc.r1, bc.s0, bc.s1, c_off);
            expectBits(out, kern.fused ? want_fused : want_unfused,
                       kern.name);
            ++blocks;
        }
        if (cpuHasAvx2Fma()) {
            Tensor4 out = prior;
            computeRegisterTile(p, in, pk, out, n, h, w0, bc.wb, bc.k0,
                                MicroKernelShape::kKU, bc.c0, bc.c1, bc.r0,
                                bc.r1, bc.s0, bc.s1, c_off);
            expectBits(out, want_fused, "computeRegisterTile");
        }
    }
    EXPECT_GT(blocks, 240);
}

TEST(LoopNest, WalkerCoversRegionExactlyOnce)
{
    ConvProblem p;
    p.n = 2;
    p.k = 5;
    p.c = 3;
    p.r = 1;
    p.s = 1;
    p.h = 4;
    p.w = 7;
    ExecConfig cfg = defaultConfig(p);
    cfg.tiles[LvlL3] = {1, 2, 2, 1, 1, 3, 4}; // partial tiles everywhere

    std::vector<int> seen(static_cast<std::size_t>(
                              p.n * p.k * p.c * p.h * p.w),
                          0);
    walkTilesAtLevel(cfg, LvlL3, fullRegion(p), [&](const TileBounds &t) {
        for (std::int64_t n = t.lo[DimN]; n < t.hi[DimN]; ++n)
            for (std::int64_t k = t.lo[DimK]; k < t.hi[DimK]; ++k)
                for (std::int64_t c = t.lo[DimC]; c < t.hi[DimC]; ++c)
                    for (std::int64_t h = t.lo[DimH]; h < t.hi[DimH];
                         ++h)
                        for (std::int64_t w = t.lo[DimW];
                             w < t.hi[DimW]; ++w)
                            seen[static_cast<std::size_t>(
                                ((((n * p.k) + k) * p.c + c) * p.h + h) *
                                    p.w +
                                w)]++;
    });
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(LoopNest, SplitRegionPartitionsExactly)
{
    TileBounds region;
    region.lo = {0, 0, 0, 0, 0, 0, 0};
    region.hi = {1, 64, 8, 3, 3, 14, 28};
    const IntTileVec par{1, 4, 1, 1, 1, 2, 1};
    const auto chunks = splitRegion(region, par);
    ASSERT_EQ(chunks.size(), 8u);
    std::int64_t total = 0;
    for (const auto &c : chunks) {
        std::int64_t vol = 1;
        for (int d = 0; d < NumDims; ++d)
            vol *= c.extent(static_cast<Dim>(d));
        total += vol;
    }
    std::int64_t expect = 1;
    for (int d = 0; d < NumDims; ++d)
        expect *= region.extent(static_cast<Dim>(d));
    EXPECT_EQ(total, expect);
}

TEST(LoopNest, SplitClampsToExtent)
{
    TileBounds region;
    region.lo = {0, 0, 0, 0, 0, 0, 0};
    region.hi = {1, 2, 1, 1, 1, 1, 1};
    const IntTileVec par{1, 8, 1, 1, 1, 1, 1}; // only 2 fit
    EXPECT_EQ(splitRegion(region, par).size(), 2u);
}

TEST(ConvExec, DefaultConfigMatchesReference)
{
    ConvProblem p;
    p.name = "dflt";
    p.n = 2;
    p.k = 20; // forces a scalar edge block (20 = 16 + 4)
    p.c = 5;
    p.r = 3;
    p.s = 3;
    p.h = 9;
    p.w = 11;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, GroupedDefaultConfigNestsAndMatchesReference)
{
    // The default caps its k and c tiles with the per-group extents,
    // so the register, L1, L2 and L3 tiles nest for grouped and
    // depthwise layers as they do for dense ones.
    ConvProblem grouped;
    grouped.name = "dflt_g2";
    grouped.n = 1;
    grouped.k = 8;
    grouped.c = 4;
    grouped.groups = 2;
    grouped.r = grouped.s = 3;
    grouped.h = grouped.w = 7;
    ConvProblem depthwise = grouped;
    depthwise.name = "dflt_dw";
    depthwise.k = depthwise.c = depthwise.groups = 8;
    for (const ConvProblem &p : {grouped, depthwise}) {
        const ExecConfig cfg = defaultConfig(p);
        const IntTileVec extents = problemExtents(p);
        for (int l = LvlReg; l < LvlL3; ++l)
            for (int d = 0; d < NumDims; ++d) {
                const auto sl = static_cast<std::size_t>(l);
                const auto sd = static_cast<std::size_t>(d);
                EXPECT_LE(cfg.tiles[sl][sd], cfg.tiles[sl + 1][sd])
                    << p.name << " " << memLevelName(l) << " "
                    << dimName(static_cast<Dim>(d));
            }
        EXPECT_EQ(cfg.tiles[LvlL3], extents) << p.name;
        expectMatchesReference(p, cfg);
    }
}

TEST(ConvExec, StrideTwoMatchesReference)
{
    ConvProblem p;
    p.name = "s2";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    p.stride = 2;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, OneByOneKernelMatchesReference)
{
    ConvProblem p;
    p.name = "1x1";
    p.n = 1;
    p.k = 32;
    p.c = 16;
    p.r = 1;
    p.s = 1;
    p.h = 10;
    p.w = 10;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, ParallelMatchesSequential)
{
    ConvProblem p;
    p.name = "par";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    ExecConfig cfg = defaultConfig(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 1};

    Rng rng(6);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    Tensor4 seq = makeOutput(p), par = makeOutput(p);
    runConv(p, in, ker, seq, cfg, 1);
    runConv(p, in, ker, par, cfg, 4);
    // Same per-element accumulation order: results are bit-identical.
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(seq, par), 0.0);
}

/** Property: arbitrary sampled tilings compute the same result. */
class SampledConfigCorrectness : public ::testing::TestWithParam<int>
{
};

TEST_P(SampledConfigCorrectness, MatchesReference)
{
    Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
    ConvProblem p;
    p.name = "prop";
    p.n = static_cast<std::int64_t>(rng.uniformInt(1, 2));
    p.k = rng.uniformInt(3, 40);
    p.c = rng.uniformInt(1, 12);
    p.r = rng.uniformInt(1, 3);
    p.s = rng.uniformInt(1, 3);
    p.h = rng.uniformInt(2, 14);
    p.w = rng.uniformInt(2, 14);
    p.stride = rng.uniform01() < 0.3 ? 2 : 1;

    const MachineSpec m = tinyTestMachine();
    SamplerOptions sopts;
    sopts.fit_capacity = false; // exercise wild tilings too
    const ExecConfig cfg = sampleConfig(p, m, rng, sopts);
    expectMatchesReference(p, cfg, 1,
                           600 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomTilings, SampledConfigCorrectness,
                         ::testing::Range(0, 16));

/** Downscaled Table-1 operators end to end. */
class WorkloadCorrectness
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadCorrectness, DownscaledMatchesReference)
{
    const ConvProblem p = workloadByName(GetParam()).downscaled(14, 32);
    Rng rng(9);
    const ExecConfig cfg =
        sampleConfig(p, tinyTestMachine(), rng, SamplerOptions());
    expectMatchesReference(p, cfg);
}

INSTANTIATE_TEST_SUITE_P(Table1, WorkloadCorrectness,
                         ::testing::Values("Y0", "Y5", "Y12", "R1", "R3",
                                           "R10", "M1", "M2", "M9"));

/** Grouped convolution through the lifted executor: every group runs
 *  the same tiled loop nest over its own k/c slice. */
class GroupedCorrectness : public ::testing::TestWithParam<int>
{
};

TEST_P(GroupedCorrectness, MatchesReference)
{
    ConvProblem p;
    p.name = "grp";
    p.n = 2;
    p.k = 24; // 24/8 = 3 per group: forces the scalar edge path
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 9;
    p.w = 9;
    p.groups = GetParam();
    p.validate();
    expectMatchesReference(p, defaultConfig(p));
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupedCorrectness,
                         ::testing::Values(1, 2, 4, 8));

TEST(ConvExec, DepthwiseMatchesReference)
{
    ConvProblem p;
    p.name = "dw";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 10;
    p.w = 10;
    p.groups = 16; // one channel per group
    p.validate();
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, GroupedSampledTilingsMatchReference)
{
    // Wild tilings whose K/C tiles don't divide the per-group extents:
    // the walker must clamp every tile inside its group slice.
    ConvProblem p;
    p.name = "grpprop";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    p.groups = 4;
    p.validate();
    for (int i = 0; i < 4; ++i) {
        Rng rng(900 + static_cast<std::uint64_t>(i));
        SamplerOptions sopts;
        sopts.fit_capacity = false;
        const ExecConfig cfg =
            sampleConfig(p, tinyTestMachine(), rng, sopts);
        expectMatchesReference(p, cfg, 1,
                               950 + static_cast<std::uint64_t>(i));
    }
}

TEST(ConvExec, GroupedParallelMatchesSequential)
{
    ConvProblem p;
    p.name = "grppar";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    p.groups = 2;
    p.validate();
    ExecConfig cfg = defaultConfig(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 1};

    Rng rng(7);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    Tensor4 seq = makeOutput(p), par = makeOutput(p);
    runConv(p, in, ker, seq, cfg, 1);
    runConv(p, in, ker, par, cfg, 4);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(seq, par), 0.0);
}

TEST(Measure, ReportsStatistics)
{
    ConvProblem p;
    p.name = "meas";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    MeasureOptions opts;
    opts.reps = 3;
    opts.warmups = 1;
    opts.flush_bytes = 1 << 20;
    const Measurement m = measureConfig(p, defaultConfig(p), opts);
    EXPECT_EQ(m.seconds.size(), 3u);
    EXPECT_GT(m.mean_gflops, 0.0);
    EXPECT_GE(m.ci95_gflops, 0.0);
    EXPECT_GT(m.mean_seconds, 0.0);
}

TEST(Measure, SampleCountIsDeterministic)
{
    // The measurement harness must be deterministic in *structure*
    // (sample counts, ordering) even though times vary run to run.
    ConvProblem p;
    p.name = "det";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    MeasureOptions opts;
    opts.reps = 4;
    opts.warmups = 2;
    const Measurement a = measureConfig(p, defaultConfig(p), opts);
    const Measurement b = measureConfig(p, defaultConfig(p), opts);
    ASSERT_EQ(a.seconds.size(), 4u);
    ASSERT_EQ(b.seconds.size(), 4u);
    for (double s : a.seconds)
        EXPECT_GT(s, 0.0);
}

TEST(Measure, TimerIsMonotone)
{
    Timer t;
    double prev = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double now = t.seconds();
        EXPECT_GE(now, prev);
        prev = now;
    }
    EXPECT_GE(prev, 0.0);
}

TEST(Measure, QuickMeasureIsPositive)
{
    ConvProblem p;
    p.name = "quick";
    p.n = 1;
    p.k = 16;
    p.c = 2;
    p.r = 1;
    p.s = 1;
    p.h = 6;
    p.w = 6;
    EXPECT_GT(quickMeasureSeconds(p, defaultConfig(p)), 0.0);
}

/** MOpt's chosen configuration also computes correctly. */
TEST(ConvExec, OptimizerOutputMatchesReference)
{
    ConvProblem p;
    p.name = "optx";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = true;
    o.threads = 4;
    const OptimizeOutput out = optimizeConv(p, i7_9700k(), o);
    ASSERT_FALSE(out.candidates.empty());
    expectMatchesReference(p, out.candidates.front().config, 4);
}

/** True when @p a and @p b hold the same floats bit for bit. */
bool
sameBits(const Tensor4 &a, const Tensor4 &b)
{
    if (!Tensor4::sameShape(a, b))
        return false;
    for (std::int64_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint32_t>(a.data()[i]) !=
            std::bit_cast<std::uint32_t>(b.data()[i]))
            return false;
    return true;
}

/**
 * An i9 plan's 32-channel register tile (2 x 16 lanes) runs as two
 * 16-channel vector blocks: it matches the reference, and bit for bit
 * the same config with a 16-channel register tile.
 */
TEST(ConvExec, I9PlanRunsWideRegisterTilesAsSixteenChannelBlocks)
{
    ConvProblem p;
    p.name = "i9";
    p.n = 1;
    p.k = 64;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 14;
    p.w = 14;
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.threads = 4;
    const OptimizeOutput out = optimizeConv(p, i9_10980xe(), o);
    ASSERT_FALSE(out.candidates.empty());
    const ExecConfig &cfg = out.candidates.front().config;
    ASSERT_EQ(cfg.tiles[LvlReg][DimK], 32);
    // The L1 tile holds whole 32-channel tiles, so full ones do run.
    ASSERT_EQ(cfg.tiles[LvlL1][DimK] % 32, 0) << cfg.str();
    ExecConfig narrow = cfg;
    narrow.tiles[LvlReg][DimK] = 16;

    Rng rng(17);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    Tensor4 expected = makeOutput(p), wide = makeOutput(p),
            sixteen = makeOutput(p);
    referenceConv(p, in, ker, expected);
    runConv(p, in, ker, wide, cfg, 1);
    runConv(p, in, ker, sixteen, narrow, 1);
    EXPECT_LT(Tensor4::maxAbsDiff(expected, wide), kTol) << cfg.str();
    EXPECT_TRUE(sameBits(wide, sixteen)) << cfg.str();
}

/** Dense, K-tail, grouped and 1x1 problems, each with a parallel
 *  split along k and w (so chunk edges cut register blocks). */
std::vector<std::pair<ConvProblem, ExecConfig>>
widthCases()
{
    std::vector<std::pair<ConvProblem, ExecConfig>> cases;
    const auto add = [&](std::int64_t k, std::int64_t c, std::int64_t rs,
                         std::int64_t groups, std::int64_t hw) {
        ConvProblem p;
        p.name = "width";
        p.n = 1;
        p.k = k;
        p.c = c;
        p.r = p.s = rs;
        p.h = p.w = hw;
        p.groups = groups;
        p.validate();
        ExecConfig cfg = defaultConfig(p);
        cfg.par = {1, 2, 1, 1, 1, 2, 1};
        cases.emplace_back(p, cfg);
    };
    add(32, 8, 3, 1, 12);
    add(13, 5, 3, 1, 9);
    add(48, 12, 3, 3, 10);
    add(100, 16, 1, 1, 7);
    add(16, 16, 3, 16, 8);
    return cases;
}

TEST(ConvExec, OutputIsBitIdenticalAtEveryWidthAndAcrossCalls)
{
    for (const auto &[p, cfg] : widthCases()) {
        Rng rng(31);
        Tensor4 in = makeInput(p), ker = makeKernel(p);
        in.fillRandom(rng);
        ker.fillRandom(rng);
        Tensor4 base = makeOutput(p);
        runConv(p, in, ker, base, cfg, 1);
        Tensor4 expected = makeOutput(p);
        referenceConv(p, in, ker, expected);
        EXPECT_LT(Tensor4::maxAbsDiff(expected, base), kTol)
            << p.summary();
        // Repeated calls reuse the one shared pool; each must repeat
        // the width-1 bits exactly.
        for (int rep = 0; rep < 3; ++rep)
            for (int width : {1, 2, 4, 0}) {
                Tensor4 got = makeOutput(p);
                got.fill(7.0f); // runConv must overwrite, not accumulate
                runConv(p, in, ker, got, cfg, width);
                EXPECT_TRUE(sameBits(base, got))
                    << p.summary() << " width " << width << " rep "
                    << rep;
            }
    }
}

TEST(ConvExec, ConcurrentCallersShareThePoolCorrectly)
{
    // Two threads drive runConv on the process-wide pool at once; their
    // parallel regions interleave in its queue. Both must compute the
    // reference result (the TSan leg checks the sharing for races).
    const auto cases = widthCases();
    std::vector<Tensor4> ins, kers, outs, refs;
    for (std::size_t i = 0; i < 2; ++i) {
        const ConvProblem &p = cases[i * 2].first;
        Rng rng(70 + i);
        ins.push_back(makeInput(p));
        kers.push_back(makeKernel(p));
        ins.back().fillRandom(rng);
        kers.back().fillRandom(rng);
        outs.push_back(makeOutput(p));
        refs.push_back(makeOutput(p));
        referenceConv(p, ins.back(), kers.back(), refs.back());
    }
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < 2; ++i)
        callers.emplace_back([&, i] {
            const auto &[p, cfg] = cases[i * 2];
            for (int rep = 0; rep < 5; ++rep)
                runConv(p, ins[i], kers[i], outs[i], cfg, 4);
        });
    for (std::thread &t : callers)
        t.join();
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_LT(Tensor4::maxAbsDiff(refs[i], outs[i]), kTol)
            << cases[i * 2].first.summary();
}

TEST(ConvExec, SharedPoolWidthBoundsTheThreadsUsed)
{
    // runConv's `threads` is the participant count, caller included: a
    // region on the shared pool at width t runs on at most t threads.
    for (std::size_t width : {1u, 2u, 4u}) {
        ThreadPool::SubWidth pool = globalPool().subWidth(width);
        std::mutex mu;
        std::set<std::thread::id> ids;
        pool.parallelFor(64, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
        EXPECT_LE(ids.size(), width);
    }
}

} // namespace
} // namespace mopt
