/**
 * @file
 * Sec. 6 microkernel benchmark (google-benchmark): throughput of the
 * outer-product register-tiled kernel on an L1-resident tile, its
 * scalar fallback, and the naive reference loop. The fast path should
 * approach the core's FMA peak; Little's-law sizing (6 x 16 block) is
 * what makes that possible. The "microkernel_isa" context line names
 * the kernel the dispatcher chose (avx2-fma or portable).
 *
 * Two families of rows split the block's two phases: one row per
 * block width wb on a long (144-term) reduction, where the FMA loop
 * dominates, and short-reduction rows shaped like resnet18's planned
 * L1 tiles (c*r*s = 4 and 28 terms), where the write-back dominates.
 * BM_ParallelForRoundTrip times one empty SubWidth::parallelFor
 * region, the executor's per-L3-tile fork and join.
 *
 * These rows fit the cost model's overhead constants (machine.cc):
 * MachineSpec::t_call is the intercept of time per block against
 * reduction length through the ShortReduction rows and the
 * BM_MicrokernelWidth/6 row (a 6-wide block does 192 flops per
 * reduction term), and MachineSpec::t_sync is the round-trip row's
 * time per iteration.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "exec/measure.hh"
#include "exec/microkernel.hh"
#include "tensor/packing.hh"

namespace {

using namespace mopt;

ConvProblem
l1Problem()
{
    // An L1-resident working set: 16 x 16 x 3 x 3 kernel on 12 x 12.
    ConvProblem p;
    p.name = "ukernel";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    return p;
}

struct Fixture
{
    ConvProblem p;
    Tensor4 in, ker, out;
    PackedKernel pk;

    explicit Fixture(const ConvProblem &prob = l1Problem())
        : p(prob), in(makeInput(p)), ker(makeKernel(p)),
          out(makeOutput(p)),
          pk([this] {
              Rng rng(1);
              in.fillRandom(rng);
              ker.fillRandom(rng);
              return PackedKernel(ker, MicroKernelShape::kVecLen);
          }())
    {
    }
};

void
BM_MicrokernelFastPath(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        f.out.fill(0.0f);
        for (std::int64_t h = 0; h < f.p.h; ++h)
            for (std::int64_t w = 0; w < f.p.w; w += 6)
                computeRegisterTile(
                    f.p, f.in, f.pk, f.out, 0, h, w,
                    std::min<std::int64_t>(6, f.p.w - w), 0, 16, 0,
                    f.p.c, 0, f.p.r, 0, f.p.s);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelFastPath);

/**
 * Run every full wb-wide register block of @p f (output channels
 * 0..16, the whole c*r*s reduction) once; returns the flops done.
 */
double
runFullBlocks(Fixture &f, std::int64_t wb)
{
    std::int64_t blocks = 0;
    for (std::int64_t h = 0; h < f.p.h; ++h)
        for (std::int64_t w = 0; w + wb <= f.p.w; w += wb, ++blocks)
            computeRegisterTile(f.p, f.in, f.pk, f.out, 0, h, w, wb, 0,
                                MicroKernelShape::kKU, 0, f.p.c, 0, f.p.r,
                                0, f.p.s);
    return 2.0 * static_cast<double>(blocks * MicroKernelShape::kKU * wb *
                                     f.p.c * f.p.r * f.p.s);
}

/** One row per block width: the FMA loop of the templated kernel. */
void
BM_MicrokernelWidth(benchmark::State &state)
{
    Fixture f;
    const std::int64_t wb = state.range(0);
    double flops = 0.0;
    for (auto _ : state) {
        flops += runFullBlocks(f, wb);
        benchmark::DoNotOptimize(f.out.data());
        benchmark::ClobberMemory();
    }
    state.counters["GFLOPS"] =
        benchmark::Counter(flops / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelWidth)->DenseRange(1, MicroKernelShape::kWU);

/**
 * Short reductions shaped like resnet18's planned L1 tiles (c=4 r=s=1
 * and c=14 r=2 s=1): a block does 4 or 28 FMA steps, then writes back
 * 16 x 6 points, so the write-back is a large share of the time.
 */
void
BM_MicrokernelShortReduction(benchmark::State &state)
{
    ConvProblem p = l1Problem();
    p.c = state.range(0);
    p.r = state.range(1);
    p.s = state.range(2);
    Fixture f(p);
    double flops = 0.0;
    for (auto _ : state) {
        flops += runFullBlocks(f, MicroKernelShape::kWU);
        benchmark::DoNotOptimize(f.out.data());
        benchmark::ClobberMemory();
    }
    state.counters["GFLOPS"] =
        benchmark::Counter(flops / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelShortReduction)
    ->ArgNames({"c", "r", "s"})
    ->Args({4, 1, 1})
    ->Args({14, 2, 1});

/**
 * One parallelFor region over 8 empty chunks on the shared
 * pool at width hardware_concurrency: the fork and join runConv pays
 * once per L3 tile.
 */
void
BM_ParallelForRoundTrip(benchmark::State &state)
{
    ThreadPool::SubWidth pool = globalPool().subWidth(
        std::max(1u, std::thread::hardware_concurrency()));
    for (auto _ : state)
        pool.parallelFor(8, [](std::size_t i) {
            benchmark::DoNotOptimize(i);
        });
}
BENCHMARK(BM_ParallelForRoundTrip)->UseRealTime();

void
BM_MicrokernelScalarFallback(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        f.out.fill(0.0f);
        for (std::int64_t h = 0; h < f.p.h; ++h)
            for (std::int64_t w = 0; w < f.p.w; w += 6)
                // kb = 15 forces the scalar path.
                for (std::int64_t k = 0; k < f.p.k; k += 15)
                    computeRegisterTile(
                        f.p, f.in, f.pk, f.out, 0, h, w,
                        std::min<std::int64_t>(6, f.p.w - w), k,
                        std::min<std::int64_t>(15, f.p.k - k), 0, f.p.c,
                        0, f.p.r, 0, f.p.s);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelScalarFallback);

void
BM_NaiveReference(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        referenceConv(f.p, f.in, f.ker, f.out);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NaiveReference);

void
BM_TiledExecutorEndToEnd(benchmark::State &state)
{
    Fixture f;
    const ExecConfig cfg = defaultConfig(f.p);
    for (auto _ : state) {
        runConv(f.p, f.in, f.ker, f.out, cfg, 1);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TiledExecutorEndToEnd);

/**
 * Parallel kernel packing as runConv does it, on the shared pool:
 * args are K = C (3x3 kernel) and the pool width (1 or
 * hardware_concurrency).
 */
void
BM_PackKernel(benchmark::State &state)
{
    const std::int64_t kc = state.range(0);
    Tensor4 ker(kc, kc, 3, 3);
    Rng rng(1);
    ker.fillRandom(rng);
    ThreadPool::SubWidth pool =
        globalPool().subWidth(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        PackedKernel pk(ker, MicroKernelShape::kVecLen, pool);
        benchmark::DoNotOptimize(pk.lanes(0, 0, 0, 0));
        benchmark::ClobberMemory();
    }
    state.counters["GB/s"] = benchmark::Counter(
        static_cast<double>(ker.size()) * sizeof(float) *
            static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackKernel)
    ->ArgNames({"kc", "width"})
    ->ArgsProduct({{64, 512},
                   {1, static_cast<std::int64_t>(std::max(
                           1u, std::thread::hardware_concurrency()))}})
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::AddCustomContext("microkernel_isa", microkernelIsa());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
