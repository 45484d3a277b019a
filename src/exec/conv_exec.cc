#include "exec/conv_exec.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "exec/loop_nest.hh"
#include "exec/microkernel.hh"
#include "tensor/packing.hh"

namespace mopt {

namespace {

/**
 * Execute every register tile of one L2-and-inward region. The walkers
 * iterate the *per-group* iteration space (problemExtents is per
 * group), so the group's channel offsets relocate the local k into the
 * global output/kernel axis and the local c into the global input
 * axis. Dense convs run with both offsets 0.
 */
void
runRegion(const ConvProblem &p, const Tensor4 &in, const PackedKernel &pk,
          Tensor4 &out, const ExecConfig &cfg, const TileBounds &region,
          std::int64_t k_off, std::int64_t c_off)
{
    walkTilesAtLevel(cfg, LvlL2, region, [&](const TileBounds &l2) {
        walkTilesAtLevel(cfg, LvlL1, l2, [&](const TileBounds &l1) {
            walkRegisterTiles(
                cfg, l1,
                [&](std::int64_t n, std::int64_t h, std::int64_t w0,
                    std::int64_t wb, std::int64_t k0, std::int64_t kb) {
                    computeRegisterTile(p, in, pk, out, n, h, w0, wb,
                                        k_off + k0, kb, l1.lo[DimC],
                                        l1.hi[DimC], l1.lo[DimR],
                                        l1.hi[DimR], l1.lo[DimS],
                                        l1.hi[DimS], c_off);
                });
        });
    });
}

} // namespace

ExecStats
runConv(const ConvProblem &p, const Tensor4 &in, const Tensor4 &ker,
        Tensor4 &out, const ExecConfig &cfg, int threads)
{
    checkUser(out.dim(0) == p.n && out.dim(1) == p.k && out.dim(2) == p.h &&
                  out.dim(3) == p.w,
              "runConv: output shape mismatch");

    Timer total;
    std::int64_t want = 1;
    for (std::int64_t f : cfg.par)
        want *= f;
    ThreadPool::SubWidth pool = globalPool().subWidth(
        static_cast<std::size_t>(threads > 0 ? threads : want));
    out.fill(0.0f);

    Timer pack_timer;
    const PackedKernel pk(ker, MicroKernelShape::kVecLen, pool);
    const double pack_seconds = pack_timer.seconds();

    // The group index is the implicit outermost loop (problem.hh): the
    // walkers below cover one group's [0, k/G) x [0, c/G) channel
    // space, and the per-group offsets place it in the global tensors.
    const TileBounds full = fullRegion(p);
    for (std::int64_t g = 0; g < p.groups; ++g) {
        const std::int64_t k_off = g * p.kPerGroup();
        const std::int64_t c_off = g * p.cPerGroup();
        walkTilesAtLevel(cfg, LvlL3, full, [&](const TileBounds &l3) {
            // Sec. 7: parallelize within the L3 tile; chunks along
            // non-reduction dims write disjoint output regions, so no
            // synchronization is needed, and each output point sums
            // its terms in the same order at any pool width.
            const std::vector<TileBounds> chunks = splitRegion(l3, cfg.par);
            pool.parallelFor(chunks.size(), [&](std::size_t i) {
                runRegion(p, in, pk, out, cfg, chunks[i], k_off, c_off);
            });
        });
    }

    ExecStats stats;
    stats.seconds = total.seconds();
    stats.pack_seconds = pack_seconds;
    stats.gflops = p.flops() / stats.seconds / 1e9;
    return stats;
}

ExecConfig
defaultConfig(const ConvProblem &p)
{
    const IntTileVec extents = problemExtents(p);
    ExecConfig cfg;
    // Every cap is a per-group extent (problemExtents), like the L2
    // and L3 tiles, so the tiles nest for grouped layers too.
    IntTileVec reg{1, 1, 1, 1, 1, 1, 1};
    reg[DimK] =
        std::min<std::int64_t>(MicroKernelShape::kKU, extents[DimK]);
    reg[DimW] = std::min<std::int64_t>(MicroKernelShape::kWU, p.w);
    cfg.perm[LvlReg] = Permutation::parse("nhwkcrs");
    cfg.tiles[LvlReg] = reg;
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] = Permutation();
        cfg.tiles[static_cast<std::size_t>(l)] = extents;
    }
    // Keep the L1 tile modest so the default is not pathological.
    cfg.tiles[LvlL1][DimC] = std::min<std::int64_t>(extents[DimC], 64);
    cfg.tiles[LvlL1][DimH] = std::min<std::int64_t>(p.h, 8);
    cfg.tiles[LvlL1][DimW] = std::min<std::int64_t>(p.w, 48);
    cfg.tiles[LvlL1][DimK] = std::min<std::int64_t>(
        extents[DimK], MicroKernelShape::kKU);
    for (int d = 0; d < NumDims; ++d)
        cfg.tiles[LvlL2][static_cast<std::size_t>(d)] = std::min(
            extents[static_cast<std::size_t>(d)],
            cfg.tiles[LvlL1][static_cast<std::size_t>(d)] * 4);
    return cfg;
}

} // namespace mopt
