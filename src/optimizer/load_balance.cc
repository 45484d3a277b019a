#include "optimizer/load_balance.hh"

#include <algorithm>

#include "common/logging.hh"
#include "model/multi_level.hh"
#include "model/parallel_model.hh"

namespace mopt {

void
loadBalance(ExecConfig &cfg, const ConvProblem &p, const MachineSpec &m)
{
    MultiLevelConfig model = cfg.toModel();
    cfg.par = bestParallelSplit(model, p, m);

    // Snap parallelized L3 tile extents to multiples of their split
    // factor so each core's chunk is equal. Snapping goes *down* when
    // the up-multiple would exceed the problem extent (the leftover
    // runs as a partial L3 tile), and the per-core chunk never shrinks
    // below the register tile so nesting Reg <= L1 <= L2 <= chunk
    // stays intact.
    const IntTileVec extents = problemExtents(p);
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const std::int64_t f = cfg.par[sd];
        if (f <= 1)
            continue;
        auto &t3 = cfg.tiles[LvlL3][sd];
        const std::int64_t reg = cfg.tiles[LvlReg][sd];
        // A per-core k share stays a whole number of register blocks,
        // so every core's register tiles take the vector path.
        const std::int64_t grid = d == DimK ? reg : 1;
        std::int64_t per = std::max(reg, t3 / f / grid * grid);
        if (per * f > extents[sd])
            per = std::max(reg, extents[sd] / f / grid * grid);
        if (per * f > extents[sd]) {
            // Even a register-tile chunk per core does not fit: this
            // split was a relaxed fallback; keep the largest even
            // chunking that fits and accept core idling.
            per = std::max<std::int64_t>(1, extents[sd] / f);
        }
        t3 = per * f;
        // Keep nesting: L2 tile must not exceed the per-core chunk.
        auto &t2 = cfg.tiles[LvlL2][sd];
        t2 = std::clamp(t2, std::min(reg, per), per);
        auto &t1 = cfg.tiles[LvlL1][sd];
        t1 = std::clamp(t1, std::min(reg, t2), t2);
    }
}

} // namespace mopt
