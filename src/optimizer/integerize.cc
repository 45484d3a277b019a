#include "optimizer/integerize.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "solver/discrete_refine.hh"

namespace mopt {

namespace {

/** Snap @p v up/down to a multiple of @p block within [lo, hi]. */
std::int64_t
snapToBlock(std::int64_t v, std::int64_t block, std::int64_t lo,
            std::int64_t hi)
{
    if (block <= 1 || hi < block)
        return std::clamp(v, lo, hi);
    std::int64_t down = (v / block) * block;
    std::int64_t up = down + block;
    if (down < std::max(lo, block))
        return std::clamp(up, lo, hi);
    if (up > hi)
        return std::clamp(down, lo, hi);
    // Prefer the closer multiple.
    return (v - down <= up - v) ? down : up;
}

} // namespace

ExecConfig
integerize(const MultiLevelConfig &cfg, const ConvProblem &p,
           const MachineSpec &m, bool parallel)
{
    const IntTileVec extents = problemExtents(p);

    MultiLevelConfig work = cfg;
    work.clampNesting(extents);
    ExecConfig e = ExecConfig::fromModel(work);

    // Snap k tiles to multiples of the microkernel's vector block so
    // the executor's fast path stays aligned (the hill climb below
    // keeps them there).
    const std::int64_t kblock =
        std::min<std::int64_t>(2 * m.vec_lanes, extents[DimK]);
    for (int l = LvlL1; l <= LvlL3; ++l) {
        auto &tk = e.tiles[static_cast<std::size_t>(l)][DimK];
        tk = snapToBlock(tk, kblock, e.tiles[LvlReg][DimK],
                         extents[DimK]);
    }
    // Restore nesting after snapping.
    e.clampNesting(extents);

    // Hill-climb the 21 L1..L3 tile sizes against the integer model.
    // k tiles are climbed in units of the k block, so every k tile
    // stays a multiple of it (or the extent) and moves a block at a
    // time; the other dims climb in points.
    const int nvars = 3 * NumDims;
    auto unit = [&](int d) { return d == DimK ? kblock : std::int64_t{1}; };
    auto units = [](std::int64_t t, std::int64_t u) {
        return (t + u - 1) / u;
    };
    std::vector<std::int64_t> start(static_cast<std::size_t>(nvars));
    std::vector<std::int64_t> lo(static_cast<std::size_t>(nvars));
    std::vector<std::int64_t> hi(static_cast<std::size_t>(nvars));
    for (int l = 0; l < 3; ++l)
        for (int d = 0; d < NumDims; ++d) {
            const auto i = static_cast<std::size_t>(l * NumDims + d);
            const auto sd = static_cast<std::size_t>(d);
            start[i] = units(
                e.tiles[static_cast<std::size_t>(LvlL1 + l)][sd], unit(d));
            lo[i] = units(e.tiles[LvlReg][sd], unit(d));
            hi[i] = units(extents[sd], unit(d));
        }

    auto decode = [&](const std::vector<std::int64_t> &x) {
        ExecConfig trial = e;
        for (int l = 0; l < 3; ++l)
            for (int d = 0; d < NumDims; ++d)
                trial.tiles[static_cast<std::size_t>(LvlL1 + l)]
                           [static_cast<std::size_t>(d)] =
                    std::min(x[static_cast<std::size_t>(l * NumDims + d)] *
                                 unit(d),
                             extents[static_cast<std::size_t>(d)]);
        return trial;
    };

    DiscreteProblem dp;
    dp.lo = lo;
    dp.hi = hi;
    dp.extents = hi;
    dp.cost = [&](const std::vector<std::int64_t> &x) {
        // Nesting must hold between levels.
        for (int d = 0; d < NumDims; ++d)
            for (int l = 0; l < 2; ++l)
                if (x[static_cast<std::size_t>(l * NumDims + d)] >
                    x[static_cast<std::size_t>((l + 1) * NumDims + d)])
                    return std::numeric_limits<double>::infinity();
        const ExecConfig trial = decode(x);
        if (capacityViolation(trial, p, m) > 0.0)
            return std::numeric_limits<double>::infinity();
        return evalMultiLevel(trial, p, m, parallel).total_seconds;
    };

    // If the floored start is infeasible (flooring can only shrink
    // footprints, so this is rare), shrink toward the register tile
    // until feasible.
    std::vector<std::int64_t> x = start;
    int guard = 0;
    while (dp.cost(x) == std::numeric_limits<double>::infinity() &&
           guard++ < 64) {
        bool shrunk = false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (x[i] > lo[i]) {
                x[i] = std::max(lo[i], x[i] / 2);
                shrunk = true;
            }
        }
        if (!shrunk)
            break;
    }

    x = hillClimb(dp, x);
    if (dp.cost(x) == std::numeric_limits<double>::infinity()) {
        logWarn("integerize: no feasible integer configuration found for ",
                p.name, "; falling back to register tiles");
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = lo[i];
    }
    return decode(x);
}

} // namespace mopt
