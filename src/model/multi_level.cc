#include "model/multi_level.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/logging.hh"
#include "model/footprint.hh"

namespace mopt {

std::string
CostBreakdown::str() const
{
    std::ostringstream oss;
    for (int l = 0; l < NumMemLevels; ++l) {
        oss << memLevelName(l) << ": " << volume_words[static_cast<std::size_t>(l)]
            << " words, " << seconds[static_cast<std::size_t>(l)] * 1e3
            << " ms" << (l == bottleneck ? "  <-- bottleneck" : "") << "\n";
    }
    oss << "compute: " << compute_seconds * 1e3 << " ms, overhead: "
        << overhead_seconds * 1e3 << " ms, total: "
        << total_seconds * 1e3 << " ms, " << gflops << " GFLOPS\n";
    return oss.str();
}

TileVec
perCoreL3Tile(const MultiLevelConfig &cfg)
{
    TileVec t = cfg.level[LvlL3].tiles;
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        t[sd] = std::max(1.0, t[sd] / static_cast<double>(cfg.par[sd]));
    }
    return t;
}

namespace {

/** One executor stage along a dimension: tiles of @p size (the last
 *  one clipped, walkTilesAtLevel) or a split into min(size, len)
 *  near-equal chunks (splitRegion). */
struct Stage
{
    std::int64_t size;
    bool split;
};

/**
 * Walk a span of @p len points through stages [st, end) and sum
 * leaf(piece length) over the innermost pieces. Each stage yields at
 * most two distinct piece lengths, so the recursion has at most
 * 2^stages leaves.
 */
template <typename Leaf>
double
walkPieces(std::int64_t len, const Stage *st, const Stage *end,
           const Leaf &leaf)
{
    if (st == end)
        return leaf(len);
    const Stage *next = st + 1;
    if (st->split) {
        // min(size, len) chunks, `rem` of them one point longer.
        const std::int64_t n =
            std::max<std::int64_t>(1, std::min(st->size, len));
        const std::int64_t q = len / n, rem = len % n;
        return static_cast<double>(n - rem) * walkPieces(q, next, end, leaf) +
               (rem ? static_cast<double>(rem) *
                          walkPieces(q + 1, next, end, leaf)
                    : 0.0);
    }
    // Full tiles, then one clipped tile.
    const std::int64_t full = len / st->size, rem = len % st->size;
    return (full ? static_cast<double>(full) *
                       walkPieces(st->size, next, end, leaf)
                 : 0.0) +
           (rem ? walkPieces(rem, next, end, leaf) : 0.0);
}

} // namespace

OverheadCounts
overheadCounts(const MultiLevelConfig &cfg, const ConvProblem &p,
               bool parallel, DivMode mode)
{
    const IntTileVec extents = problemExtents(p);
    const TileVec &reg = cfg.level[LvlReg].tiles;
    const TileVec &l1 = cfg.level[LvlL1].tiles;
    const TileVec &l3 = cfg.level[LvlL3].tiles;
    OverheadCounts out;
    out.calls = static_cast<double>(p.groups);
    if (parallel)
        out.regions = static_cast<double>(p.groups) *
                      tileCount(l3, toTileVec(extents), mode);

    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const Dim dim = static_cast<Dim>(d);
        const double e = static_cast<double>(extents[sd]);

        if (mode == DivMode::Continuous) {
            if (dim == DimK || dim == DimW)
                out.calls *= e / reg[sd];
            else if (isReductionDim(dim))
                out.calls *= e / l1[sd];
            else
                out.calls *= e;
            continue;
        }

        // Ceil: walk the executor's stages for this dimension, down to
        // L1 tiles, then count the calls inside each.
        const IntTileVec t = floorTiles(
            {l3[sd], cfg.level[LvlL2].tiles[sd], l1[sd], reg[sd], 1, 1,
             1});
        // A split into one chunk (serial runs) is the identity.
        const Stage stages[] = {{t[0], false},
                                {parallel ? cfg.par[sd] : 1, true},
                                {t[1], false},
                                {t[2], false}};
        out.calls *= walkPieces(
            extents[sd], std::begin(stages), std::end(stages),
            [&](std::int64_t len) -> double {
                if (dim == DimK || dim == DimW)
                    return static_cast<double>((len + t[3] - 1) / t[3]);
                // n and h step by one point; c, r, s once per L1 tile.
                return isReductionDim(dim) ? 1.0
                                           : static_cast<double>(len);
            });
    }
    return out;
}

CostBreakdown
evalMultiLevel(const MultiLevelConfig &cfg, const ConvProblem &p,
               const MachineSpec &m, bool parallel, DivMode mode,
               int line_words)
{
    checkUser(line_words >= 1, "evalMultiLevel: line size must be >= 1");
    const TileVec extents = toTileVec(problemExtents(p));
    const std::int64_t active =
        parallel ? std::min<std::int64_t>(cfg.totalParallelism(), m.cores)
                 : 1;

    CostBreakdown out;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        const LevelTiling &lt = cfg.level[sl];

        // Enclosing-tile extents for this level: the next outer
        // level's tile (problem extents for L3). In parallel mode the
        // enclosing tile of the L2 level is the per-core share of the
        // L3 tile (Sec. 7's substitution of PT_a3 for T_a3).
        TileVec outer;
        if (l == LvlL3)
            outer = extents;
        else if (l == LvlL2 && parallel)
            outer = perCoreL3Tile(cfg);
        else
            outer = cfg.level[sl + 1].tiles;

        // Total traffic = volume per enclosing tile x number of
        // enclosing tiles over the whole problem. Extents are per
        // group (see problemExtents); the implicit outermost group
        // loop repeats the whole per-group tile walk p.groups times.
        // Vector loads at the register boundary move words; every
        // cache boundary moves whole lines.
        const double per_tile = totalDataVolume(
            lt.perm, lt.tiles, outer, p, mode, l == LvlReg ? 1 : line_words);
        const double count =
            tileCount(outer, extents, mode) * static_cast<double>(p.groups);
        const double volume = per_tile * count;
        out.volume_words[sl] = volume;

        const double bytes = volume * 4.0;
        const double bw = m.bandwidth(l, parallel) * 1e9;
        // Private levels split their traffic across the active cores;
        // the shared DRAM<->L3 link is modeled with its aggregate
        // parallel bandwidth.
        const double ways =
            (parallel && l != LvlL3) ? static_cast<double>(active) : 1.0;
        out.seconds[sl] = bytes / (bw * ways);
    }

    out.bottleneck = LvlReg;
    for (int l = 1; l < NumMemLevels; ++l)
        if (out.seconds[static_cast<std::size_t>(l)] >
            out.seconds[static_cast<std::size_t>(out.bottleneck)])
            out.bottleneck = l;

    out.compute_seconds =
        p.flops() /
        (m.peakGflopsPerCore() * static_cast<double>(active) * 1e9);
    const OverheadCounts oc = overheadCounts(cfg, p, parallel, mode);
    out.overhead_seconds = m.t_call * oc.calls /
                               static_cast<double>(active) +
                           m.t_sync * oc.regions;
    out.total_seconds =
        std::max(out.compute_seconds,
                 out.seconds[static_cast<std::size_t>(out.bottleneck)]) +
        out.overhead_seconds;
    out.gflops = p.flops() / out.total_seconds / 1e9;
    return out;
}

double
capacityViolation(const MultiLevelConfig &cfg, const ConvProblem &p,
                  const MachineSpec &m)
{
    double worst = 0.0;
    // Register level: microkernel register budget.
    {
        const double used = registerFootprint(cfg.level[LvlReg].tiles, p,
                                              m.vec_lanes);
        const double cap = static_cast<double>(m.capacityWords(LvlReg));
        worst = std::max(worst, used / cap - 1.0);
    }
    for (int l = LvlL1; l <= LvlL3; ++l) {
        const double used =
            totalFootprint(cfg.level[static_cast<std::size_t>(l)].tiles, p);
        const double cap = static_cast<double>(m.capacityWords(l));
        worst = std::max(worst, used / cap - 1.0);
    }
    return std::max(0.0, worst);
}

CostBreakdown
evalMultiLevel(const ExecConfig &cfg, const ConvProblem &p,
               const MachineSpec &m, bool parallel)
{
    return evalMultiLevel(cfg.toModel(), p, m, parallel, DivMode::Ceil);
}

double
capacityViolation(const ExecConfig &cfg, const ConvProblem &p,
                  const MachineSpec &m)
{
    return capacityViolation(cfg.toModel(), p, m);
}

} // namespace mopt
