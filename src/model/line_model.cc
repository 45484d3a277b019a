#include "model/line_model.hh"

#include <cmath>

#include "common/logging.hh"
#include "model/footprint.hh"

namespace mopt {

namespace {

/** Trip count of one tile loop (mirrors single_level.cc). */
double
trips(double outer, double tile, DivMode mode)
{
    checkInvariant(tile > 0.0 && outer > 0.0,
                   "trips: non-positive tile/outer extent");
    const double q = outer / tile;
    return mode == DivMode::Ceil ? std::ceil(q - 1e-12) : q;
}

/** Product of trip counts at innermost-based positions [from, 7]. */
double
tripProductFrom(int from, const Permutation &perm, const TileVec &tiles,
                const TileVec &outer, DivMode mode)
{
    double prod = 1.0;
    for (int pos = from; pos <= NumDims; ++pos) {
        const Dim d = perm.dimAtPosition(pos);
        prod *= trips(outer[static_cast<std::size_t>(d)],
                      tiles[static_cast<std::size_t>(d)], mode);
    }
    return prod;
}

} // namespace

double
lineCount(double extent, int line_words, DivMode mode)
{
    checkUser(line_words >= 1, "lineCount: line size must be >= 1");
    if (line_words == 1)
        return extent;
    const double q = extent / static_cast<double>(line_words);
    // Smooth differentiable upper bound for the solver domain; exact
    // ceil for integer configurations.
    if (mode == DivMode::Ceil)
        return std::ceil(q - 1e-12);
    return (extent + line_words - 1.0) / static_cast<double>(line_words);
}

double
tileFootprintLines(TensorId t, const TileVec &tiles, const ConvProblem &p,
                   int line_words, DivMode mode)
{
    const double tn = tiles[DimN], tk = tiles[DimK], tc = tiles[DimC];
    const double tr = tiles[DimR], ts = tiles[DimS];
    const double th = tiles[DimH], tw = tiles[DimW];
    const double lw = static_cast<double>(line_words);
    switch (t) {
      case TenOut:
        return tn * tk * th * lineCount(tw, line_words, mode) * lw;
      case TenKer:
        return tk * tc * tr * lineCount(ts, line_words, mode) * lw;
      case TenIn:
        return tn * tc * inputExtent(th, tr, p.stride, p.dilation) *
               lineCount(inputExtent(tw, ts, p.stride, p.dilation),
                         line_words, mode) *
               lw;
      default:
        panic("tileFootprintLines: bad tensor");
    }
}

double
tensorDataVolumeLines(TensorId t, const Permutation &perm,
                      const TileVec &tiles, const TileVec &outer,
                      const ConvProblem &p, int line_words, DivMode mode)
{
    const int r_pos = perm.innermostPresentPosition(t);
    const Dim r_dim = perm.dimAtPosition(r_pos);
    const double lw = static_cast<double>(line_words);

    // Case 2 (Sec. 3.2): partial inter-tile reuse of In along the
    // innermost present spatial/kernel loop. The swept dimension's
    // tile extent is widened to the full sweep extent, then the
    // w-extent (the contiguous data dimension) is rounded to lines.
    if (t == TenIn && (r_dim == DimW || r_dim == DimH || r_dim == DimS ||
                       r_dim == DimR)) {
        const double tn = tiles[DimN], tc = tiles[DimC];
        const double tr = tiles[DimR], ts = tiles[DimS];
        const double th = tiles[DimH], tw = tiles[DimW];
        double ext_h = inputExtent(th, tr, p.stride, p.dilation);
        double ext_w = inputExtent(tw, ts, p.stride, p.dilation);
        switch (r_dim) {
          case DimW:
            ext_w = inputExtent(outer[DimW], ts, p.stride, p.dilation);
            break;
          case DimS:
            ext_w = inputExtent(tw, outer[DimS], p.stride, p.dilation);
            break;
          case DimH:
            ext_h = inputExtent(outer[DimH], tr, p.stride, p.dilation);
            break;
          case DimR:
            ext_h = inputExtent(th, outer[DimR], p.stride, p.dilation);
            break;
          default:
            panic("unreachable");
        }
        const double swept =
            tn * tc * ext_h * lineCount(ext_w, line_words, mode) * lw;
        return tripProductFrom(r_pos + 1, perm, tiles, outer, mode) *
               swept;
    }

    // Case 1: whole-slice replacement at every iteration of the loop
    // at R_A and beyond.
    const double footprint =
        tileFootprintLines(t, tiles, p, line_words, mode);
    const double factor = t == TenOut ? 2.0 : 1.0; // read + write back
    return factor * tripProductFrom(r_pos, perm, tiles, outer, mode) *
           footprint;
}

double
totalDataVolumeLines(const Permutation &perm, const TileVec &tiles,
                     const TileVec &outer, const ConvProblem &p,
                     int line_words, DivMode mode)
{
    return tensorDataVolumeLines(TenIn, perm, tiles, outer, p, line_words,
                                 mode) +
           tensorDataVolumeLines(TenKer, perm, tiles, outer, p,
                                 line_words, mode) +
           tensorDataVolumeLines(TenOut, perm, tiles, outer, p,
                                 line_words, mode);
}

CostBreakdown
evalMultiLevelLines(const MultiLevelConfig &cfg, const ConvProblem &p,
                    const MachineSpec &m, bool parallel, int line_words,
                    DivMode mode)
{
    const TileVec extents = toTileVec(problemExtents(p));
    const std::int64_t active =
        parallel ? std::min<std::int64_t>(cfg.totalParallelism(), m.cores)
                 : 1;

    CostBreakdown out;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        const LevelTiling &lt = cfg.level[sl];

        TileVec outer;
        if (l == LvlL3)
            outer = extents;
        else if (l == LvlL2 && parallel)
            outer = perCoreL3Tile(cfg);
        else
            outer = cfg.level[sl + 1].tiles;

        // Vector loads at the register boundary move words; every
        // cache boundary moves whole lines.
        const int lvl_line = l == LvlReg ? 1 : line_words;
        const double per_tile = totalDataVolumeLines(
            lt.perm, lt.tiles, outer, p, lvl_line, mode);
        // Per-group extents: the implicit group loop repeats the tile
        // walk p.groups times (same scaling as evalMultiLevel).
        const double count =
            tileCount(outer, extents, mode) * static_cast<double>(p.groups);
        const double volume = per_tile * count;
        out.volume_words[sl] = volume;

        const double bytes = volume * 4.0;
        const double bw = m.bandwidth(l, parallel) * 1e9;
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
    out.total_seconds =
        std::max(out.compute_seconds,
                 out.seconds[static_cast<std::size_t>(out.bottleneck)]);
    out.gflops = p.flops() / out.total_seconds / 1e9;
    return out;
}

} // namespace mopt
