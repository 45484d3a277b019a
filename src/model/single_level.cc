#include "model/single_level.hh"

#include <cmath>

#include "common/logging.hh"
#include "model/footprint.hh"

namespace mopt {

namespace {

/** Trip count of one tile loop. */
double
trips(double outer, double tile, DivMode mode)
{
    checkInvariant(tile > 0.0 && outer > 0.0,
                   "trips: non-positive tile/outer extent");
    const double q = outer / tile;
    return mode == DivMode::Ceil ? std::ceil(q - 1e-12) : q;
}

/**
 * Product of trip counts of the tile loops at innermost-based
 * positions [from, 7].
 */
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
tileCount(const TileVec &tiles, const TileVec &outer, DivMode mode)
{
    double prod = 1.0;
    for (int d = 0; d < NumDims; ++d)
        prod *= trips(outer[static_cast<std::size_t>(d)],
                      tiles[static_cast<std::size_t>(d)], mode);
    return prod;
}

double
lineCount(double extent, int line_words, DivMode mode)
{
    if (line_words == 1)
        return extent;
    const double lw = static_cast<double>(line_words);
    // Exact ceil for integer configurations; a smooth upper bound in
    // the solver domain.
    if (mode == DivMode::Ceil)
        return std::ceil(extent / lw - 1e-12);
    return (extent + lw - 1.0) / lw;
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
tensorDataVolume(TensorId t, const Permutation &perm, const TileVec &tiles,
                 const TileVec &outer, const ConvProblem &p, DivMode mode,
                 int line_words)
{
    const int r_pos = perm.innermostPresentPosition(t);
    const Dim r_dim = perm.dimAtPosition(r_pos);

    // Case 2 (Sec. 3.2): the In tensor when the innermost present
    // iterator is one of wt/ht/st/rt. Consecutive tiles along that
    // loop overlap partially in the input; the combined cost of the
    // first full-footprint load plus the incremental loads equals the
    // tile footprint with the swept dimension's extent widened to the
    // full sweep extent; then the w-extent (the contiguous one) is
    // rounded up to whole lines.
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
        const double swept = tn * tc * ext_h *
                             lineCount(ext_w, line_words, mode) *
                             static_cast<double>(line_words);
        return tripProductFrom(r_pos + 1, perm, tiles, outer, mode) * swept;
    }

    // Case 1: every change of the loop at position R_A replaces the
    // whole slice, so the volume is the tile footprint times the trip
    // product of the loop at R_A and everything surrounding it.
    const double footprint =
        tileFootprintLines(t, tiles, p, line_words, mode);
    const double factor = t == TenOut ? 2.0 : 1.0; // read + write back
    return factor * tripProductFrom(r_pos, perm, tiles, outer, mode) *
           footprint;
}

double
totalDataVolume(const Permutation &perm, const TileVec &tiles,
                const TileVec &outer, const ConvProblem &p, DivMode mode,
                int line_words)
{
    return tensorDataVolume(TenIn, perm, tiles, outer, p, mode,
                            line_words) +
           tensorDataVolume(TenKer, perm, tiles, outer, p, mode,
                            line_words) +
           tensorDataVolume(TenOut, perm, tiles, outer, p, mode,
                            line_words);
}

double
totalDataVolume(const Permutation &perm, const TileVec &tiles,
                const ConvProblem &p, DivMode mode)
{
    return totalDataVolume(perm, tiles, toTileVec(problemExtents(p)), p,
                           mode);
}

} // namespace mopt
