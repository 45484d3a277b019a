#include "model/dims.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/string_util.hh"
#include "conv/problem.hh"

namespace mopt {

const char *
dimName(Dim d)
{
    static const char *names[NumDims] = {"n", "k", "c", "r", "s", "h", "w"};
    checkInvariant(d >= 0 && d < NumDims, "dimName: bad dim");
    return names[d];
}

bool
dimPresent(TensorId t, Dim d)
{
    switch (t) {
      case TenIn:
        return d != DimK;
      case TenKer:
        return d == DimK || d == DimC || d == DimR || d == DimS;
      case TenOut:
        return d == DimN || d == DimK || d == DimH || d == DimW;
      default:
        panic("dimPresent: bad tensor");
    }
}

bool
isReductionDim(Dim d)
{
    return d == DimC || d == DimR || d == DimS;
}

IntTileVec
problemExtents(const ConvProblem &p)
{
    // Channel extents are *per group*: the group index is an implicit
    // outermost loop over all three tensors, so tiling — and every
    // per-tile footprint derived from these extents — applies to the
    // per-group problem. Cost models multiply the enclosing tile count
    // by p.groups to recover total traffic (see evalMultiLevel).
    return {p.n, p.kPerGroup(), p.cPerGroup(), p.r, p.s, p.h, p.w};
}

TileVec
toTileVec(const IntTileVec &t)
{
    TileVec v;
    for (int d = 0; d < NumDims; ++d)
        v[static_cast<std::size_t>(d)] =
            static_cast<double>(t[static_cast<std::size_t>(d)]);
    return v;
}

IntTileVec
floorTiles(const TileVec &t)
{
    IntTileVec v;
    for (int d = 0; d < NumDims; ++d) {
        // Solver tiles round-trip through exp(log T), which lands a few
        // ulps below an integer extent as often as above it; a value
        // within a relative 1e-9 of an integer is that integer.
        const double t_d = t[static_cast<std::size_t>(d)];
        const double near = std::round(t_d);
        const double x = std::fabs(t_d - near) <= 1e-9 * std::max(1.0, near)
                             ? near
                             : std::floor(t_d);
        v[static_cast<std::size_t>(d)] =
            std::max<std::int64_t>(1, static_cast<std::int64_t>(x));
    }
    return v;
}

std::string
tilesToString(const IntTileVec &t)
{
    std::string out = "[";
    for (int d = 0; d < NumDims; ++d) {
        if (d)
            out += ' ';
        out += dimName(static_cast<Dim>(d));
        out += '=';
        appendInt(out, t[static_cast<std::size_t>(d)]);
    }
    out += ']';
    return out;
}

} // namespace mopt
