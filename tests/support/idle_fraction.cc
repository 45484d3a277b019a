#include "support/idle_fraction.hh"

#include <algorithm>

#include "model/dims.hh"

namespace mopt {

double
idleFraction(const ExecConfig &cfg, const ConvProblem &p)
{
    // Work is proportional to the per-core share of every L3 tile.
    // With an uneven split the makespan is set by the largest chunk;
    // the trailing partial L3 tile only costs its own (smaller) chunk.
    const IntTileVec extents = problemExtents(p);
    double total_work = 1.0;
    double makespan_work = 1.0;
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const std::int64_t n = extents[sd];
        const std::int64_t t3 = std::min<std::int64_t>(
            n, cfg.tiles[LvlL3][sd]);
        const std::int64_t f = cfg.par[sd];
        const std::int64_t full = n / t3;
        const std::int64_t rem = n - full * t3;
        // Per full L3 tile every core processes ceil(t3/f); the
        // remainder tile costs ceil(rem/f).
        const std::int64_t span =
            full * ((t3 + f - 1) / f) + (rem + f - 1) / f;
        total_work *= static_cast<double>(n);
        makespan_work *=
            static_cast<double>(span) * static_cast<double>(f);
    }
    if (makespan_work <= 0.0)
        return 0.0;
    return std::max(0.0, 1.0 - total_work / makespan_work);
}

} // namespace mopt
