#include "model/parallel_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mopt {

namespace {

const Dim par_dims[] = {DimN, DimK, DimH, DimW};

void
enumerate(int remaining, std::size_t di, const IntTileVec &l3,
          IntTileVec &cur, std::vector<IntTileVec> &exact,
          std::vector<IntTileVec> &partial)
{
    if (di == std::size(par_dims)) {
        if (remaining == 1)
            exact.push_back(cur);
        else
            partial.push_back(cur);
        return;
    }
    const Dim d = par_dims[di];
    const auto limit = l3[static_cast<std::size_t>(d)];
    for (int f = 1; f <= remaining; ++f) {
        if (remaining % f != 0)
            continue;
        if (f > limit)
            break;
        cur[static_cast<std::size_t>(d)] = f;
        enumerate(remaining / f, di + 1, l3, cur, exact, partial);
    }
    cur[static_cast<std::size_t>(d)] = 1;
}

} // namespace

std::vector<IntTileVec>
parallelSplits(int cores, const IntTileVec &l3_tiles)
{
    checkUser(cores >= 1, "parallelSplits: cores must be >= 1");
    IntTileVec cur{1, 1, 1, 1, 1, 1, 1};
    std::vector<IntTileVec> exact, partial;
    enumerate(cores, 0, l3_tiles, cur, exact, partial);
    if (!exact.empty())
        return exact;

    // No exact factorization fits the tile extents: keep the splits
    // with the largest achievable total parallelism.
    std::int64_t best = 0;
    for (const auto &s : partial) {
        std::int64_t prod = 1;
        for (std::int64_t f : s)
            prod *= f;
        best = std::max(best, prod);
    }
    std::vector<IntTileVec> out;
    for (const auto &s : partial) {
        std::int64_t prod = 1;
        for (std::int64_t f : s)
            prod *= f;
        if (prod == best)
            out.push_back(s);
    }
    // Deduplicate (enumerate can revisit the same vector via different
    // divisor paths only when remaining collapses; cheap safety).
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

IntTileVec
bestParallelSplit(const MultiLevelConfig &cfg, const ConvProblem &p,
                  const MachineSpec &m, DivMode mode)
{
    const IntTileVec l3 = floorTiles(cfg.level[LvlL3].tiles);
    const IntTileVec reg = floorTiles(cfg.level[LvlReg].tiles);
    const std::vector<IntTileVec> splits = parallelSplits(m.cores, l3);
    checkInvariant(!splits.empty(), "no parallel splits");

    // Score every split by the parallel model cost, scaled by the load
    // imbalance of an uneven chunking (the makespan is set by the core
    // with the largest ceil-chunk). Splits whose per-core chunk would
    // fall below the register tile cannot host even one microkernel
    // invocation per core and are skipped when any alternative exists.
    MultiLevelConfig trial = cfg;
    IntTileVec best{};
    double best_time = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < 2 && best_time == std::numeric_limits<double>::infinity(); ++pass) {
        const bool relaxed = pass == 1;
        for (const auto &s : splits) {
            double imbalance = 1.0;
            bool chunk_ok = true;
            for (int d = 0; d < NumDims; ++d) {
                const auto sd = static_cast<std::size_t>(d);
                if (s[sd] <= 1)
                    continue;
                if (l3[sd] / s[sd] < reg[sd]) {
                    chunk_ok = false;
                    break;
                }
                // The makespan chunk; a k chunk rounds up to whole
                // register blocks (loadBalance keeps k shares on them).
                std::int64_t up = (l3[sd] + s[sd] - 1) / s[sd];
                if (d == DimK)
                    up = (up + reg[sd] - 1) / reg[sd] * reg[sd];
                imbalance *= static_cast<double>(up * s[sd]) /
                             static_cast<double>(l3[sd]);
            }
            if (!chunk_ok && !relaxed)
                continue;
            trial.par = s;
            const CostBreakdown cost =
                evalMultiLevel(trial, p, m, true, mode);
            const double scored = cost.total_seconds * imbalance;
            if (scored < best_time) {
                best_time = scored;
                best = s;
            }
        }
    }
    checkInvariant(best_time < std::numeric_limits<double>::infinity(),
                   "bestParallelSplit: no scoreable split");
    return best;
}

} // namespace mopt
