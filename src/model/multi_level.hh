/**
 * @file
 * Multi-level cost model (Sec. 5 + Sec. 7 of the paper): composes the
 * single-level data-volume expressions across the Reg/L1/L2/L3
 * hierarchy and converts them into bandwidth-scaled times. The
 * predicted execution time is the maximum across levels (concurrent
 * transfers between different level pairs), also bounded below by the
 * FMA-throughput compute time, plus an additive overhead: a fixed cost
 * per microkernel call and per parallel region (MachineSpec::t_call,
 * t_sync), which no volume term sees.
 *
 * The line size (Sec. 12's spatial-locality generalization, see
 * single_level.hh) is an argument of the same evaluator: every cache
 * boundary (L1/L2/L3) is counted in line-sized transactions, while
 * the register boundary stays word-granular (vector loads move words,
 * not lines). The overhead term is charged at every line size.
 */

#ifndef MOPT_MODEL_MULTI_LEVEL_HH
#define MOPT_MODEL_MULTI_LEVEL_HH

#include <array>
#include <string>

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/single_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Full cost breakdown of a multi-level tiling configuration. */
struct CostBreakdown
{
    /** Total data volume (fp32 words, all cores) at each level. */
    std::array<double, NumMemLevels> volume_words{};

    /** Bandwidth-scaled time (seconds) of each level's traffic. */
    std::array<double, NumMemLevels> seconds{};

    /** Level with the maximum bandwidth-scaled time. */
    int bottleneck = LvlReg;

    /** FMA-throughput lower bound on execution time. */
    double compute_seconds = 0.0;

    /**
     * t_call per microkernel call plus t_sync per parallel region
     * (see OverheadCounts); call costs split across active cores.
     */
    double overhead_seconds = 0.0;

    /**
     * max(compute, max_l seconds[l]) + overhead_seconds: the model's
     * predicted time.
     */
    double total_seconds = 0.0;

    /** flops / total_seconds / 1e9. */
    double gflops = 0.0;

    /** Human-readable per-level summary. */
    std::string str() const;
};

/**
 * What the overhead term charges for: the executor's microkernel calls
 * (groups x register tiles x L1 reduction tiles, the walk runRegion
 * makes; n and h step by one point per call) and its parallel regions
 * (groups x L3 tiles, one parallelFor each; none unless parallel).
 * Ceil mode counts exactly what the executor walks, partial tiles and
 * per-core chunks included; Continuous mode uses real trip counts.
 */
struct OverheadCounts
{
    double calls = 0.0;
    double regions = 0.0;
};

OverheadCounts overheadCounts(const MultiLevelConfig &cfg,
                              const ConvProblem &p, bool parallel,
                              DivMode mode);

/**
 * Evaluate the multi-level model for @p cfg.
 *
 * @param cfg       tiling configuration (Reg..L3 permutations, tile
 *                  sizes, parallel split factors)
 * @param p         convolution shape
 * @param m         machine description
 * @param parallel  model parallel execution across cfg.par cores
 *                  (Sec. 7): per-core bandwidth calibration and
 *                  traffic divided across cores
 * @param mode      trip-count arithmetic (Ceil for integer configs)
 * @param line_words cache-line size in words (>= 1) at L1/L2/L3;
 *                  1 is the paper's unit-line model
 */
CostBreakdown evalMultiLevel(const MultiLevelConfig &cfg,
                             const ConvProblem &p, const MachineSpec &m,
                             bool parallel,
                             DivMode mode = DivMode::Continuous,
                             int line_words = 1);

/**
 * Maximum relative capacity violation of @p cfg across hierarchy
 * levels: 0 when every level's tile footprint fits its capacity,
 * otherwise max over levels of footprint/capacity - 1. The register
 * level uses the microkernel register budget (footprint.hh).
 */
double capacityViolation(const MultiLevelConfig &cfg, const ConvProblem &p,
                         const MachineSpec &m);

/** Convenience wrappers for integer (executor) configurations. */
CostBreakdown evalMultiLevel(const ExecConfig &cfg, const ConvProblem &p,
                             const MachineSpec &m, bool parallel);
double capacityViolation(const ExecConfig &cfg, const ConvProblem &p,
                         const MachineSpec &m);

/**
 * The per-core L3-tile extents under cfg.par (the paper's PT_a3):
 * level-L3 tile sizes divided by the parallel split factors.
 */
TileVec perCoreL3Tile(const MultiLevelConfig &cfg);

} // namespace mopt

#endif // MOPT_MODEL_MULTI_LEVEL_HH
