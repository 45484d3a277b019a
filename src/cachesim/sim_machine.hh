/**
 * @file
 * The simulated testbed: converts exact LRU-simulated traffic into
 * bandwidth-scaled execution time on a machine preset, sequentially or
 * with the Sec. 7 parallel structure (per-core chunks with private
 * L1/L2 and a per-core share of L3).
 *
 * This is the repo's stand-in for the paper's hardware measurements
 * (DESIGN.md substitution table): the analytical model assumes exactly
 * the fully-associative LRU machine this simulator implements, so
 * model-vs-"measured" comparisons (Figs. 5-8) exercise the same
 * methodology as the paper's model-vs-hardware comparisons, minus the
 * effects the paper also excludes (conflict misses, prefetchers).
 *
 * Because trace simulation of paper-sized operators is intractable,
 * benchmark harnesses run proportionally downscaled operators against
 * capacity-scaled machine presets (scaledMachine), preserving the
 * problem-to-cache size ratios that determine which level bottlenecks.
 */

#ifndef MOPT_CACHESIM_SIM_MACHINE_HH
#define MOPT_CACHESIM_SIM_MACHINE_HH

#include <array>
#include <cstdint>

#include "cachesim/conv_trace.hh"
#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Simulated execution cost of one configuration. */
struct SimTimeBreakdown
{
    /** Per-boundary traffic in words; [LvlReg] = total references. */
    std::array<double, NumMemLevels> volume_words{};

    /** Bandwidth-scaled time of each boundary's traffic (seconds). */
    std::array<double, NumMemLevels> seconds{};

    /** Boundary with the maximum bandwidth-scaled time. */
    int bottleneck = LvlReg;

    /** FMA-throughput lower bound. */
    double compute_seconds = 0.0;

    /** max(compute, max_l seconds[l]). */
    double total_seconds = 0.0;

    /** flops / total_seconds / 1e9. */
    double gflops = 0.0;

    /** Cores actively used (1 when sequential). */
    int active_cores = 1;
};

/**
 * Capacity-scaled copy of @p base: L1, L2, L3 capacities divided by
 * their own divisors (floored at one line of 64 B), everything else —
 * bandwidths, core count, SIMD shape, frequency — preserved. The
 * bandwidth *ratios* between levels, which determine the bottleneck
 * structure, are untouched. Real hierarchies have L3/L1 ratios in the
 * hundreds; compressing L3 more than L1 keeps downscaled problems
 * larger than the scaled L3 (so the memory boundary still carries
 * capacity misses) without shrinking L1 below one register tile.
 */
MachineSpec scaledMachine(const MachineSpec &base, std::int64_t div_l1,
                          std::int64_t div_l2, std::int64_t div_l3);

/** Options for simulateTime. */
struct SimTimeOptions
{
    std::int64_t line_words = 1; //!< Cache line size (words).
};

/**
 * Simulated execution time of @p cfg on @p m.
 *
 * Sequential mode replays the whole problem against the L1/L2/L3
 * stack. Parallel mode splits the iteration space by cfg.par (Sec. 7)
 * and runs each chunk against a private L1/L2 stack in front of one
 * *shared* L3 (data used by several cores is fetched from memory
 * once, the paper's Sec. 7 assumption); private-boundary times use
 * the slowest core's traffic against the per-core parallel bandwidth,
 * the L3-to-memory boundary uses aggregate shared-cache traffic
 * against the parallel memory bandwidth — mirroring the analytic
 * parallel composition so model and simulation disagree only through
 * cache behaviour, never through bandwidth accounting.
 */
SimTimeBreakdown simulateTime(const ConvProblem &p, const ExecConfig &cfg,
                              const MachineSpec &m, bool parallel,
                              const SimTimeOptions &opts = SimTimeOptions());

} // namespace mopt

#endif // MOPT_CACHESIM_SIM_MACHINE_HH
