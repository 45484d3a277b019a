/**
 * @file
 * Trace-driven simulation of a tiled convolution: replays the exact
 * access stream the executor's microkernel issues (register-tile
 * granularity: per (c,r,s) one kernel word per output channel and one
 * input word per output point, plus the final accumulator read/write
 * of Out) through a fully-associative LRU hierarchy. The per-level
 * traffic is the simulated ground truth the analytical model is
 * validated against (Sec. 9 reproduction).
 */

#ifndef MOPT_CACHESIM_CONV_TRACE_HH
#define MOPT_CACHESIM_CONV_TRACE_HH

#include <array>
#include <functional>

#include "cachesim/hierarchy.hh"
#include "conv/problem.hh"
#include "exec/loop_nest.hh"
#include "machine/machine.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Simulated per-level data movement of one tiled execution. */
struct TraceStats
{
    /** Register<->L1 traffic proxy: total references issued. */
    std::int64_t reg_words = 0;

    /**
     * Words crossing each boundary: [0] = L1<->L2, [1] = L2<->L3,
     * [2] = L3<->memory (misses + writebacks, scaled by line size).
     */
    std::array<std::int64_t, 3> level_words{};

    /** Raw per-level counters. */
    std::array<LevelTraffic, 3> traffic{};
};

/**
 * Simulate the sequential execution of @p cfg on the cache stack of
 * @p m (capacities only; bandwidths are irrelevant here).
 *
 * @param line_words  cache line size in words (1 = unit-line model)
 */
TraceStats simulateConvTrace(const ConvProblem &p, const ExecConfig &cfg,
                             const MachineSpec &m,
                             std::int64_t line_words = 1);

/**
 * Region-limited variant with explicit L1/L2/L3 capacities (in words):
 * replays only the tiles inside @p region. This is the building block
 * for per-core parallel simulation (each core's chunk runs against its
 * private L1/L2 and its share of L3).
 */
TraceStats simulateConvTraceRegion(
    const ConvProblem &p, const ExecConfig &cfg,
    const std::array<std::int64_t, 3> &capacities_words,
    const TileBounds &region, std::int64_t line_words = 1);

/**
 * Replay the word-level access stream the tiled execution of @p cfg
 * issues over @p region, invoking fn(word_address, is_write) for each
 * reference — the raw generator behind the trace simulators, exposed
 * so callers can drive custom cache topologies (e.g. the shared-L3
 * parallel simulation in sim_machine).
 */
void forEachConvAccess(
    const ConvProblem &p, const ExecConfig &cfg, const TileBounds &region,
    const std::function<void(std::int64_t, bool)> &fn);

} // namespace mopt

#endif // MOPT_CACHESIM_CONV_TRACE_HH
