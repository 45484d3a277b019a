/**
 * @file
 * Integerization of a continuous solver solution (Algorithm 1, lines
 * 23-24): floor tile sizes, restore the nesting invariant, snap the
 * output-channel tiles onto microkernel vector blocks, and locally
 * hill-climb the true integer cost (ceil trip counts + capacity
 * feasibility).
 */

#ifndef MOPT_OPTIMIZER_INTEGERIZE_HH
#define MOPT_OPTIMIZER_INTEGERIZE_HH

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/**
 * Convert the continuous configuration @p cfg into an integer
 * ExecConfig:
 *  1. floor every tile size and clamp to the nesting chain;
 *  2. snap k tiles to multiples of the microkernel's k block;
 *  3. hill-climb all L1..L3 tile sizes against the Ceil-mode model
 *     cost with capacity feasibility as a hard constraint, keeping k
 *     tiles on the k-block grid (or at the extent).
 *
 * @p parallel selects the cost model used for refinement.
 */
ExecConfig integerize(const MultiLevelConfig &cfg, const ConvProblem &p,
                      const MachineSpec &m, bool parallel);

} // namespace mopt

#endif // MOPT_OPTIMIZER_INTEGERIZE_HH
