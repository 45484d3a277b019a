/**
 * @file
 * Load balancing (Algorithm 1, line 24): pick the parallel split of
 * the L3 tile across cores and adjust the parallelized tile extents
 * so per-core chunks are even, minimizing core idling.
 */

#ifndef MOPT_OPTIMIZER_LOAD_BALANCE_HH
#define MOPT_OPTIMIZER_LOAD_BALANCE_HH

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/tile_config.hh"

namespace mopt {

/**
 * Choose cfg.par by enumerating exact factorizations of the core
 * count over the non-reduction dims (parallel_model.hh), then snap
 * the parallelized L3 tile extents to multiples of their split
 * factors so every core receives an equal chunk. A k chunk is also a
 * whole number of register k blocks.
 */
void loadBalance(ExecConfig &cfg, const ConvProblem &p,
                 const MachineSpec &m);

} // namespace mopt

#endif // MOPT_OPTIMIZER_LOAD_BALANCE_HH
