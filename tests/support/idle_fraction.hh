/**
 * @file
 * The load-balance quality measure the optimizer and parallel-model
 * tests bound: the fraction of core-steps a configuration leaves idle.
 */

#ifndef MOPT_TESTS_SUPPORT_IDLE_FRACTION_HH
#define MOPT_TESTS_SUPPORT_IDLE_FRACTION_HH

#include "conv/problem.hh"
#include "model/tile_config.hh"

namespace mopt {

/**
 * Fraction of core-steps idle under @p cfg: 1 - (useful work) /
 * (cores x makespan), using per-chunk MAC counts as the work
 * estimate. 0 means perfectly balanced.
 */
double idleFraction(const ExecConfig &cfg, const ConvProblem &p);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_IDLE_FRACTION_HH
