/**
 * @file
 * The tiled convolution executor: runs a conv2d operator under an
 * arbitrary multi-level tiling configuration (L3/L2/L1 tile loops in
 * the configured permutations, register tiles computed by the
 * microkernel), with each L3 tile partitioned along the parallel split
 * dims (Sec. 7) and the chunks spread over one process-wide thread
 * pool (globalPool()), so no run starts threads of its own. Kernel
 * packing (Sec. 6) happens inside every run, in parallel on the same
 * pool, and its cost is attributed to the run, as in the paper's
 * measurements. The output is bit-identical at any pool width: the
 * chunks do not depend on the width, and each output point sums its
 * terms in the same order whichever thread runs it.
 */

#ifndef MOPT_EXEC_CONV_EXEC_HH
#define MOPT_EXEC_CONV_EXEC_HH

#include "conv/problem.hh"
#include "model/tile_config.hh"
#include "tensor/tensor.hh"

namespace mopt {

/** Timing breakdown of one execution. */
struct ExecStats
{
    double seconds = 0.0;      //!< Total (packing + compute).
    double pack_seconds = 0.0; //!< Kernel packing portion.
    double gflops = 0.0;       //!< Based on total seconds.
};

/**
 * Execute the convolution: out is zeroed, then accumulated.
 *
 * @param p        problem shape
 * @param in       input [n][c][inH][inW]
 * @param ker      kernel [k][c][r][s] (packed internally)
 * @param out      output [n][k][h][w]
 * @param cfg      tiling configuration; cfg.par sets the chunk split
 * @param threads  participating threads, the caller included (1 runs
 *                 everything on the caller); 0 = product of cfg.par.
 *                 Clamped to the shared pool's width,
 *                 hardware_concurrency + 1.
 */
ExecStats runConv(const ConvProblem &p, const Tensor4 &in,
                  const Tensor4 &ker, Tensor4 &out, const ExecConfig &cfg,
                  int threads = 0);

/**
 * A safe default configuration for @p p (register tiles +
 * whole-problem outer tiles, sequential); handy as a baseline and in
 * tests.
 */
ExecConfig defaultConfig(const ConvProblem &p);

} // namespace mopt

#endif // MOPT_EXEC_CONV_EXEC_HH
