/**
 * @file
 * The general analytical data-movement evaluator of Sec. 3: for ANY
 * permutation of the seven tile loops and any (real-valued) tile
 * sizes, the volume of data moved between a cache of the hierarchy and
 * the next outer level during execution of one enclosing tile.
 *
 * The "problem" extents are the enclosing tile's sizes (the true
 * problem sizes for the outermost tiling level), which is what makes
 * the single-level expressions compose into the multi-level model of
 * Sec. 5.
 *
 * Modeling assumptions (paper Sec. 2.2/3.1): idealized fully
 * associative LRU cache, only cold + capacity misses, and tile sizes
 * large enough that two adjacent tiles exceed capacity (so no reuse
 * survives a present-index loop boundary).
 *
 * Line size: the paper's model assumes unit lines. The line_words
 * argument is its Sec. 12 generalization to spatial locality: the
 * tile extent T along each tensor's fastest-varying dimension (w for
 * In and Out in NCHW, s for Ker in KCRS) is replaced by the number of
 * cache lines ceil(T / L) it spans, so data movement is counted in
 * line-sized transactions. Volumes stay in *words* (line counts
 * multiplied back by the line size), so they compare directly with
 * the unit-line model and the cache simulator's trafficWords(). In
 * Continuous mode the exact ceil is replaced by the smooth upper
 * bound (T + L - 1) / L, which keeps the expressions differentiable
 * for the nonlinear solver. line_words == 1 is the paper's model,
 * bit for bit.
 */

#ifndef MOPT_MODEL_SINGLE_LEVEL_HH
#define MOPT_MODEL_SINGLE_LEVEL_HH

#include "conv/problem.hh"
#include "model/dims.hh"
#include "model/tile_config.hh"

namespace mopt {

/** How loop trip counts outer/tile are computed. */
enum class DivMode {
    Continuous, //!< outer / tile as a real (solver domain).
    Ceil,       //!< ceil(outer / tile) (integer configurations).
};

/**
 * Data volume (fp32 words) moved for tensor @p t between this cache
 * level and the next outer one, over the execution of one tile of
 * extents @p outer swept by tiles of extents @p tiles under tile-loop
 * order @p perm.
 *
 * Out is counted twice (read + write back), as in the paper.
 *
 * @param t      tensor
 * @param perm   tile-loop permutation (outermost first)
 * @param tiles  tile sizes at this level
 * @param outer  enclosing-tile extents ("problem sizes" N for the
 *               outermost level)
 * @param p      convolution shape (kernel extents and stride)
 * @param mode   trip-count (and line-count) arithmetic
 * @param line_words  cache-line size in words (>= 1); fastest-dimension
 *               extents are rounded up to whole lines
 */
double tensorDataVolume(TensorId t, const Permutation &perm,
                        const TileVec &tiles, const TileVec &outer,
                        const ConvProblem &p,
                        DivMode mode = DivMode::Continuous,
                        int line_words = 1);

/** Sum of the three per-tensor volumes. */
double totalDataVolume(const Permutation &perm, const TileVec &tiles,
                       const TileVec &outer, const ConvProblem &p,
                       DivMode mode = DivMode::Continuous,
                       int line_words = 1);

/**
 * Convenience: single-level tiling of the full problem (outer extents
 * = problem extents).
 */
double totalDataVolume(const Permutation &perm, const TileVec &tiles,
                       const ConvProblem &p,
                       DivMode mode = DivMode::Continuous);

/** Number of tiles: product over dims of outer/tile (per @p mode). */
double tileCount(const TileVec &tiles, const TileVec &outer, DivMode mode);

/** Lines spanned by a contiguous extent of @p extent words; @p extent
 *  itself at line_words == 1. Expects line_words >= 1, which
 *  evalMultiLevel checks once per call. */
double lineCount(double extent, int line_words, DivMode mode);

/**
 * Footprint of one tile of tensor @p t in words (lines x line size),
 * its fastest extent rounded up to whole lines. Equals tileFootprint
 * at line_words == 1.
 */
double tileFootprintLines(TensorId t, const TileVec &tiles,
                          const ConvProblem &p, int line_words,
                          DivMode mode);

} // namespace mopt

#endif // MOPT_MODEL_SINGLE_LEVEL_HH
