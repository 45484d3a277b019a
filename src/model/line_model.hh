/**
 * @file
 * Spatial-locality (cache-line) extension of the analytical model —
 * the generalization the paper proposes in Sec. 12: replace the tile
 * extent T along each array's fastest-varying dimension with the
 * number of cache lines ceil(T / L) it spans, so data movement is
 * counted in line-sized transactions rather than words.
 *
 * Fastest-varying dimensions in the benchmark layouts: w for In and
 * Out (NCHW), s for Ker (KCRS). All returned volumes are in *words*
 * (line counts multiplied back by the line size) so they compare
 * directly with the unit-line model and the cache simulator's
 * trafficWords().
 *
 * In Continuous mode the exact ceil is replaced by the smooth upper
 * bound (T + L - 1) / L so the expressions stay differentiable for
 * the nonlinear solver; Ceil mode uses the exact ceil.
 */

#ifndef MOPT_MODEL_LINE_MODEL_HH
#define MOPT_MODEL_LINE_MODEL_HH

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/single_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Lines spanned by a contiguous extent of @p extent words. */
double lineCount(double extent, int line_words, DivMode mode);

/**
 * Line-aware footprint of one tile of tensor @p t, in words
 * (lines x line size). Equals tileFootprint at line_words == 1.
 */
double tileFootprintLines(TensorId t, const TileVec &tiles,
                          const ConvProblem &p, int line_words,
                          DivMode mode = DivMode::Continuous);

/**
 * Line-aware counterpart of tensorDataVolume (Sec. 3 + the Sec. 12
 * extension): words moved for tensor @p t between this level and the
 * next outer one. Identical to the unit-line model except every
 * fastest-dimension extent is rounded up to whole lines.
 */
double tensorDataVolumeLines(TensorId t, const Permutation &perm,
                             const TileVec &tiles, const TileVec &outer,
                             const ConvProblem &p, int line_words,
                             DivMode mode = DivMode::Continuous);

/** Sum over the three tensors. */
double totalDataVolumeLines(const Permutation &perm, const TileVec &tiles,
                            const TileVec &outer, const ConvProblem &p,
                            int line_words,
                            DivMode mode = DivMode::Continuous);

/**
 * Line-aware multi-level evaluation: evalMultiLevel with every cache
 * boundary (L1/L2/L3) counted in @p line_words-sized transactions.
 * The register boundary stays word-granular (vector loads move words,
 * not lines). line_words == 1 reproduces evalMultiLevel exactly.
 */
CostBreakdown evalMultiLevelLines(const MultiLevelConfig &cfg,
                                  const ConvProblem &p,
                                  const MachineSpec &m, bool parallel,
                                  int line_words,
                                  DivMode mode = DivMode::Continuous);

} // namespace mopt

#endif // MOPT_MODEL_LINE_MODEL_HH
