/**
 * @file
 * Tile-loop permutations and multi-level tiling configurations.
 *
 * A Permutation lists the seven tile-loop dimensions from outermost to
 * innermost. Following the paper's convention, *positions* are counted
 * from the innermost loop starting at 1 (so position(perm, d) == 1
 * means d is the innermost tile loop).
 */

#ifndef MOPT_MODEL_TILE_CONFIG_HH
#define MOPT_MODEL_TILE_CONFIG_HH

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "machine/machine.hh"
#include "model/dims.hh"

namespace mopt {

/** A permutation of the seven tile-loop dimensions, outermost first. */
class Permutation
{
  public:
    /** Identity order (n, k, c, r, s, h, w). */
    Permutation();

    /** From an explicit outermost-to-innermost order. */
    explicit Permutation(const std::array<Dim, NumDims> &order);

    /** Parse a compact string like "kcrsnhw" (outermost first). */
    static Permutation parse(std::string_view s);

    /** Dimension at outermost-first index @p i (0-based). */
    Dim at(int i) const { return order_[static_cast<std::size_t>(i)]; }

    /** Dimension at innermost-based position @p pos (1 = innermost). */
    Dim dimAtPosition(int pos) const;

    /**
     * Innermost position (1-based from inner) of any dimension present
     * in tensor @p t: the paper's R_A.
     */
    int innermostPresentPosition(TensorId t) const;

    /** Compact display string, outermost first (e.g. "kcrsnhw"). */
    std::string str() const;

    /** Lexicographic comparison / equality on the order array. */
    bool operator==(const Permutation &o) const = default;
    bool operator<(const Permutation &o) const { return order_ < o.order_; }

    /** All 5040 permutations of the seven tile loops. */
    static std::vector<Permutation> all();

  private:
    std::array<Dim, NumDims> order_; //!< outermost first
};

/** Tiling of one memory level: a permutation plus real tile sizes. */
struct LevelTiling
{
    Permutation perm;
    TileVec tiles{1, 1, 1, 1, 1, 1, 1};
};

/**
 * A complete multi-level tiling configuration: one LevelTiling per
 * memory level (Reg innermost .. L3 outermost) plus the parallel split
 * factors of Sec. 7 (how many cores partition each non-reduction
 * dimension of the L3 tile; all 1 for sequential execution).
 */
struct MultiLevelConfig
{
    std::array<LevelTiling, NumMemLevels> level;
    IntTileVec par{1, 1, 1, 1, 1, 1, 1};

    /** Total parallelism (product of par factors). */
    std::int64_t totalParallelism() const;

    /**
     * Clamp every level's tile sizes into [inner level tile, problem
     * extent] so the nesting invariant T^0 <= T^1 <= ... <= N holds.
     */
    void clampNesting(const IntTileVec &extents);
};

/**
 * Integer version of MultiLevelConfig handed to the executor and code
 * generator.
 */
struct ExecConfig
{
    std::array<Permutation, NumMemLevels> perm;
    std::array<IntTileVec, NumMemLevels> tiles;
    IntTileVec par{1, 1, 1, 1, 1, 1, 1};

    /** Convert to the model (real-valued) representation. */
    MultiLevelConfig toModel() const;

    /** Build from a model configuration by flooring tile sizes. */
    static ExecConfig fromModel(const MultiLevelConfig &m);

    /**
     * Clamp the L1..L3 tile sizes into [inner level tile, problem
     * extent], starting from the register tile, which is left as is.
     */
    void clampNesting(const IntTileVec &extents);

    std::string str() const;

    bool operator==(const ExecConfig &o) const;
};

} // namespace mopt

#endif // MOPT_MODEL_TILE_CONFIG_HH
