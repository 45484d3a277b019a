/**
 * @file
 * Allocation-free, differentiable evaluation context for the
 * multi-level cost model (Secs. 5/7). An EvalContext precomputes every
 * per-(problem, machine, permutation-combo) invariant the solver hot
 * path needs — problem extents, level capacities, bandwidth scale
 * factors, per-level permutation position tables, the parallel split
 * and active-core count — so that evaluating the model (and its
 * gradient) from the solver's 21 log-tile variables touches no heap
 * and recomputes nothing shape-dependent.
 *
 * The cost model is a sum of products of trip counts, tile footprints
 * and input extents, all smooth in log-tile space, so the gradient of
 * every log-level-time and log-footprint is available in closed form.
 * This is what replaces the central-difference loop of the original
 * solver (2 x 21 model evaluations per gradient) with a single
 * evaluation per Adam step.
 */

#ifndef MOPT_MODEL_EVAL_CONTEXT_HH
#define MOPT_MODEL_EVAL_CONTEXT_HH

#include <array>
#include <cstdint>

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/**
 * Precomputed evaluation state for one (problem, machine, permutation
 * combo, parallel split). Thread-safe after construction: all mutable
 * state lives in a caller-owned Scratch.
 *
 * Variable convention (shared with the optimizer): x has one entry per
 * (cache level, dimension), x[(l - LvlL1)*NumDims + d] = log T_{l,d}
 * for l in {L1, L2, L3}; the register tile is pinned.
 */
class EvalContext
{
  public:
    static constexpr int kNumVars = 3 * NumDims;
    /** One level's traffic per enclosing tile, by tensor. */
    using TensorVolumes = std::array<double, NumTensors>;

    EvalContext(const ConvProblem &p, const MachineSpec &m,
                const std::array<Permutation, NumMemLevels> &perms,
                const TileVec &reg_tiles, const IntTileVec &par,
                bool parallel);

    /**
     * Caller-owned scratch: decoded tiles, enclosing extents, and the
     * per-level memo filled by evalSeconds and levelGrad. Fixed-size
     * (no heap); reusable across calls and across contexts of any
     * shape.
     */
    struct Scratch
    {
        /** Decoded tile sizes per level (Reg tiles are the pinned ones). */
        std::array<TileVec, NumMemLevels> tiles;
        /** Enclosing-tile extents per level. */
        std::array<TileVec, NumMemLevels> outer;
        /**
         * What one level's time was last computed from, and the time.
         * A level's time and gradient depend only on the context and
         * the level's own tiles and enclosing extents, so a step that
         * leaves both unchanged (a fixed level, or a fixed level
         * enclosed by another) reuses them. The context is named by
         * its id, never by its address: a new context may be built
         * where a freed one was.
         */
        struct LevelMemo
        {
            std::uint64_t ctx = 0; //!< The context's id; 0 = empty.
            TileVec tiles{};
            TileVec outer{};
            TensorVolumes vols{};  //!< Per-tensor, per enclosing tile.
            double seconds = 0.0;
            bool has_grad = false; //!< dlogsec[level] belongs to it.
        };
        std::array<LevelMemo, NumMemLevels> memo;
        /** d log seconds[l] / d x[j]; valid when memo[l].has_grad. */
        std::array<std::array<double, kNumVars>, NumMemLevels> dlogsec;
        /**
         * The two parts of CostBreakdown::overhead_seconds: microkernel
         * calls, which fall as 1 / (T1_c T1_r T1_s), and parallel
         * regions, which fall as 1 / prod_d T3_d. So d call / d x is
         * -call on the three L1 reduction variables, d sync / d x is
         * -sync on all seven L3 variables, and both are 0 elsewhere.
         */
        double call_overhead = 0.0;
        double sync_overhead = 0.0;
        /**
         * The last x[j] decoded and exp(x[j]): a solve revisits the
         * same values for every variable its box pins (fixed levels,
         * active faces), so decode skips their exp. Starts as the
         * valid pair exp(0) = 1.
         */
        std::array<double, kNumVars> seen_x{};
        std::array<double, kNumVars> seen_exp = [] {
            std::array<double, kNumVars> ones;
            ones.fill(1.0);
            return ones;
        }();
    };

    /**
     * Decode @p x (kNumVars log-tile values) and compute the
     * bandwidth-scaled time of every level and the overhead parts in
     * s (Continuous trip counts, the solver domain). Levels whose
     * inputs match s.memo are not recomputed.
     *
     * @param x        kNumVars-sized array of log tile sizes
     * @param s        scratch (tiles/outer/memo outputs)
     * @param seconds  per-level bandwidth-scaled times
     */
    void evalSeconds(const double *x, Scratch &s,
                     std::array<double, NumMemLevels> &seconds) const;

    /**
     * The exact gradient d log seconds[l] / d x (kNumVars entries) at
     * the point the last evalSeconds on @p s decoded, by this context
     * (evalBreakdown in between empties the memo and makes this call
     * fail its check). Computed once per memoized level input and kept
     * in s.dlogsec[l]. Entries outside the level's own and enclosing
     * blocks are 0.
     */
    const double *levelGrad(int l, Scratch &s) const;

    /**
     * log(totalFootprint(tiles_lvl) / capacityWords(lvl)) for cache
     * level @p lvl (L1..L3), the capacity constraint of Eq. 4 in log
     * form. Requires s.tiles decoded (call evalSeconds first). With
     * @p grad7 non-null, writes d/d x_{lvl,d} for the seven own-level
     * variables (the constraint depends on no other level).
     */
    double logCapacityRatio(int lvl, const Scratch &s,
                            double *grad7) const;

    /**
     * Full CostBreakdown at @p x (Continuous mode), equivalent to
     * decoding x into a MultiLevelConfig and calling evalMultiLevel,
     * but allocation-free. Used for parity tests and final reporting.
     * Evaluates every level afresh and empties s.memo.
     */
    CostBreakdown evalBreakdown(const double *x, Scratch &s) const;

    /**
     * The authoritative x -> MultiLevelConfig mapping this context
     * evaluates: per-level permutations, pinned register tiles,
     * exp(log-tile) cache tiles, and the parallel split. The optimizer
     * decodes its final fixed point through this, so solved and
     * reported configurations can never drift apart.
     */
    MultiLevelConfig decodeConfig(const double *x) const;

    const TileVec &extents() const { return extents_; }
    const TileVec &regTiles() const { return reg_tiles_; }
    const ConvProblem &problem() const { return *p_; }
    bool parallel() const { return parallel_; }

  private:
    void decode(const double *x, Scratch &s) const;

    /**
     * Level @p l's traffic in words from decoded scratch: the
     * per-enclosing-tile volume of each tensor into @p vol, times the
     * number of enclosing tiles.
     */
    double levelVolume(int l, const Scratch &s, TensorVolumes &vol) const;

    /**
     * d log seconds[l] / d x into @p dls (kNumVars, zero-filled here),
     * from the per-tensor volumes levelVolume left in @p vol.
     */
    void levelGradient(int l, const Scratch &s, const TensorVolumes &vol,
                       double *dls) const;

    /** The input's extents along h and w when its R_A loop is the
     *  spatial dimension @p r_dim: that argument spans the enclosing
     *  tile. */
    void sweptInputExtents(Dim r_dim, const TileVec &T, const TileVec &O,
                           double &ext_h, double &ext_w) const;

    /** Fill s.call_overhead and s.sync_overhead from decoded tiles. */
    void overhead(Scratch &s) const;

    /** Process-unique (never 0), the key of Scratch::memo. A copy
     *  shares it: it evaluates identically. */
    std::uint64_t id_;
    const ConvProblem *p_;
    TileVec extents_;
    TileVec reg_tiles_;
    std::array<Permutation, NumMemLevels> perms_;
    IntTileVec int_par_;
    TileVec par_;       //!< Parallel split factors as doubles.
    bool parallel_;
    double compute_seconds_;
    double flops_;
    /** Call overhead times T1_c * T1_r * T1_s (constant in x). */
    double call_coef_;
    /** Region overhead times prod_d T3_d (0 unless parallel). */
    double sync_coef_;

    /** 4 bytes/word / (bandwidth * ways): seconds per word, per level. */
    std::array<double, NumMemLevels> sec_per_word_;
    std::array<double, NumMemLevels> cap_words_;

    /** Per level: dimension at innermost-based position pos (1..7). */
    std::array<std::array<Dim, NumDims + 1>, NumMemLevels> pos_dim_;
    /** Per level and tensor: the paper's R_A position and its dim. */
    std::array<std::array<int, NumTensors>, NumMemLevels> r_pos_;
    std::array<std::array<Dim, NumTensors>, NumMemLevels> r_dim_;
};

} // namespace mopt

#endif // MOPT_MODEL_EVAL_CONTEXT_HH
