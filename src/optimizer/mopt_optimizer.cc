#include "optimizer/mopt_optimizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "model/eval_context.hh"
#include "model/footprint.hh"
#include "model/parallel_model.hh"
#include "model/pruned_classes.hh"
#include "optimizer/conv_nlp.hh"
#include "optimizer/integerize.hh"
#include "optimizer/load_balance.hh"
#include "solver/augmented_lagrangian.hh"

namespace mopt {

namespace {

/** One permutation assignment for all four levels. */
struct PermCombo
{
    std::array<Permutation, NumMemLevels> perm;
    std::string label;
};

std::vector<PermCombo>
buildCombos(OptimizerOptions::PermMode mode)
{
    const auto &classes = prunedClasses();
    const Permutation reg = microkernelPermutation();
    std::vector<PermCombo> combos;
    if (mode == OptimizerOptions::PermMode::Uniform) {
        for (const auto &cls : classes) {
            PermCombo c;
            c.perm = {reg, cls.representative(), cls.representative(),
                      cls.representative()};
            c.label = cls.name();
            combos.push_back(std::move(c));
        }
    } else {
        for (const auto &c1 : classes)
            for (const auto &c2 : classes)
                for (const auto &c3 : classes) {
                    PermCombo c;
                    c.perm = {reg, c1.representative(),
                              c2.representative(), c3.representative()};
                    c.label = "L1:" + c1.name() + " L2:" + c2.name() +
                              " L3:" + c3.name();
                    combos.push_back(std::move(c));
                }
    }
    return combos;
}

/** Variable index of (cache level l in {L1,L2,L3}, dim d). */
inline std::size_t
varIdx(int lvl, int d)
{
    return static_cast<std::size_t>((lvl - LvlL1) * NumDims + d);
}

constexpr int kNumVars = 3 * NumDims;

/**
 * Greedy capacity-filling seed: starting from the inner level's tile,
 * double the dimension with the largest remaining trip count while
 * the footprint stays within the level capacity. Candidate dimensions
 * are tried in decreasing-ratio order so the footprint is evaluated
 * only for the winning dimension (plus any larger-ratio dims whose
 * doubled tile would overflow the level).
 */
TileVec
greedySeed(const TileVec &base, const IntTileVec &extents,
           const ConvProblem &p, double capacity_words)
{
    TileVec t = base;
    for (;;) {
        // Dims with room to grow, largest remaining ratio first
        // (ties keep the lower dim index for determinism).
        std::array<std::pair<double, int>, NumDims> cand;
        int num_cand = 0;
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            const double ratio =
                static_cast<double>(extents[sd]) / t[sd];
            if (ratio > 1.0 + 1e-9)
                cand[static_cast<std::size_t>(num_cand++)] = {ratio, d};
        }
        std::stable_sort(cand.begin(), cand.begin() + num_cand,
                         [](const auto &a, const auto &b) {
                             return a.first > b.first;
                         });

        bool grew = false;
        for (int i = 0; i < num_cand; ++i) {
            const auto sd = static_cast<std::size_t>(
                cand[static_cast<std::size_t>(i)].second);
            TileVec trial = t;
            trial[sd] = std::min(t[sd] * 2.0,
                                 static_cast<double>(extents[sd]));
            if (totalFootprint(trial, p) <= capacity_words) {
                t = trial;
                grew = true;
                break;
            }
        }
        if (!grew)
            return t;
    }
}

/** Greedy prime-factor parallel split used during continuous solves. */
IntTileVec
greedySplit(int cores, const IntTileVec &extents)
{
    IntTileVec par{1, 1, 1, 1, 1, 1, 1};
    // Prime factors of the core count, largest first.
    std::vector<int> factors;
    int c = cores;
    for (int f = 2; f * f <= c; ++f)
        while (c % f == 0) {
            factors.push_back(f);
            c /= f;
        }
    if (c > 1)
        factors.push_back(c);
    std::sort(factors.rbegin(), factors.rend());

    const Dim cand[] = {DimK, DimH, DimW, DimN};
    for (int f : factors) {
        // Assign to the dim with the largest per-chunk extent that can
        // still absorb the factor.
        int best = -1;
        double best_extent = 0.0;
        for (Dim d : cand) {
            const auto sd = static_cast<std::size_t>(d);
            const double per =
                static_cast<double>(extents[sd]) /
                static_cast<double>(par[sd]);
            if (per >= f && per > best_extent) {
                best_extent = per;
                best = d;
            }
        }
        if (best >= 0)
            par[static_cast<std::size_t>(best)] *= f;
    }
    return par;
}

/** What an effort level buys: random starts per objective solve (on
 *  top of the deterministic seeds) and the solver's iteration budget. */
struct EffortParams
{
    int random_starts = 0;
    AugLagOptions auglag;
};

EffortParams
effortParams(OptimizerOptions::Effort effort)
{
    EffortParams ep;
    switch (effort) {
      case OptimizerOptions::Effort::Fast:
        ep.random_starts = 1;
        ep.auglag.outer_iters = 4;
        ep.auglag.inner.max_steps = 60;
        ep.auglag.inner.lr = 0.15;
        break;
      case OptimizerOptions::Effort::Standard:
        ep.random_starts = 2;
        ep.auglag.outer_iters = 6;
        ep.auglag.inner.max_steps = 120;
        break;
      case OptimizerOptions::Effort::Thorough:
        ep.random_starts = 4;
        ep.auglag.outer_iters = 8;
        ep.auglag.inner.max_steps = 250;
        break;
    }
    return ep;
}

/**
 * State of one Algorithm-1 run for a fixed permutation combo. The
 * per-level solves themselves are flattened into (combo x objective x
 * start) work items by optimizeConv; this holds the sequential state
 * between rounds (box bounds with fixed levels collapsed, the set of
 * unfixed levels) plus the precomputed EvalContext.
 */
struct ComboState
{
    const PermCombo *combo = nullptr;
    IntTileVec extents{};
    TileVec reg_tiles{};
    IntTileVec par{};
    std::unique_ptr<EvalContext> ctx;

    /** Box bounds; fixing a level collapses its interval. */
    std::vector<double> lo = std::vector<double>(kNumVars, 0.0);
    std::vector<double> hi = std::vector<double>(kNumVars, 0.0);

    /** Unfixed levels, in Algorithm 1's visit order. */
    std::vector<int> not_visited = {LvlReg, LvlL1, LvlL2, LvlL3};

    /** Deterministic seeds (greedy fill + geometric), pre-clamping. */
    std::vector<std::vector<double>> base_seeds;

    long evals = 0;

    ComboState(const PermCombo &c, const ConvProblem &p,
               const MachineSpec &m, const OptimizerOptions &opts)
        : combo(&c), extents(problemExtents(p)),
          reg_tiles(toTileVec(microkernelTiles(p, m)))
    {
        par = opts.parallel ? greedySplit(m.cores, extents)
                            : IntTileVec{1, 1, 1, 1, 1, 1, 1};
        for (int l = 0; l < 3; ++l)
            for (int d = 0; d < NumDims; ++d) {
                const auto sd = static_cast<std::size_t>(d);
                lo[varIdx(LvlL1 + l, d)] = std::log(reg_tiles[sd]);
                hi[varIdx(LvlL1 + l, d)] =
                    std::log(static_cast<double>(extents[sd]));
            }
        ctx = std::make_unique<EvalContext>(p, m, c.perm, reg_tiles,
                                            par, opts.parallel);
        buildSeeds(p, m);
    }

    void
    buildSeeds(const ConvProblem &p, const MachineSpec &m)
    {
        // Seed 1: greedily fill each level's capacity inside out.
        std::vector<double> s1(kNumVars);
        TileVec inner = reg_tiles;
        for (int l = 0; l < 3; ++l) {
            const double cap =
                static_cast<double>(m.capacityWords(LvlL1 + l));
            TileVec t = greedySeed(inner, extents, p, cap);
            for (int d = 0; d < NumDims; ++d)
                s1[varIdx(LvlL1 + l, d)] =
                    std::log(t[static_cast<std::size_t>(d)]);
            inner = t;
        }
        // Seed 2: geometric interpolation between the register tile
        // and the problem extents.
        std::vector<double> s2(kNumVars);
        for (int l = 0; l < 3; ++l) {
            const double frac = (l + 1) / 3.0;
            for (int d = 0; d < NumDims; ++d) {
                const auto sd = static_cast<std::size_t>(d);
                const double lo_d = std::log(reg_tiles[sd]);
                const double hi_d =
                    std::log(static_cast<double>(extents[sd]));
                s2[varIdx(LvlL1 + l, d)] = lo_d + frac * (hi_d - lo_d);
            }
        }
        base_seeds = {std::move(s1), std::move(s2)};
    }

    /** All start points for one objective solve: the deterministic
     *  seeds clamped into the current box, then @p random_starts
     *  uniform points in it from an Rng seeded by opts.seed + obj. */
    std::vector<std::vector<double>>
    startPoints(int obj, const OptimizerOptions &opts,
                int random_starts) const
    {
        std::vector<std::vector<double>> pts = base_seeds;
        for (auto &pt : pts)
            for (int i = 0; i < kNumVars; ++i) {
                const auto si = static_cast<std::size_t>(i);
                pt[si] = std::clamp(pt[si], lo[si], hi[si]);
            }
        Rng rng(opts.seed + static_cast<std::uint64_t>(obj));
        for (int s = 0; s < random_starts; ++s) {
            std::vector<double> x(static_cast<std::size_t>(kNumVars));
            for (int i = 0; i < kNumVars; ++i) {
                const auto si = static_cast<std::size_t>(i);
                x[si] = rng.uniformReal(lo[si], hi[si]);
            }
            pts.push_back(std::move(x));
        }
        return pts;
    }

    /** Collapse the box of @p lvl onto the solved point @p x. */
    void
    fixLevel(int lvl, const std::vector<double> &x)
    {
        for (int d = 0; d < NumDims; ++d) {
            const std::size_t i = varIdx(lvl, d);
            lo[i] = hi[i] = x[i];
        }
    }

    /** Decode the final continuous configuration (all levels fixed:
     *  lo == hi == the solved point). */
    MultiLevelConfig
    finalConfig() const
    {
        return ctx->decodeConfig(lo.data());
    }
};

/** One (combo, objective, start) solve in a round's flattened batch. */
struct SolveJob
{
    std::size_t state;  //!< Index into the ComboState vector.
    int obj;            //!< Objective level of this solve.
    std::size_t nlp;    //!< Index into the round's ConvNlp pool.
    std::size_t start;  //!< Index into the round's start-point pool.
};

} // namespace

OptimizerOptions::Effort
effortFromString(const std::string &s)
{
    if (s == "fast")
        return OptimizerOptions::Effort::Fast;
    if (s == "standard")
        return OptimizerOptions::Effort::Standard;
    if (s == "thorough")
        return OptimizerOptions::Effort::Thorough;
    fatal("unknown effort \"" + s +
          "\" (expected fast, standard, or thorough)");
}

IntTileVec
microkernelTiles(const ConvProblem &p, const MachineSpec &m)
{
    IntTileVec t{1, 1, 1, 1, 1, 1, 1};
    // Clamp to the per-group K extent: a depthwise layer (k/groups ==
    // 1) cannot vectorize over output channels at all.
    t[DimK] = std::min<std::int64_t>(2 * m.vec_lanes, p.kPerGroup());
    t[DimW] = std::min<std::int64_t>(6, p.w);
    return t;
}

Permutation
microkernelPermutation()
{
    return Permutation::parse("nhwkcrs");
}

OptimizeOutput
optimizeConv(const ConvProblem &p, const MachineSpec &m,
             const OptimizerOptions &opts)
{
    return optimizeConv(
        p, m, opts, globalPool().subWidth(threadsOrHardware(opts.threads)));
}

OptimizeOutput
optimizeConv(const ConvProblem &p, const MachineSpec &m,
             const OptimizerOptions &opts, ThreadPool::SubWidth pool)
{
    p.validate();
    m.validate();
    Timer timer;

    const std::vector<PermCombo> combos = buildCombos(opts.perm_mode);
    std::vector<ComboState> states;
    states.reserve(combos.size());
    for (const PermCombo &c : combos)
        states.emplace_back(c, p, m, opts);

    const EffortParams effort = effortParams(opts.effort);

    std::vector<SolverScratch> scratch(pool.size() + 1);

    // Algorithm 1, flattened: each round solves every (unfixed combo,
    // candidate objective level, start point) as one independent work
    // item across the pool, then fixes each combo's most-constrained
    // level. Results are reduced in job order, so the outcome is
    // deterministic regardless of scheduling.
    for (int round = 0; round < NumMemLevels; ++round) {
        std::vector<std::unique_ptr<ConvNlp>> nlps;
        std::vector<std::vector<double>> starts;
        std::vector<SolveJob> jobs;
        for (std::size_t ci = 0; ci < states.size(); ++ci) {
            ComboState &st = states[ci];
            for (int obj : st.not_visited) {
                const std::size_t nlp_idx = nlps.size();
                nlps.push_back(std::make_unique<ConvNlp>(
                    *st.ctx, obj, st.lo, st.hi));
                for (auto &pt :
                     st.startPoints(obj, opts, effort.random_starts)) {
                    jobs.push_back(
                        {ci, obj, nlp_idx, starts.size()});
                    starts.push_back(std::move(pt));
                }
            }
        }

        std::vector<NlpResult> results(jobs.size());
        pool.parallelForIndexed(
            jobs.size(), 1,
            [&](std::size_t worker, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i)
                    results[i] = solveAugLag(
                        *nlps[jobs[i].nlp], starts[jobs[i].start],
                        effort.auglag,
                        &scratch[worker]);
            });

        // Reduce: per (combo, objective) over starts, then per combo
        // over objectives (Algorithm 1's most-constrained level).
        std::size_t idx = 0;
        for (std::size_t ci = 0; ci < states.size(); ++ci) {
            ComboState &st = states[ci];
            double min_score = std::numeric_limits<double>::infinity();
            int min_lvl = st.not_visited.front();
            NlpResult min_result;
            for (int obj : st.not_visited) {
                NlpResult best;
                best.objective =
                    std::numeric_limits<double>::infinity();
                best.max_violation =
                    std::numeric_limits<double>::infinity();
                for (; idx < jobs.size() && jobs[idx].state == ci &&
                       jobs[idx].obj == obj;
                     ++idx) {
                    NlpResult &r = results[idx];
                    st.evals += r.evals;
                    if (betterNlpResult(r, best))
                        best = std::move(r);
                }
                const double score = best.feasible
                                         ? best.objective
                                         : 1e6 + best.max_violation;
                if (score < min_score) {
                    min_score = score;
                    min_lvl = obj;
                    min_result = std::move(best);
                }
            }
            // Fix the most-constrained level's tile sizes (the
            // register level's tiles are already pinned by the
            // microkernel).
            if (min_lvl != LvlReg && !min_result.x.empty())
                st.fixLevel(min_lvl, min_result.x);
            st.not_visited.erase(std::find(st.not_visited.begin(),
                                           st.not_visited.end(),
                                           min_lvl));
        }
        checkInvariant(idx == jobs.size(),
                       "optimizeConv: round reduction mismatch");
    }

    // All levels fixed: integerize, balance, and rank.
    OptimizeOutput out;
    out.candidates.resize(states.size());
    pool.parallelFor(states.size(), [&](std::size_t i) {
        ComboState &st = states[i];
        MultiLevelConfig final_cfg = st.finalConfig();
        final_cfg.clampNesting(st.extents);

        Candidate cand;
        cand.config = integerize(final_cfg, p, m, opts.parallel);
        if (opts.parallel)
            loadBalance(cand.config, p, m);
        else
            cand.config.par = {1, 1, 1, 1, 1, 1, 1};
        cand.predicted = evalMultiLevel(cand.config, p, m, opts.parallel);
        cand.perm_label = st.combo->label;
        out.candidates[i] = std::move(cand);
    });

    for (const auto &st : states)
        out.solver_evals += st.evals;

    std::stable_sort(out.candidates.begin(), out.candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.predicted.total_seconds <
                                b.predicted.total_seconds;
                     });
    if (static_cast<int>(out.candidates.size()) > opts.top_k)
        out.candidates.resize(static_cast<std::size_t>(opts.top_k));
    out.seconds = timer.seconds();
    return out;
}

} // namespace mopt
