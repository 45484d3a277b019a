/**
 * @file
 * The tile-size NLP of Algorithm 1 (Sec. 8) as a first-class
 * NlpProblem with closed-form derivatives. For a fixed permutation
 * combo and objective level, the program over the 21 log-tile
 * variables x = log T (L1..L3; the register tile is pinned) is
 *
 *   minimize    log(seconds[obj] + overhead)
 *   subject to  log(footprint_l / capacity_l) <= 0   (3 capacity)
 *               x_{l,d} - x_{l+1,d}           <= 0   (14 nesting)
 *               log seconds[k] - log seconds[obj] <= 0 (3 dominance)
 *
 * where overhead is the model's per-call and per-region cost, which
 * falls as the L1 reduction tiles and the L3 tiles grow. Objective and
 * constraints come from an EvalContext, and augLagValueGrad assembles
 * the augmented Lagrangian's exact gradient from the sparse pieces the
 * step uses: the objective level's gradient, a dominance row's level
 * gradient and a capacity row's seven entries only when the row is
 * active, and a nesting row as +t/-t on its two variables. One call
 * is one model evaluation — the replacement for 2x21 central-
 * difference probes per Adam step.
 */

#ifndef MOPT_OPTIMIZER_CONV_NLP_HH
#define MOPT_OPTIMIZER_CONV_NLP_HH

#include <array>
#include <vector>

#include "model/eval_context.hh"
#include "solver/nlp.hh"

namespace mopt {

/**
 * NlpProblem view of one (permutation combo, objective level) solve.
 * Thread-safe: concurrent evaluations share the immutable EvalContext
 * and use thread-local model scratch, so one ConvNlp can be solved
 * from many start points in parallel.
 */
class ConvNlp : public NlpProblem
{
  public:
    static constexpr int kNumVars = EvalContext::kNumVars;
    static constexpr int kNumCons =
        3 + 2 * NumDims + (NumMemLevels - 1);

    /**
     * @param ctx      evaluation context (must outlive the problem)
     * @param obj_lvl  memory level whose time is minimized
     * @param lo,hi    box bounds (fixed levels have collapsed
     *                 intervals)
     */
    ConvNlp(const EvalContext &ctx, int obj_lvl, std::vector<double> lo,
            std::vector<double> hi);

    int dim() const override { return kNumVars; }
    int numConstraints() const override { return kNumCons; }
    const std::vector<double> &lowerBounds() const override { return lo_; }
    const std::vector<double> &upperBounds() const override { return hi_; }

    double evalAll(const std::vector<double> &x,
                   std::vector<double> &g) const override;

    double augLagValueGrad(const std::vector<double> &x,
                           const std::vector<double> &lambda, double mu,
                           std::vector<double> &g,
                           std::vector<double> &grad) const override;

  private:
    /**
     * The value pass both entry points share: level times into
     * @p secs, every constraint into @p g, and the objective's
     * argument (level time plus overhead, floored) as the result.
     */
    double evalValues(const std::vector<double> &x, EvalContext::Scratch &s,
                      std::array<double, NumMemLevels> &secs,
                      std::vector<double> &g) const;

    const EvalContext *ctx_;
    int obj_lvl_;
    std::vector<double> lo_, hi_;
};

} // namespace mopt

#endif // MOPT_OPTIMIZER_CONV_NLP_HH
