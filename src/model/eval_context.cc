#include "model/eval_context.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.hh"
#include "model/footprint.hh"

namespace mopt {

namespace {

/** First variable of level @p l's block, or -1 for the pinned Reg level. */
inline int
ownBase(int l)
{
    return l >= LvlL1 ? (l - LvlL1) * NumDims : -1;
}

/** First variable of the block holding level @p l's enclosing extents
 *  (-1 for L3, whose enclosing extents are the problem sizes). */
inline int
outerBase(int l)
{
    switch (l) {
      case LvlReg:
        return 0;
      case LvlL1:
        return NumDims;
      case LvlL2:
        return 2 * NumDims;
      default:
        return -1;
    }
}

/** Source of EvalContext ids: 0 is never handed out (empty memo). */
std::atomic<std::uint64_t> g_next_context_id{1};

} // namespace

EvalContext::EvalContext(const ConvProblem &p, const MachineSpec &m,
                         const std::array<Permutation, NumMemLevels> &perms,
                         const TileVec &reg_tiles, const IntTileVec &par,
                         bool parallel)
    : id_(g_next_context_id.fetch_add(1, std::memory_order_relaxed)),
      p_(&p), extents_(toTileVec(problemExtents(p))),
      reg_tiles_(reg_tiles), perms_(perms), int_par_(par),
      par_(toTileVec(par)), parallel_(parallel), flops_(p.flops())
{
    std::int64_t total_par = 1;
    for (std::int64_t f : par)
        total_par *= f;
    const std::int64_t active =
        parallel_ ? std::min<std::int64_t>(total_par, m.cores) : 1;

    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        const double bw = m.bandwidth(l, parallel_) * 1e9;
        const double ways =
            (parallel_ && l != LvlL3) ? static_cast<double>(active) : 1.0;
        sec_per_word_[sl] = 4.0 / (bw * ways);
        cap_words_[sl] = static_cast<double>(m.capacityWords(l));

        const Permutation &perm = perms[sl];
        pos_dim_[sl][0] = DimN; // unused slot, positions are 1-based
        for (int pos = 1; pos <= NumDims; ++pos)
            pos_dim_[sl][static_cast<std::size_t>(pos)] =
                perm.dimAtPosition(pos);
        for (int t = 0; t < NumTensors; ++t) {
            const auto st = static_cast<std::size_t>(t);
            r_pos_[sl][st] =
                perm.innermostPresentPosition(static_cast<TensorId>(t));
            r_dim_[sl][st] = perm.dimAtPosition(r_pos_[sl][st]);
        }
    }

    compute_seconds_ =
        flops_ /
        (m.peakGflopsPerCore() * static_cast<double>(active) * 1e9);

    // overheadCounts in Continuous mode: calls step n and h by one
    // point, k and w by the register tile, c/r/s by the L1 tile.
    const double groups = static_cast<double>(p.groups);
    call_coef_ = m.t_call * groups / static_cast<double>(active);
    sync_coef_ = parallel_ ? m.t_sync * groups : 0.0;
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const Dim dim = static_cast<Dim>(d);
        call_coef_ *= (dim == DimK || dim == DimW)
                          ? extents_[sd] / reg_tiles_[sd]
                          : extents_[sd];
        sync_coef_ *= extents_[sd];
    }
}

void
EvalContext::overhead(Scratch &s) const
{
    const TileVec &t1 = s.tiles[LvlL1];
    double t3_prod = 1.0;
    for (double t : s.tiles[LvlL3])
        t3_prod *= t;
    s.call_overhead = call_coef_ / (t1[DimC] * t1[DimR] * t1[DimS]);
    s.sync_overhead = sync_coef_ / t3_prod;
}

MultiLevelConfig
EvalContext::decodeConfig(const double *x) const
{
    MultiLevelConfig cfg;
    for (int l = 0; l < NumMemLevels; ++l)
        cfg.level[static_cast<std::size_t>(l)].perm =
            perms_[static_cast<std::size_t>(l)];
    cfg.level[LvlReg].tiles = reg_tiles_;
    for (int l = LvlL1; l <= LvlL3; ++l)
        for (int d = 0; d < NumDims; ++d)
            cfg.level[static_cast<std::size_t>(l)]
                .tiles[static_cast<std::size_t>(d)] =
                std::exp(x[ownBase(l) + d]);
    cfg.par = int_par_;
    return cfg;
}

void
EvalContext::decode(const double *x, Scratch &s) const
{
    s.tiles[LvlReg] = reg_tiles_;
    for (int l = LvlL1; l <= LvlL3; ++l)
        for (int d = 0; d < NumDims; ++d) {
            const auto j = static_cast<std::size_t>(ownBase(l) + d);
            if (x[j] != s.seen_x[j]) {
                s.seen_x[j] = x[j];
                s.seen_exp[j] = std::exp(x[j]);
            }
            s.tiles[static_cast<std::size_t>(l)]
                   [static_cast<std::size_t>(d)] = s.seen_exp[j];
        }

    s.outer[LvlL3] = extents_;
    if (parallel_) {
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            s.outer[LvlL2][sd] =
                std::max(1.0, s.tiles[LvlL3][sd] / par_[sd]);
        }
    } else {
        s.outer[LvlL2] = s.tiles[LvlL3];
    }
    s.outer[LvlL1] = s.tiles[LvlL2];
    s.outer[LvlReg] = s.tiles[LvlL1];
}

double
EvalContext::levelVolume(int l, const Scratch &s, TensorVolumes &vol) const
{
    const auto sl = static_cast<std::size_t>(l);
    const TileVec &T = s.tiles[sl];
    const TileVec &O = s.outer[sl];

    double V = 0.0;
    for (int t = 0; t < NumTensors; ++t) {
        const auto st = static_cast<std::size_t>(t);
        const int r_pos = r_pos_[sl][st];
        const Dim r_dim = r_dim_[sl][st];
        if (t == TenIn && (r_dim == DimW || r_dim == DimH ||
                           r_dim == DimS || r_dim == DimR)) {
            double ext_h, ext_w;
            sweptInputExtents(r_dim, T, O, ext_h, ext_w);
            double trip = 1.0;
            for (int pos = r_pos + 1; pos <= NumDims; ++pos) {
                const auto sd = static_cast<std::size_t>(
                    pos_dim_[sl][static_cast<std::size_t>(pos)]);
                trip *= O[sd] / T[sd];
            }
            vol[st] = trip * T[DimN] * T[DimC] * ext_h * ext_w;
        } else {
            // Case 1: whole-slice replacement at every iteration of
            // the loop at R_A and beyond.
            const double fp =
                tileFootprint(static_cast<TensorId>(t), T, *p_);
            const double factor = t == TenOut ? 2.0 : 1.0;
            double trip = 1.0;
            for (int pos = r_pos; pos <= NumDims; ++pos) {
                const auto sd = static_cast<std::size_t>(
                    pos_dim_[sl][static_cast<std::size_t>(pos)]);
                trip *= O[sd] / T[sd];
            }
            vol[st] = factor * trip * fp;
        }
        V += vol[st];
    }

    // Total traffic = per-enclosing-tile volume x number of enclosing
    // tiles over the whole problem. Extents are per group; the
    // implicit group loop multiplies the count by p.groups (a constant
    // factor, so log-space gradients are unchanged).
    double count = static_cast<double>(p_->groups);
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        count *= extents_[sd] / O[sd];
    }
    return V * count;
}

void
EvalContext::sweptInputExtents(Dim r_dim, const TileVec &T,
                               const TileVec &O, double &ext_h,
                               double &ext_w) const
{
    const int stride = p_->stride;
    const int dil = p_->dilation;
    ext_h = inputExtent(T[DimH], T[DimR], stride, dil);
    ext_w = inputExtent(T[DimW], T[DimS], stride, dil);
    switch (r_dim) {
      case DimW:
        ext_w = inputExtent(O[DimW], T[DimS], stride, dil);
        break;
      case DimS:
        ext_w = inputExtent(T[DimW], O[DimS], stride, dil);
        break;
      case DimH:
        ext_h = inputExtent(O[DimH], T[DimR], stride, dil);
        break;
      default: // DimR
        ext_h = inputExtent(T[DimH], O[DimR], stride, dil);
        break;
    }
}

void
EvalContext::levelGradient(int l, const Scratch &s,
                           const TensorVolumes &vols, double *dls) const
{
    const auto sl = static_cast<std::size_t>(l);
    const TileVec &T = s.tiles[sl];
    const TileVec &O = s.outer[sl];
    const int own = ownBase(l);
    const int ob = outerBase(l);
    const int stride = p_->stride;
    const int dil = p_->dilation;

    // d log O_d / d x_{outer,d}: 1 except at the per-core L3 share's
    // max(1, .) clamp, where the clamped side is constant.
    DimArray<double> chain{};
    if (ob >= 0) {
        for (int d = 0; d < NumDims; ++d) {
            const auto sd = static_cast<std::size_t>(d);
            chain[sd] = (l == LvlL2 && parallel_ &&
                         s.tiles[LvlL3][sd] / par_[sd] <= 1.0)
                            ? 0.0
                            : 1.0;
        }
    }

    std::fill(dls, dls + kNumVars, 0.0);

    // dls first accumulates sum_t vol_t * dlog(vol_t); it is divided
    // by the total volume (and count terms added) at the end.
    double V = 0.0;
    for (int t = 0; t < NumTensors; ++t) {
        const auto st = static_cast<std::size_t>(t);
        const int r_pos = r_pos_[sl][st];
        const Dim r_dim = r_dim_[sl][st];
        const double vol = vols[st];
        V += vol;
        if (t == TenIn && (r_dim == DimW || r_dim == DimH ||
                           r_dim == DimS || r_dim == DimR)) {
            double ext_h, ext_w;
            sweptInputExtents(r_dim, T, O, ext_h, ext_w);
            if (own >= 0) {
                dls[own + DimN] += vol;
                dls[own + DimC] += vol;
            }
            // Extent terms: d log inputExtent(a, b) / d log a =
            // a*stride/ext, / d log b = b*dilation/ext; the swept
            // argument routes to the enclosing level's variable.
            auto ownTerm = [&](Dim d, double coef) {
                if (own >= 0)
                    dls[own + d] += vol * coef;
            };
            auto obTerm = [&](Dim d, double coef) {
                if (ob >= 0)
                    dls[ob + d] +=
                        vol * coef * chain[static_cast<std::size_t>(d)];
            };
            switch (r_dim) {
              case DimW:
                ownTerm(DimH, T[DimH] * stride / ext_h);
                ownTerm(DimR, T[DimR] * dil / ext_h);
                obTerm(DimW, O[DimW] * stride / ext_w);
                ownTerm(DimS, T[DimS] * dil / ext_w);
                break;
              case DimS:
                ownTerm(DimH, T[DimH] * stride / ext_h);
                ownTerm(DimR, T[DimR] * dil / ext_h);
                ownTerm(DimW, T[DimW] * stride / ext_w);
                obTerm(DimS, O[DimS] * dil / ext_w);
                break;
              case DimH:
                obTerm(DimH, O[DimH] * stride / ext_h);
                ownTerm(DimR, T[DimR] * dil / ext_h);
                ownTerm(DimW, T[DimW] * stride / ext_w);
                ownTerm(DimS, T[DimS] * dil / ext_w);
                break;
              default: // DimR
                ownTerm(DimH, T[DimH] * stride / ext_h);
                obTerm(DimR, O[DimR] * dil / ext_h);
                ownTerm(DimW, T[DimW] * stride / ext_w);
                ownTerm(DimS, T[DimS] * dil / ext_w);
                break;
            }
            for (int pos = r_pos + 1; pos <= NumDims; ++pos) {
                const Dim d = pos_dim_[sl][static_cast<std::size_t>(pos)];
                if (own >= 0)
                    dls[own + d] -= vol;
                if (ob >= 0)
                    dls[ob + d] += vol * chain[static_cast<std::size_t>(d)];
            }
            continue;
        }

        for (int pos = r_pos; pos <= NumDims; ++pos) {
            const Dim d = pos_dim_[sl][static_cast<std::size_t>(pos)];
            if (own >= 0)
                dls[own + d] -= vol;
            if (ob >= 0)
                dls[ob + d] += vol * chain[static_cast<std::size_t>(d)];
        }
        if (own < 0)
            continue;
        switch (t) {
          case TenOut:
            dls[own + DimN] += vol;
            dls[own + DimK] += vol;
            dls[own + DimH] += vol;
            dls[own + DimW] += vol;
            break;
          case TenKer:
            dls[own + DimK] += vol;
            dls[own + DimC] += vol;
            dls[own + DimR] += vol;
            dls[own + DimS] += vol;
            break;
          default: { // TenIn, case 1
            dls[own + DimN] += vol;
            dls[own + DimC] += vol;
            const double ext_h =
                inputExtent(T[DimH], T[DimR], stride, dil);
            const double ext_w =
                inputExtent(T[DimW], T[DimS], stride, dil);
            dls[own + DimH] += vol * T[DimH] * stride / ext_h;
            dls[own + DimR] += vol * T[DimR] * dil / ext_h;
            dls[own + DimW] += vol * T[DimW] * stride / ext_w;
            dls[own + DimS] += vol * T[DimS] * dil / ext_w;
            break;
          }
        }
    }

    const double inv_v = 1.0 / V;
    for (int j = 0; j < kNumVars; ++j)
        dls[j] *= inv_v;
    if (ob >= 0)
        for (int d = 0; d < NumDims; ++d)
            dls[ob + d] -= chain[static_cast<std::size_t>(d)];
}

void
EvalContext::evalSeconds(const double *x, Scratch &s,
                         std::array<double, NumMemLevels> &seconds) const
{
    decode(x, s);
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        Scratch::LevelMemo &e = s.memo[sl];
        if (e.ctx != id_ || e.tiles != s.tiles[sl] ||
            e.outer != s.outer[sl]) {
            e.ctx = id_;
            e.tiles = s.tiles[sl];
            e.outer = s.outer[sl];
            e.has_grad = false;
            e.seconds = levelVolume(l, s, e.vols) * sec_per_word_[sl];
        }
        seconds[sl] = e.seconds;
    }
    overhead(s);
}

const double *
EvalContext::levelGrad(int l, Scratch &s) const
{
    const auto sl = static_cast<std::size_t>(l);
    Scratch::LevelMemo &e = s.memo[sl];
    checkInvariant(e.ctx == id_, "levelGrad: call evalSeconds first");
    if (!e.has_grad) {
        levelGradient(l, s, e.vols, s.dlogsec[sl].data());
        e.has_grad = true;
    }
    return s.dlogsec[sl].data();
}

double
EvalContext::logCapacityRatio(int lvl, const Scratch &s,
                              double *grad7) const
{
    checkInvariant(lvl >= LvlL1 && lvl <= LvlL3,
                   "logCapacityRatio: cache levels only");
    const TileVec &T = s.tiles[static_cast<std::size_t>(lvl)];
    const double fp_out = tileFootprint(TenOut, T, *p_);
    const double fp_ker = tileFootprint(TenKer, T, *p_);
    const double fp_in = tileFootprint(TenIn, T, *p_);
    const double total = fp_out + fp_ker + fp_in;

    if (grad7) {
        std::fill(grad7, grad7 + NumDims, 0.0);
        grad7[DimN] += fp_out + fp_in;
        grad7[DimK] += fp_out + fp_ker;
        grad7[DimC] += fp_ker + fp_in;
        grad7[DimH] += fp_out;
        grad7[DimW] += fp_out;
        grad7[DimR] += fp_ker;
        grad7[DimS] += fp_ker;
        const double ext_h =
            inputExtent(T[DimH], T[DimR], p_->stride, p_->dilation);
        const double ext_w =
            inputExtent(T[DimW], T[DimS], p_->stride, p_->dilation);
        grad7[DimH] += fp_in * T[DimH] * p_->stride / ext_h;
        grad7[DimR] += fp_in * T[DimR] * p_->dilation / ext_h;
        grad7[DimW] += fp_in * T[DimW] * p_->stride / ext_w;
        grad7[DimS] += fp_in * T[DimS] * p_->dilation / ext_w;
        for (int d = 0; d < NumDims; ++d)
            grad7[d] /= total;
    }
    return std::log(total / cap_words_[static_cast<std::size_t>(lvl)]);
}

CostBreakdown
EvalContext::evalBreakdown(const double *x, Scratch &s) const
{
    decode(x, s);
    for (Scratch::LevelMemo &e : s.memo)
        e.ctx = 0;
    CostBreakdown out;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        TensorVolumes vols;
        out.volume_words[sl] = levelVolume(l, s, vols);
        out.seconds[sl] = out.volume_words[sl] * sec_per_word_[sl];
    }
    out.bottleneck = LvlReg;
    for (int l = 1; l < NumMemLevels; ++l)
        if (out.seconds[static_cast<std::size_t>(l)] >
            out.seconds[static_cast<std::size_t>(out.bottleneck)])
            out.bottleneck = l;
    out.compute_seconds = compute_seconds_;
    overhead(s);
    out.overhead_seconds = s.call_overhead + s.sync_overhead;
    out.total_seconds =
        std::max(out.compute_seconds,
                 out.seconds[static_cast<std::size_t>(out.bottleneck)]) +
        out.overhead_seconds;
    out.gflops = flops_ / out.total_seconds / 1e9;
    return out;
}

} // namespace mopt
