#include "cachesim/sim_machine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "exec/loop_nest.hh"

namespace mopt {

namespace {

/**
 * One core's private L1/L2 stack in front of the shared L3: cascades
 * demand accesses and dirty-victim writebacks exactly like Hierarchy,
 * but with the outermost level owned by the caller (shared across
 * cores, as on the paper's machines — Sec. 7: "the memory-to-L3 data
 * movement remains the same" under parallelization).
 */
class PrivateStack
{
  public:
    PrivateStack(std::int64_t l1_words, std::int64_t l2_words,
                 std::int64_t line_words)
        : l1_(l1_words, line_words), l2_(l2_words, line_words)
    {
    }

    void
    access(LruCache &shared_l3, std::int64_t addr, bool is_write)
    {
        ++refs_;
        std::int64_t v1 = -1;
        const AccessResult r1 = l1_.access(addr, is_write, &v1);
        if (v1 >= 0) {
            const std::int64_t v2 = l2_.installWriteback(v1);
            if (v2 >= 0)
                shared_l3.installWriteback(v2);
        }
        if (r1 == AccessResult::Hit)
            return;
        std::int64_t v2 = -1;
        const AccessResult r2 = l2_.access(addr, false, &v2);
        if (v2 >= 0)
            shared_l3.installWriteback(v2);
        if (r2 == AccessResult::Hit)
            return;
        shared_l3.access(addr, false);
    }

    /** Drain both private levels into the shared L3. */
    void
    drain(LruCache &shared_l3)
    {
        std::vector<std::int64_t> dirty;
        l1_.flush(dirty);
        for (const std::int64_t w : dirty) {
            const std::int64_t v = l2_.installWriteback(w);
            if (v >= 0)
                shared_l3.installWriteback(v);
        }
        dirty.clear();
        l2_.flush(dirty);
        for (const std::int64_t w : dirty)
            shared_l3.installWriteback(w);
    }

    std::int64_t refs() const { return refs_; }
    std::int64_t l1Traffic() const
    {
        return l1_.misses() + l1_.writebacks();
    }
    std::int64_t l2Traffic() const
    {
        return l2_.misses() + l2_.writebacks();
    }

  private:
    LruCache l1_;
    LruCache l2_;
    std::int64_t refs_ = 0;
};

} // namespace

MachineSpec
scaledMachine(const MachineSpec &base, std::int64_t div_l1,
              std::int64_t div_l2, std::int64_t div_l3)
{
    checkUser(div_l1 >= 1 && div_l2 >= 1 && div_l3 >= 1,
              "scaledMachine: divisors must be >= 1");
    MachineSpec m = base;
    m.name = base.name + "/" + std::to_string(div_l1) + ":" +
             std::to_string(div_l2) + ":" + std::to_string(div_l3);
    const std::int64_t divisors[3] = {div_l1, div_l2, div_l3};
    for (int l = LvlL1; l <= LvlL3; ++l) {
        auto &lvl = m.levels[static_cast<std::size_t>(l)];
        lvl.capacity_bytes = std::max<std::int64_t>(
            64, lvl.capacity_bytes / divisors[l - LvlL1]);
    }
    // Keep capacities strictly growing after the floor (including
    // relative to the untouched register file).
    for (int l = LvlL1; l <= LvlL3; ++l) {
        auto &lvl = m.levels[static_cast<std::size_t>(l)];
        const auto &inner = m.levels[static_cast<std::size_t>(l - 1)];
        lvl.capacity_bytes =
            std::max(lvl.capacity_bytes, inner.capacity_bytes * 2);
    }
    m.validate();
    return m;
}

SimTimeBreakdown
simulateTime(const ConvProblem &p, const ExecConfig &cfg,
             const MachineSpec &m, bool parallel,
             const SimTimeOptions &opts)
{
    SimTimeBreakdown out;

    // Traffic accumulation: per-level totals plus the slowest core's
    // share for the private boundaries.
    std::array<double, NumMemLevels> total{};
    std::array<double, NumMemLevels> max_core{};

    const auto accumulate = [&](const TraceStats &ts, double weight) {
        std::array<double, NumMemLevels> words{};
        words[LvlReg] = static_cast<double>(ts.reg_words) * weight;
        for (int i = 0; i < 3; ++i)
            words[static_cast<std::size_t>(LvlL1 + i)] =
                static_cast<double>(
                    ts.level_words[static_cast<std::size_t>(i)]) *
                weight;
        for (int l = 0; l < NumMemLevels; ++l) {
            total[static_cast<std::size_t>(l)] +=
                words[static_cast<std::size_t>(l)];
            max_core[static_cast<std::size_t>(l)] = std::max(
                max_core[static_cast<std::size_t>(l)],
                words[static_cast<std::size_t>(l)] / weight);
        }
    };

    int active = 1;
    if (!parallel) {
        accumulate(simulateConvTrace(p, cfg, m, opts.line_words), 1.0);
    } else {
        // The paper's parallel structure (Sec. 7, Listing 5): the L3
        // tile loops run *sequentially* — every core works inside the
        // same L3 tile, whose working set lives in the one shared L3
        // — and the L2-tile band within it is split across cores.
        // Each core keeps persistent private L1/L2 caches; per L3
        // tile, core i's chunk is replayed against them and the
        // shared L3 (a serialization of the true interleaving that
        // preserves private traffic and cross-core sharing). This is
        // exactly the executor's loop structure (exec/conv_exec.cc).
        LruCache shared_l3(m.capacityWords(LvlL3), opts.line_words);
        std::vector<PrivateStack> cores;
        std::size_t num_chunks = 0;

        walkTilesAtLevel(
            cfg, LvlL3, fullRegion(p), [&](const TileBounds &l3) {
                const auto chunks = splitRegion(l3, cfg.par);
                num_chunks = std::max(num_chunks, chunks.size());
                while (cores.size() < chunks.size())
                    cores.emplace_back(m.capacityWords(LvlL1),
                                       m.capacityWords(LvlL2),
                                       opts.line_words);
                for (std::size_t i = 0; i < chunks.size(); ++i) {
                    forEachConvAccess(
                        p, cfg, chunks[i],
                        [&](std::int64_t addr, bool is_write) {
                            cores[i].access(shared_l3, addr, is_write);
                        });
                }
            });

        active = static_cast<int>(std::max<std::size_t>(1, num_chunks));
        for (auto &core : cores) {
            core.drain(shared_l3);
            TraceStats ts;
            ts.reg_words = core.refs();
            ts.level_words[0] = core.l1Traffic() * opts.line_words;
            ts.level_words[1] = core.l2Traffic() * opts.line_words;
            ts.level_words[2] = 0; // shared; accounted below
            accumulate(ts, 1.0);
        }
        shared_l3.flush();
        const double l3_words =
            static_cast<double>(shared_l3.misses() +
                                shared_l3.writebacks()) *
            static_cast<double>(opts.line_words);
        total[LvlL3] = l3_words;
        max_core[LvlL3] = l3_words;
    }

    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        out.volume_words[sl] = total[sl];
        const double bw = m.bandwidth(l, parallel) * 1e9;
        double bytes;
        if (parallel && l != LvlL3) {
            // Private boundary: the slowest core's traffic against the
            // per-core parallel bandwidth.
            bytes = max_core[sl] * 4.0;
        } else if (parallel) {
            // Shared memory boundary: aggregate traffic.
            bytes = total[sl] * 4.0;
        } else {
            bytes = total[sl] * 4.0;
        }
        out.seconds[sl] = bytes / bw;
    }

    out.bottleneck = LvlReg;
    for (int l = 1; l < NumMemLevels; ++l)
        if (out.seconds[static_cast<std::size_t>(l)] >
            out.seconds[static_cast<std::size_t>(out.bottleneck)])
            out.bottleneck = l;

    out.active_cores = active;
    out.compute_seconds =
        p.flops() /
        (m.peakGflopsPerCore() * static_cast<double>(active) * 1e9);
    out.total_seconds =
        std::max(out.compute_seconds,
                 out.seconds[static_cast<std::size_t>(out.bottleneck)]);
    out.gflops = p.flops() / out.total_seconds / 1e9;
    return out;
}

} // namespace mopt
