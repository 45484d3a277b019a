#include "cachesim/conv_trace.hh"

#include "common/logging.hh"
#include "exec/loop_nest.hh"

namespace mopt {

namespace {

/** Word-address layout: In at 0, Ker after In, Out after Ker. */
struct AddressMap
{
    std::int64_t in_base = 0;
    std::int64_t ker_base;
    std::int64_t out_base;
    std::int64_t in_h, in_w; //!< Input spatial extents.
    std::int64_t c, r, s;    //!< Channel and kernel extents.

    explicit AddressMap(const ConvProblem &p)
        : ker_base(p.inSize()), out_base(p.inSize() + p.kerSize()),
          in_h(p.inH()), in_w(p.inW()), c(p.c), r(p.r), s(p.s)
    {
    }

    std::int64_t
    inAddr(std::int64_t n, std::int64_t cc, std::int64_t y,
           std::int64_t x) const
    {
        return in_base + ((n * c + cc) * in_h + y) * in_w + x;
    }

    std::int64_t
    kerAddr(std::int64_t k, std::int64_t cc, std::int64_t rr,
            std::int64_t ss) const
    {
        return ker_base + ((k * c + cc) * r + rr) * s + ss;
    }

};

} // namespace

TraceStats
simulateConvTrace(const ConvProblem &p, const ExecConfig &cfg,
                  const MachineSpec &m, std::int64_t line_words)
{
    return simulateConvTraceRegion(
        p, cfg,
        {m.capacityWords(LvlL1), m.capacityWords(LvlL2),
         m.capacityWords(LvlL3)},
        fullRegion(p), line_words);
}

void
forEachConvAccess(const ConvProblem &p, const ExecConfig &cfg,
                  const TileBounds &region,
                  const std::function<void(std::int64_t, bool)> &fn)
{
    const AddressMap amap(p);
    const std::int64_t out_base = amap.out_base;
    const auto out_addr = [&](std::int64_t n, std::int64_t k,
                              std::int64_t y, std::int64_t x) {
        return out_base + ((n * p.k + k) * p.h + y) * p.w + x;
    };

    walkTilesAtLevel(cfg, LvlL3, region, [&](const TileBounds &l3) {
        walkTilesAtLevel(cfg, LvlL2, l3, [&](const TileBounds &l2) {
            walkTilesAtLevel(cfg, LvlL1, l2, [&](const TileBounds &l1) {
                walkRegisterTiles(
                    cfg, l1,
                    [&](std::int64_t n, std::int64_t h, std::int64_t w0,
                        std::int64_t wb, std::int64_t k0,
                        std::int64_t kb) {
                        // The microkernel's (c, r, s) reduction over
                        // the L1 tile: per step, kb kernel words and
                        // wb input words.
                        for (std::int64_t c = l1.lo[DimC];
                             c < l1.hi[DimC]; ++c) {
                            for (std::int64_t r = l1.lo[DimR];
                                 r < l1.hi[DimR]; ++r) {
                                for (std::int64_t s = l1.lo[DimS];
                                     s < l1.hi[DimS]; ++s) {
                                    for (std::int64_t k = k0;
                                         k < k0 + kb; ++k)
                                        fn(amap.kerAddr(k, c, r, s),
                                           false);
                                    for (std::int64_t wi = 0; wi < wb;
                                         ++wi)
                                        fn(amap.inAddr(
                                               n, c,
                                               h * p.stride +
                                                   r * p.dilation,
                                               (w0 + wi) * p.stride +
                                                   s * p.dilation),
                                           false);
                                }
                            }
                        }
                        // Accumulator spill: read-modify-write of the
                        // Out block.
                        for (std::int64_t k = k0; k < k0 + kb; ++k) {
                            for (std::int64_t wi = 0; wi < wb; ++wi) {
                                const std::int64_t a =
                                    out_addr(n, k, h, w0 + wi);
                                fn(a, false);
                                fn(a, true);
                            }
                        }
                    });
            });
        });
    });
}

TraceStats
simulateConvTraceRegion(const ConvProblem &p, const ExecConfig &cfg,
                        const std::array<std::int64_t, 3> &capacities_words,
                        const TileBounds &region, std::int64_t line_words)
{
    if (p.groups != 1)
        fatal("simulateConvTrace: grouped conv is model-only for now "
              "(groups=1 required, got " + p.summary() + ")");
    Hierarchy hier({capacities_words[0], capacities_words[1],
                    capacities_words[2]},
                   line_words);
    forEachConvAccess(p, cfg, region,
                      [&](std::int64_t addr, bool is_write) {
                          hier.access(addr, is_write);
                      });

    hier.flushAll(); // final writebacks reach memory

    TraceStats stats;
    stats.reg_words = hier.totalAccesses();
    for (int i = 0; i < 3; ++i) {
        stats.traffic[static_cast<std::size_t>(i)] = hier.traffic(i);
        stats.level_words[static_cast<std::size_t>(i)] =
            stats.traffic[static_cast<std::size_t>(i)]
                .trafficWords(line_words);
    }
    return stats;
}

} // namespace mopt
