/**
 * @file
 * Measurement harness reproducing the paper's methodology (Sec. 10):
 * repeated runs with a cache flush between them, first run discarded,
 * mean GFLOPS with a 95% confidence interval.
 */

#ifndef MOPT_EXEC_MEASURE_HH
#define MOPT_EXEC_MEASURE_HH

#include <cstdint>
#include <vector>

#include "conv/problem.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Options for measureConfig. */
struct MeasureOptions
{
    int reps = 5;            //!< Timed repetitions (paper: 50).
    int warmups = 1;         //!< Discarded leading runs.
    bool flush_cache = true; //!< Stream a large buffer between runs.
    int threads = 0;         //!< runConv participants; 0 = product of cfg.par.
    std::int64_t flush_bytes = 64ll << 20;
    std::uint64_t seed = 42; //!< Tensor initialization seed.
};

/** Result of measureConfig. */
struct Measurement
{
    std::vector<double> seconds; //!< Per-rep wall times.
    double mean_seconds = 0.0;
    double mean_gflops = 0.0;
    double ci95_gflops = 0.0;    //!< 95% CI half-width on GFLOPS.
    double pack_seconds = 0.0;   //!< Mean packing time per rep.
};

/** Measure @p cfg on freshly allocated random tensors. */
Measurement measureConfig(const ConvProblem &p, const ExecConfig &cfg,
                          const MeasureOptions &opts = MeasureOptions());

/**
 * One-shot seconds measurement (1 warmup + 1 timed rep) for search
 * loops like the auto-tuner where throughput matters more than
 * statistical rigor.
 */
double quickMeasureSeconds(const ConvProblem &p, const ExecConfig &cfg,
                           int threads = 0);

/** Stream @p bytes of memory to evict cached data between runs. */
void flushCaches(std::int64_t bytes = 64ll << 20);

} // namespace mopt

#endif // MOPT_EXEC_MEASURE_HH
