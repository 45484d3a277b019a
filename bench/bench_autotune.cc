/**
 * @file
 * Hardware grounding for the analytic model: run the autotune loop
 * (solve -> top-k plans -> measure each on this host) over downscaled
 * Table-1 shapes, report the rank correlation between predicted and
 * measured times, fit the per-machine calibration, and show how much
 * of the prediction error the fitted correction removes.
 *
 * Unlike the simulated-testbed harnesses (Figs. 5/6), every "measured"
 * number here is a wall-clock execution on the machine running the
 * bench, so its table reports real hardware. The in-process runner is
 * used for determinism (no host compiler dependency); `mopt autotune`
 * exercises the emitted path.
 */

#include <cmath>
#include <iostream>

#include "autotune/autotune.hh"
#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "conv/workloads.hh"
#include "machine/machine.hh"

namespace {

/** Predicted total under the fitted factors, from the sample's stored
 *  per-component breakdown (max of scaled component times — exactly
 *  what evalMultiLevel reports on the applyTo'd machine). */
double
calibratedPrediction(const mopt::TuneSample &s, const mopt::Calibration &c)
{
    double t = s.pred_compute_seconds * c.compute_scale;
    for (int l = 0; l < mopt::NumMemLevels; ++l)
        t = std::max(t, s.pred_level_seconds[static_cast<std::size_t>(l)] *
                            c.level_scale[static_cast<std::size_t>(l)]);
    return t;
}

double
meanAbsRelError(const std::vector<mopt::TuneSample> &samples,
                const mopt::Calibration *c)
{
    double sum = 0.0;
    for (const mopt::TuneSample &s : samples) {
        const double pred =
            c ? calibratedPrediction(s, *c) : s.predicted_seconds;
        sum += std::abs(pred - s.measured_seconds) / s.measured_seconds;
    }
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

} // namespace

int
main()
{
    using namespace mopt;
    benchBanner("Autotune: measured vs predicted plan ranking",
                "the closed feedback loop (Sec. 6 auto-tuner): top-k "
                "plans measured on this host, calibration fitted");

    const std::int64_t max_hw = scaled<std::int64_t>(14, 34);
    const std::int64_t max_ch = scaled<std::int64_t>(32, 128);
    const MachineSpec m = i7_9700k();

    std::vector<ConvProblem> net;
    for (const char *name : {"R9", "M2", "Y5"})
        net.push_back(workloadByName(name).downscaled(max_hw, max_ch));

    OptimizerOptions opts;
    opts.parallel = false; // measurements are serial
    opts.effort = scaled(OptimizerOptions::Effort::Fast,
                         OptimizerOptions::Effort::Standard);

    AutotuneOptions aopts;
    aopts.top_k = scaled(3, 6);
    aopts.reps = scaled(2, 5);
    aopts.warmups = 1;
    aopts.runner = TuneRunner::Exec;

    CalibrationStore store; // in-memory: the bench leaves no journal
    const AutotuneReport rep = autotuneProblems(net, m, opts, store,
                                                aopts);

    Table t({"#", "shape", "pred ms", "meas ms", "meas/pred"});
    for (std::size_t i = 0; i < rep.samples.size(); ++i) {
        const TuneSample &s = rep.samples[i];
        t.row()
            .add(static_cast<long long>(i + 1))
            .add(s.key.problem.summary())
            .add(s.predicted_seconds * 1e3, 3)
            .add(s.measured_seconds * 1e3, 3)
            .add(s.measured_seconds / s.predicted_seconds, 2);
    }
    t.print(std::cout);
    std::cout << "\n";

    std::cout << "samples = " << rep.samples.size() << "\n"
              << "unique_shapes = " << rep.unique_shapes << "\n"
              << "solve_seconds = " << rep.solve_seconds << "\n"
              << "Spearman(predicted, measured) = "
              << rep.rank_correlation << "\n";
    for (int l = 0; l < NumMemLevels; ++l)
        std::cout << "calib_" << memLevelName(l) << " = "
                  << rep.calibration.level_scale[static_cast<std::size_t>(l)]
                  << "\n";
    std::cout << "calib_compute = " << rep.calibration.compute_scale
              << "\n";

    const double raw_err = meanAbsRelError(rep.samples, nullptr);
    const double cal_err =
        meanAbsRelError(rep.samples, &rep.calibration);
    std::cout << "mean_abs_rel_error_raw = " << raw_err << "\n"
              << "mean_abs_rel_error_calibrated = " << cal_err << "\n";

    std::cout << "\nA high Spearman means the analytic ranking already "
                 "orders real executions well;\nthe calibrated error row "
                 "shows how much of the absolute gap the per-machine\n"
                 "fit removes without touching the model itself.\n";
    return 0;
}
