#include "autotune/autotune.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/c_emitter.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/timer.hh"
#include "exec/measure.hh"
#include "model/multi_level.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"

namespace mopt {

namespace {

/** A fresh private directory for generated sources and binaries. */
std::string
makeWorkDir()
{
    char tmpl[] = "/tmp/mopt_autotune_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    checkUser(dir != nullptr,
              "autotune: cannot create work directory under /tmp");
    return dir;
}

/** @p cfg with the parallel split removed: measurements are serial. */
ExecConfig
serialConfig(const ExecConfig &cfg)
{
    ExecConfig out = cfg;
    out.par = {1, 1, 1, 1, 1, 1, 1};
    return out;
}

/**
 * Emit, compile, and run one timed standalone program. Returns false
 * (with a reason in @p err) on compile failure, runtime failure, or a
 * checksum mismatch against the in-process reference — the caller
 * falls back to the in-process runner.
 */
bool
runEmitted(const ConvProblem &p, const ExecConfig &cfg,
           const AutotuneOptions &aopts, const std::string &dir, int idx,
           double *mean_seconds, std::string *err)
{
    const std::string base = dir + "/tune_" + std::to_string(idx);
    const std::string src_path = base + ".c";
    const std::string bin_path = base + ".bin";
    {
        std::ofstream f(src_path);
        if (!f.good()) {
            *err = "cannot write " + src_path;
            return false;
        }
        f << emitTimedProgram(p, cfg, aopts.reps, aopts.warmups,
                              aopts.flush_bytes);
    }
    const std::string compile = aopts.cc + " -O2 -o " + bin_path + " " +
                                src_path + " 2>/dev/null";
    if (std::system(compile.c_str()) != 0) {
        *err = "host compile failed (" + aopts.cc + ")";
        return false;
    }

    FILE *pipe = ::popen(bin_path.c_str(), "r");
    if (!pipe) {
        *err = "cannot run " + bin_path;
        return false;
    }
    double mean = -1.0, checksum = 0.0;
    bool have_checksum = false;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe)) {
        double v;
        if (std::sscanf(buf, "mean_seconds %lf", &v) == 1)
            mean = v;
        else if (std::sscanf(buf, "checksum %lf", &v) == 1) {
            checksum = v;
            have_checksum = true;
        }
    }
    const int rc = ::pclose(pipe);
    if (rc != 0 || mean <= 0.0 || !have_checksum) {
        *err = "timed binary failed (" + bin_path + ")";
        return false;
    }
    // A wrong checksum means the emitted plan computes the wrong
    // convolution: its time must never enter the calibration.
    const double expected = lcgChecksumReference(p);
    const double tol = 1e-4 * std::max(1.0, std::abs(expected));
    if (std::abs(checksum - expected) > tol) {
        *err = "checksum mismatch for " + p.summary();
        return false;
    }
    *mean_seconds = mean;
    return true;
}

/** Measure @p cfg in-process (serial), paper-style methodology. */
double
runInProcess(const ConvProblem &p, const ExecConfig &cfg,
             const AutotuneOptions &aopts)
{
    MeasureOptions mo;
    mo.reps = aopts.reps;
    mo.warmups = aopts.warmups;
    mo.flush_cache = aopts.flush_bytes > 0;
    if (mo.flush_cache)
        mo.flush_bytes = aopts.flush_bytes;
    mo.threads = 1;
    return measureConfig(p, cfg, mo).mean_seconds;
}

} // namespace

TuneRunner
tuneRunnerFromString(const std::string &s)
{
    if (s == "emitted")
        return TuneRunner::Emitted;
    if (s == "exec")
        return TuneRunner::Exec;
    fatal("unknown runner '" + s + "' (expected emitted|exec)");
}

AutotuneReport
autotuneProblems(const std::vector<ConvProblem> &net, const MachineSpec &m,
                 const OptimizerOptions &opts, CalibrationStore &store,
                 const AutotuneOptions &aopts)
{
    checkUser(aopts.top_k >= 1, "autotune: top_k must be >= 1");
    checkUser(aopts.reps >= 1, "autotune: reps must be >= 1");
    checkUser(aopts.warmups >= 0, "autotune: warmups must be >= 0");

    AutotuneReport report;
    report.machine_fp = CacheKey::machineFingerprint(m);
    report.work_dir = aopts.work_dir;
    if (report.work_dir.empty() && aopts.runner == TuneRunner::Emitted)
        report.work_dir = makeWorkDir();

    // One sample set per distinct canonical shape, in first-seen order
    // (the same grouping every network planner uses).
    const std::vector<LayerGroup> groups = groupByKey(
        net, report.machine_fp, CacheKey::settingsFingerprint(opts));
    report.unique_shapes = groups.size();

    OptimizerOptions solve_opts = opts;
    solve_opts.top_k = std::max(opts.top_k, aopts.top_k);

    int next_idx = 0;
    for (const LayerGroup &g : groups) {
        const ConvProblem &p = g.key.problem;
        Timer solve_timer;
        const OptimizeOutput out = optimizeConv(p, m, solve_opts);
        report.solve_seconds += solve_timer.seconds();
        const int take = std::min<int>(
            aopts.top_k, static_cast<int>(out.candidates.size()));
        for (int i = 0; i < take; ++i) {
            const ExecConfig cfg =
                serialConfig(out.candidates[static_cast<std::size_t>(i)]
                                 .config);
            // The measurement is serial, so the prediction it
            // calibrates is the sequential model of the same config.
            const CostBreakdown cb = evalMultiLevel(cfg, p, m, false);

            TuneSample sample;
            sample.key = g.key;
            sample.config = cfg;
            sample.predicted_seconds = cb.total_seconds;
            for (int l = 0; l < NumMemLevels; ++l)
                sample.pred_level_seconds[static_cast<std::size_t>(l)] =
                    cb.seconds[static_cast<std::size_t>(l)];
            sample.pred_compute_seconds = cb.compute_seconds;

            bool emitted_ok = false;
            if (aopts.runner == TuneRunner::Emitted) {
                std::string err;
                emitted_ok = runEmitted(p, cfg, aopts, report.work_dir,
                                        next_idx, &sample.measured_seconds,
                                        &err);
                if (!emitted_ok) {
                    ++report.emit_failures;
                    logWarn("autotune: ", err,
                            "; falling back to in-process executor");
                }
            }
            if (!emitted_ok)
                sample.measured_seconds = runInProcess(p, cfg, aopts);
            sample.runner = emitted_ok ? "emitted" : "exec";
            ++next_idx;

            store.addSample(sample);
            report.samples.push_back(sample);
        }
    }

    report.calibration = store.fit(report.machine_fp);
    if (report.samples.size() >= 2) {
        std::vector<double> pred, meas;
        pred.reserve(report.samples.size());
        meas.reserve(report.samples.size());
        for (const TuneSample &s : report.samples) {
            pred.push_back(s.predicted_seconds);
            meas.push_back(s.measured_seconds);
        }
        report.rank_correlation = spearman(pred, meas);
    }
    return report;
}

} // namespace mopt
