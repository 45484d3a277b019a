/**
 * @file
 * Tests of the autotuning feedback loop: sample-journal round-trips
 * (including corrupt-line rejection), the bottleneck-assignment
 * calibration fit, the applyTo/fingerprint contract (identity changes
 * nothing), journal durability across reload, a crash test that
 * SIGKILLs a writer mid-append, and the end-to-end loop from solve
 * through measurement to a corrected re-solve.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "autotune/autotune.hh"
#include "autotune/calibration.hh"
#include "common/logging.hh"
#include "exec/conv_exec.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"
#include "service/cache_key.hh"

namespace mopt {
namespace {

ConvProblem
tinyProblem()
{
    ConvProblem p;
    p.name = "at";
    p.n = 1;
    p.k = 8;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 6;
    p.w = 6;
    return p;
}

TuneSample
sampleFor(const ConvProblem &p, double measured)
{
    TuneSample s;
    s.key.problem = CacheKey::canonicalProblem(p);
    s.key.machine_fp = 0x1234abcd5678ef01ull;
    s.key.settings_fp = 0xfeedbeefcafe0042ull;
    s.config = defaultConfig(p);
    s.measured_seconds = measured;
    s.predicted_seconds = 2e-4;
    s.pred_level_seconds = {1e-4, 2e-4, 5e-5, 2.5e-5};
    s.pred_compute_seconds = 8e-5;
    s.runner = "exec";
    return s;
}

TEST(TuneSampleJson, RoundTripsEveryField)
{
    ConvProblem p = tinyProblem();
    p.groups = 2;
    p.c = 4;
    p.k = 8;
    p.stride = 2;
    p.validate();
    const TuneSample s = sampleFor(p, 3.25e-4);

    const std::string line = tuneSampleToJsonLine(s);
    TuneSample r;
    ASSERT_TRUE(tuneSampleFromJsonLine(line, r)) << line;

    EXPECT_EQ(r.key.problem, s.key.problem);
    EXPECT_EQ(r.key.machine_fp, s.key.machine_fp);
    EXPECT_EQ(r.key.settings_fp, s.key.settings_fp);
    EXPECT_EQ(r.config.str(), s.config.str());
    EXPECT_DOUBLE_EQ(r.measured_seconds, s.measured_seconds);
    EXPECT_DOUBLE_EQ(r.predicted_seconds, s.predicted_seconds);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_DOUBLE_EQ(
            r.pred_level_seconds[static_cast<std::size_t>(l)],
            s.pred_level_seconds[static_cast<std::size_t>(l)]);
    EXPECT_DOUBLE_EQ(r.pred_compute_seconds, s.pred_compute_seconds);
    EXPECT_EQ(r.runner, s.runner);
}

TEST(TuneSampleJson, RejectsCorruptLines)
{
    const std::string good = tuneSampleToJsonLine(
        sampleFor(tinyProblem(), 1e-4));
    TuneSample s;
    EXPECT_TRUE(tuneSampleFromJsonLine(good, s));

    // Torn write: every strict prefix must be rejected, never
    // misparsed into a sample.
    for (std::size_t cut : {good.size() - 1, good.size() / 2,
                            std::size_t{1}})
        EXPECT_FALSE(tuneSampleFromJsonLine(good.substr(0, cut), s))
            << "accepted a torn prefix of length " << cut;

    EXPECT_FALSE(tuneSampleFromJsonLine("", s));
    EXPECT_FALSE(tuneSampleFromJsonLine("not json at all", s));
    EXPECT_FALSE(tuneSampleFromJsonLine("{\"v\":2}", s));
    // Negative time: structurally valid JSON, semantically corrupt.
    std::string bad = good;
    const std::size_t at = bad.find("\"measured_s\":");
    bad.insert(at + std::string("\"measured_s\":").size(), "-");
    EXPECT_FALSE(tuneSampleFromJsonLine(bad, s));
}

/** A grouped, strided sample whose doubles need all 17 digits. */
TuneSample
goldenSample()
{
    ConvProblem p = tinyProblem();
    p.groups = 2;
    p.stride = 2;
    p.validate();
    TuneSample s = sampleFor(p, 1.0 / 3.0 * 1e-3);
    s.predicted_seconds = 2.0 / 7.0 * 1e-3;
    s.pred_level_seconds = {0.1 / 3.0, 1e-4 / 7.0, 5e-5, 0.0};
    s.pred_compute_seconds = 8.125e-5;
    s.runner = "emitted";
    return s;
}

/** The journal line of goldenSample(), pinned byte for byte. */
const char kGoldenTuneSampleLine[] =
    "{\"v\":1,\"n\":1,\"k\":8,\"c\":4,\"r\":3,\"s\":3,\"h\":6,\"w\":6,"
    "\"stride\":2,\"dilation\":1,\"groups\":2,"
    "\"machine\":\"1234abcd5678ef01\",\"settings\":\"feedbeefcafe0042\","
    "\"perm\":[\"nhwkcrs\",\"nkcrshw\",\"nkcrshw\",\"nkcrshw\"],"
    "\"tiles\":[[1,4,1,1,1,1,6],[1,4,2,3,3,6,6],[1,4,2,3,3,6,6],"
    "[1,4,2,3,3,6,6]],\"par\":[1,1,1,1,1,1,1],"
    "\"measured_s\":0.00033333333333333332,"
    "\"pred_s\":0.00028571428571428568,"
    "\"pred_level_s\":[0.033333333333333333,1.4285714285714287e-05,"
    "5.0000000000000002e-05,0],\"pred_compute_s\":8.1249999999999996e-05,"
    "\"runner\":\"emitted\"}";

TEST(TuneSampleJson, GoldenLine)
{
    const std::string line = tuneSampleToJsonLine(goldenSample());
    EXPECT_EQ(line, kGoldenTuneSampleLine);
    TuneSample r;
    ASSERT_TRUE(tuneSampleFromJsonLine(line, r));
    EXPECT_EQ(tuneSampleToJsonLine(r), line);
}

TEST(CalibrationFit, RecoversKnownFactorsFromCleanSamples)
{
    // Per component j, plant samples whose predicted breakdown is
    // dominated by j and whose measured time is factor_j times the
    // dominant prediction; the fit must recover every factor exactly.
    const std::uint64_t fp = 42;
    const std::array<double, NumMemLevels> level_target{2.0, 0.5, 3.0,
                                                        1.5};
    const double compute_target = 4.0;

    std::vector<TuneSample> samples;
    for (int j = 0; j < NumMemLevels + 1; ++j) {
        for (int rep = 0; rep < 2; ++rep) {
            TuneSample s = sampleFor(tinyProblem(), 0.0);
            s.key.machine_fp = fp;
            s.pred_level_seconds = {0.01, 0.01, 0.01, 0.01};
            s.pred_compute_seconds = 0.01;
            if (j < NumMemLevels) {
                s.pred_level_seconds[static_cast<std::size_t>(j)] = 1.0;
                s.measured_seconds =
                    level_target[static_cast<std::size_t>(j)];
            } else {
                s.pred_compute_seconds = 1.0;
                s.measured_seconds = compute_target;
            }
            samples.push_back(s);
        }
    }

    const Calibration cal = fitCalibration(samples, fp);
    EXPECT_EQ(cal.samples_used,
              static_cast<std::int64_t>(samples.size()));
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_NEAR(cal.level_scale[static_cast<std::size_t>(l)],
                    level_target[static_cast<std::size_t>(l)], 1e-9)
            << memLevelName(l);
    EXPECT_NEAR(cal.compute_scale, compute_target, 1e-9);
    EXPECT_FALSE(cal.isIdentity());
}

TEST(CalibrationFit, IgnoresOtherMachinesAndClamps)
{
    std::vector<TuneSample> samples;
    TuneSample other = sampleFor(tinyProblem(), 1.0);
    other.key.machine_fp = 7; // not ours
    samples.push_back(other);
    EXPECT_TRUE(fitCalibration(samples, 42).isIdentity());
    EXPECT_EQ(fitCalibration(samples, 42).samples_used, 0);

    // A wildly wrong measurement clamps instead of exploding.
    TuneSample wild = sampleFor(tinyProblem(), 0.0);
    wild.key.machine_fp = 42;
    wild.pred_level_seconds = {1.0, 0.01, 0.01, 0.01};
    wild.pred_compute_seconds = 0.01;
    wild.measured_seconds = 1e6;
    const Calibration cal = fitCalibration({wild}, 42);
    EXPECT_DOUBLE_EQ(cal.level_scale[0], 20.0);
}

TEST(CalibrationFit, FlagsAFactorClampedAtItsBound)
{
    // Compute-bound samples measured 30x slower than predicted: the
    // compute factor saturates at the upper bound and says so.
    std::vector<TuneSample> samples;
    for (int rep = 0; rep < 3; ++rep) {
        TuneSample s = sampleFor(tinyProblem(), 0.0);
        s.key.machine_fp = 42;
        s.pred_level_seconds = {0.01, 0.01, 0.01, 0.01};
        s.pred_compute_seconds = 1.0 + rep;
        s.measured_seconds = 30.0 * s.pred_compute_seconds;
        samples.push_back(s);
    }
    const Calibration cal = fitCalibration(samples, 42);
    EXPECT_EQ(cal.compute_scale, Calibration::kMaxScale);
    EXPECT_EQ(cal.clamped[NumMemLevels], 1);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_EQ(cal.clamped[static_cast<std::size_t>(l)], 0);
    EXPECT_EQ(cal.clampWarnings(),
              std::vector<std::string>{
                  "calibration: the compute factor is clamped at its "
                  "upper bound x20.00; corrected predictions stay off by "
                  "more"});
    // The summary line keeps its bytes.
    EXPECT_EQ(cal.str(), "Reg x1.00 L1 x1.00 L2 x1.00 L3 x1.00 "
                         "compute x20.00 (3 samples)");

    // Inside the bounds nothing is flagged.
    for (TuneSample &s : samples)
        s.measured_seconds = 3.0 * s.pred_compute_seconds;
    EXPECT_TRUE(fitCalibration(samples, 42).clampWarnings().empty());
}

TEST(Calibration, IdentityLeavesMachineAndFingerprintUntouched)
{
    const MachineSpec m = i7_9700k();
    const Calibration identity;
    ASSERT_TRUE(identity.isIdentity());
    const MachineSpec applied = identity.applyTo(m);
    EXPECT_EQ(CacheKey::machineFingerprint(applied),
              CacheKey::machineFingerprint(m));
    EXPECT_DOUBLE_EQ(applied.freq_ghz, m.freq_ghz);
    for (int l = 0; l < NumMemLevels; ++l)
        EXPECT_DOUBLE_EQ(
            applied.levels[static_cast<std::size_t>(l)].bw_seq_gbps,
            m.levels[static_cast<std::size_t>(l)].bw_seq_gbps);

    // Identity -> byte-identical plans: same fingerprint means the
    // same cache namespace and the same solve inputs.
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = false;
    const OptimizeOutput a = optimizeConv(tinyProblem(), m, o);
    const OptimizeOutput b = optimizeConv(tinyProblem(), applied, o);
    ASSERT_FALSE(a.candidates.empty());
    EXPECT_EQ(a.candidates.front().config.str(),
              b.candidates.front().config.str());
}

TEST(Calibration, NonIdentityRescalesSpecAndChangesFingerprint)
{
    const MachineSpec m = i7_9700k();
    Calibration cal;
    cal.level_scale = {1.0, 2.0, 1.0, 1.0};
    cal.compute_scale = 3.0;
    const MachineSpec applied = cal.applyTo(m);
    EXPECT_NE(CacheKey::machineFingerprint(applied),
              CacheKey::machineFingerprint(m));
    EXPECT_DOUBLE_EQ(applied.levels[LvlL1].bw_seq_gbps,
                     m.levels[LvlL1].bw_seq_gbps / 2.0);
    EXPECT_DOUBLE_EQ(applied.levels[LvlL1].bw_par_gbps,
                     m.levels[LvlL1].bw_par_gbps / 2.0);
    EXPECT_DOUBLE_EQ(applied.freq_ghz, m.freq_ghz / 3.0);
    EXPECT_DOUBLE_EQ(applied.levels[LvlL3].bw_seq_gbps,
                     m.levels[LvlL3].bw_seq_gbps);
}

TEST(CalibrationStore, PersistsSamplesAcrossReload)
{
    const std::string path =
        ::testing::TempDir() + "/calib_reload.json";
    std::remove(path.c_str());
    {
        CalibrationStore store(path);
        store.addSample(sampleFor(tinyProblem(), 1e-4));
        store.addSample(sampleFor(tinyProblem(), 2e-4));
        EXPECT_EQ(store.stats().appended, 2);
    }
    CalibrationStore reloaded(path);
    EXPECT_EQ(reloaded.stats().loaded, 2);
    EXPECT_EQ(reloaded.stats().skipped, 0);
    const Calibration cal =
        reloaded.fit(sampleFor(tinyProblem(), 0).key.machine_fp);
    EXPECT_EQ(cal.samples_used, 2);
    std::remove(path.c_str());
}

TEST(CalibrationStore, SkipsCorruptTrailingLineLoudlyAndCompacts)
{
    const std::string path =
        ::testing::TempDir() + "/calib_corrupt.json";
    std::remove(path.c_str());
    const std::string good =
        tuneSampleToJsonLine(sampleFor(tinyProblem(), 1e-4));
    {
        std::ofstream f(path);
        f << good << "\n" << good << "\n"
          << good.substr(0, good.size() / 2); // torn final append
    }
    {
        CalibrationStore store(path);
        EXPECT_EQ(store.stats().loaded, 2);
        EXPECT_EQ(store.stats().skipped, 1);
        EXPECT_EQ(store.fit(sampleFor(tinyProblem(), 0).key.machine_fp)
                      .samples_used,
                  2);
    }
    // Loading compacted the journal: the torn line is gone for good.
    CalibrationStore again(path);
    EXPECT_EQ(again.stats().loaded, 2);
    EXPECT_EQ(again.stats().skipped, 0);
    std::remove(path.c_str());
}

TEST(CalibrationStore, CompactionRewritesTheJournalByteForByte)
{
    const std::string path =
        ::testing::TempDir() + "/calib_compact_bytes.json";
    std::remove(path.c_str());
    const std::string golden = kGoldenTuneSampleLine;
    {
        std::ofstream f(path);
        f << golden << "\n"
          << golden.substr(0, golden.size() / 3) << "\n\n"
          << golden << "\n";
    }
    {
        CalibrationStore store(path); // The corrupt line compacts.
        EXPECT_EQ(store.stats().loaded, 2);
        EXPECT_EQ(store.stats().skipped, 1);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), golden + "\n" + golden + "\n");
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.is_open());
    std::remove(path.c_str());
}

TEST(CalibrationStore, InMemoryStoreNeedsNoJournal)
{
    CalibrationStore store;
    store.addSample(sampleFor(tinyProblem(), 1e-4));
    EXPECT_EQ(store.stats().appended, 1);
    EXPECT_EQ(store.fit(sampleFor(tinyProblem(), 0).key.machine_fp)
                  .samples_used,
              1);
}

TEST(CalibrationStore, SigkillMidAppendLosesNoAcknowledgedSample)
{
    const std::string path =
        ::testing::TempDir() + "/calib_crash.json";
    std::remove(path.c_str());

    // The child appends samples forever, acknowledging each completed
    // addSample with one byte on the pipe; the parent SIGKILLs it mid
    // stream. Every acknowledged sample must survive the reload, and
    // at most the one in-flight line may be torn.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(fds[0]);
        CalibrationStore store(path);
        for (int i = 0; i < 100000; ++i) {
            store.addSample(
                sampleFor(tinyProblem(), 1e-6 * (i + 1)));
            const char ack = 'a';
            if (::write(fds[1], &ack, 1) != 1)
                ::_exit(1);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    std::size_t acked = 0;
    char buf[256];
    while (acked < 64) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        acked += static_cast<std::size_t>(n);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    // Drain acks that were in the pipe when the kill landed; each one
    // is a completed addSample and so must be recoverable too.
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;)
        acked += static_cast<std::size_t>(n);
    ::close(fds[0]);
    ASSERT_GE(acked, 64u);

    CalibrationStore reloaded(path);
    EXPECT_GE(reloaded.stats().loaded,
              static_cast<std::int64_t>(acked));
    EXPECT_LE(reloaded.stats().skipped, 1);
    // Every replayed sample is usable: fit() takes only samples with
    // a positive measured time.
    EXPECT_EQ(reloaded.fit(sampleFor(tinyProblem(), 0).key.machine_fp)
                  .samples_used,
              reloaded.stats().loaded);
    std::remove(path.c_str());
}

TEST(Autotune, EndToEndMeasuresPersistsAndCorrectsResolve)
{
    const std::string path = ::testing::TempDir() + "/calib_e2e.json";
    std::remove(path.c_str());

    const ConvProblem p = tinyProblem();
    const MachineSpec m = tinyTestMachine();
    OptimizerOptions opts;
    opts.effort = OptimizerOptions::Effort::Fast;
    opts.parallel = false;

    AutotuneOptions aopts;
    aopts.top_k = 2;
    aopts.reps = 1;
    aopts.warmups = 0;
    aopts.runner = TuneRunner::Exec; // no host-compiler dependency
    aopts.flush_bytes = 0;

    AutotuneReport rep;
    {
        CalibrationStore store(path);
        // The same shape twice: the loop dedupes to one solve.
        rep = autotuneProblems({p, p}, m, opts, store, aopts);
    }
    EXPECT_EQ(rep.unique_shapes, 1u);
    ASSERT_GE(rep.samples.size(), 2u);
    EXPECT_EQ(rep.machine_fp, CacheKey::machineFingerprint(m));
    for (const TuneSample &s : rep.samples) {
        EXPECT_GT(s.measured_seconds, 0.0);
        EXPECT_GT(s.predicted_seconds, 0.0);
        EXPECT_EQ(s.runner, "exec");
    }
    EXPECT_EQ(rep.calibration.samples_used,
              static_cast<std::int64_t>(rep.samples.size()));

    // Acknowledged samples persisted: a fresh store sees them all and
    // fits the same calibration.
    CalibrationStore reloaded(path);
    EXPECT_EQ(reloaded.stats().loaded,
              static_cast<std::int64_t>(rep.samples.size()));
    const Calibration cal = reloaded.fit(rep.machine_fp);
    EXPECT_EQ(cal.samples_used, rep.calibration.samples_used);

    // A subsequent solve on the calibrated machine reports corrected
    // predicted times: each component of the analytic breakdown is
    // the raw component scaled by its fitted factor.
    const MachineSpec cm = cal.applyTo(m);
    const ExecConfig cfg = rep.samples.front().config;
    const CostBreakdown raw = evalMultiLevel(cfg, p, m, false);
    const CostBreakdown cor = evalMultiLevel(cfg, p, cm, false);
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        EXPECT_NEAR(cor.seconds[sl],
                    raw.seconds[sl] * cal.level_scale[sl],
                    1e-12 + 1e-9 * raw.seconds[sl])
            << memLevelName(l);
    }
    EXPECT_NEAR(cor.compute_seconds,
                raw.compute_seconds * cal.compute_scale,
                1e-12 + 1e-9 * raw.compute_seconds);
    if (!cal.isIdentity()) {
        EXPECT_NE(CacheKey::machineFingerprint(cm),
                  CacheKey::machineFingerprint(m));
    }
    std::remove(path.c_str());
}

TEST(Autotune, RunnerParsing)
{
    EXPECT_EQ(tuneRunnerFromString("emitted"), TuneRunner::Emitted);
    EXPECT_EQ(tuneRunnerFromString("exec"), TuneRunner::Exec);
    EXPECT_THROW(tuneRunnerFromString("gpu"), FatalError);
}

} // namespace
} // namespace mopt
