#include "autotune/calibration.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/journal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "service/solution_cache.hh"

namespace mopt {

std::string
tuneSampleToJsonLine(const TuneSample &s)
{
    std::string out;
    recordPrefixAppendJson(out, s.key, s.config);
    out += ",\"measured_s\":";
    jsonAppendDouble(out, s.measured_seconds);
    out += ",\"pred_s\":";
    jsonAppendDouble(out, s.predicted_seconds);
    out += ",\"pred_level_s\":[";
    for (int l = 0; l < NumMemLevels; ++l) {
        if (l)
            out += ',';
        jsonAppendDouble(out,
                         s.pred_level_seconds[static_cast<std::size_t>(l)]);
    }
    out += "],\"pred_compute_s\":";
    jsonAppendDouble(out, s.pred_compute_seconds);
    out += ",\"runner\":\"";
    jsonAppendEscaped(out, s.runner);
    out += "\"}";
    return out;
}

bool
tuneSampleFromJsonLine(const std::string &line, TuneSample &s)
{
    JsonReader reader;
    TuneSample t;
    if (!reader.read(line) ||
        !recordPrefixFromJson(reader.root(), t.key, t.config))
        return false;
    const JsonView root = reader.root();

    const auto nonNegative = [&root](const char *key, double &out) {
        const JsonView v = root.find(key);
        if (!v.isNumber() || v.num() < 0)
            return false;
        out = v.num();
        return true;
    };
    if (!nonNegative("measured_s", t.measured_seconds) ||
        !nonNegative("pred_s", t.predicted_seconds) ||
        !nonNegative("pred_compute_s", t.pred_compute_seconds))
        return false;
    const JsonView lvl = root.find("pred_level_s");
    if (lvl.size() != static_cast<std::size_t>(NumMemLevels))
        return false;
    auto dst = t.pred_level_seconds.begin();
    for (const JsonView v : lvl) {
        if (!v.isNumber() || v.num() < 0)
            return false;
        *dst++ = v.num();
    }

    if (!root.find("runner").getString(t.runner))
        return false;

    s = std::move(t);
    return true;
}

bool
Calibration::isIdentity() const
{
    for (double f : level_scale)
        if (f != 1.0)
            return false;
    return compute_scale == 1.0;
}

MachineSpec
Calibration::applyTo(const MachineSpec &m) const
{
    if (isIdentity())
        return m;
    MachineSpec out = m;
    for (int l = 0; l < NumMemLevels; ++l) {
        const double f = level_scale[static_cast<std::size_t>(l)];
        checkUser(f > 0, "Calibration: level factor must be positive");
        out.levels[static_cast<std::size_t>(l)].bw_seq_gbps /= f;
        out.levels[static_cast<std::size_t>(l)].bw_par_gbps /= f;
    }
    checkUser(compute_scale > 0,
              "Calibration: compute factor must be positive");
    out.freq_ghz /= compute_scale;
    return out;
}

std::string
Calibration::str() const
{
    std::ostringstream oss;
    for (int l = 0; l < NumMemLevels; ++l) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f",
                      level_scale[static_cast<std::size_t>(l)]);
        oss << memLevelName(l) << " x" << buf << " ";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", compute_scale);
    oss << "compute x" << buf << " (" << samples_used << " sample"
        << (samples_used == 1 ? "" : "s") << ")";
    return oss.str();
}

std::vector<std::string>
Calibration::clampWarnings() const
{
    std::vector<std::string> out;
    for (int j = 0; j <= NumMemLevels; ++j) {
        const int side = clamped[static_cast<std::size_t>(j)];
        if (side == 0)
            continue;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "calibration: the %s factor is clamped at its %s "
                      "bound x%.2f; corrected predictions stay off by "
                      "more",
                      j < NumMemLevels ? memLevelName(j) : "compute",
                      side > 0 ? "upper" : "lower",
                      side > 0 ? kMaxScale : kMinScale);
        out.emplace_back(buf);
    }
    return out;
}

Calibration
fitCalibration(const std::vector<TuneSample> &samples,
               std::uint64_t machine_fp)
{
    Calibration cal;
    cal.machine_fp = machine_fp;

    std::vector<const TuneSample *> use;
    for (const TuneSample &s : samples)
        if (s.key.machine_fp == machine_fp && s.measured_seconds > 0)
            use.push_back(&s);
    cal.samples_used = static_cast<std::int64_t>(use.size());
    if (use.empty())
        return cal;

    // Component index: 0..NumMemLevels-1 = level times, NumMemLevels
    // = the compute bound. The model's total is the max over
    // components, so each sample informs only the factor of the
    // component that currently bottlenecks it; re-assign and refit a
    // fixed number of rounds (deterministic: fixed order, fixed
    // iteration count, no randomness).
    constexpr int kComponents = NumMemLevels + 1;
    constexpr int kRounds = 8;
    std::array<double, kComponents> f;
    f.fill(1.0);
    for (int round = 0; round < kRounds; ++round) {
        std::array<double, kComponents> num{}, den{};
        for (const TuneSample *s : use) {
            int arg = NumMemLevels;
            double best = s->pred_compute_seconds * f[NumMemLevels];
            for (int l = 0; l < NumMemLevels; ++l) {
                const double t =
                    s->pred_level_seconds[static_cast<std::size_t>(l)] *
                    f[static_cast<std::size_t>(l)];
                if (t > best) {
                    best = t;
                    arg = l;
                }
            }
            const double pred =
                arg == NumMemLevels
                    ? s->pred_compute_seconds
                    : s->pred_level_seconds[static_cast<std::size_t>(
                          arg)];
            if (pred <= 0)
                continue;
            num[static_cast<std::size_t>(arg)] +=
                s->measured_seconds * pred;
            den[static_cast<std::size_t>(arg)] += pred * pred;
        }
        for (int j = 0; j < kComponents; ++j) {
            const auto sj = static_cast<std::size_t>(j);
            if (den[sj] <= 0)
                continue;
            const double fit = num[sj] / den[sj];
            f[sj] = std::clamp(fit, Calibration::kMinScale,
                               Calibration::kMaxScale);
            cal.clamped[sj] = fit < Calibration::kMinScale   ? -1
                              : fit > Calibration::kMaxScale ? 1
                                                             : 0;
        }
    }
    for (int l = 0; l < NumMemLevels; ++l)
        cal.level_scale[static_cast<std::size_t>(l)] =
            f[static_cast<std::size_t>(l)];
    cal.compute_scale = f[NumMemLevels];
    return cal;
}

CalibrationStore::CalibrationStore(std::string path)
    : path_(std::move(path))
{
    if (!path_.empty())
        load();
}

void
CalibrationStore::load()
{
    std::lock_guard<std::mutex> lock(mu_);
    const JournalLoad counts = journalLoad(
        path_, "CalibrationStore",
        [this](const std::string &line) {
            TuneSample s;
            if (!tuneSampleFromJsonLine(line, s))
                return false;
            samples_.push_back(std::move(s));
            return true;
        },
        journal_);
    stats_.loaded = counts.loaded;
    stats_.skipped = counts.skipped;
    if (stats_.skipped > 0)
        compactLocked();
}

void
CalibrationStore::addSample(const TuneSample &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(s);
    ++stats_.appended;
    if (journal_.is_open())
        journalAppend(journal_, tuneSampleToJsonLine(s));
}

CalibrationStoreStats
CalibrationStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

Calibration
CalibrationStore::fit(std::uint64_t machine_fp) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fitCalibration(samples_, machine_fp);
}

void
CalibrationStore::compactLocked()
{
    if (path_.empty())
        return;
    journalRewrite(
        path_, "CalibrationStore",
        [this](std::ostream &out) {
            for (const TuneSample &s : samples_)
                out << tuneSampleToJsonLine(s) << "\n";
        },
        journal_);
}

} // namespace mopt
