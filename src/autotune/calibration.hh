/**
 * @file
 * Learned per-machine correction of the analytic cost model (the
 * "measured-optimal" feedback loop, ROADMAP item 2): the autotuner
 * measures emitted plans on the real host, and a least-squares fit
 * over those samples yields one multiplicative time factor per memory
 * level plus one for the FMA-throughput bound. Applying a calibration
 * rescales the MachineSpec itself (bandwidths divided by the level
 * factors, frequency by the compute factor), so EvalContext, the NLP
 * solver, the network optimizer, and the cache-key machine
 * fingerprint all consult the correction with no further plumbing —
 * and an identity calibration leaves the spec, the fingerprint, and
 * therefore every solved plan byte-identical.
 *
 * Samples persist in a CalibrationStore on the same journal file as
 * the solution cache (common/journal.hh): one flushed line per
 * acknowledged sample, corrupt lines skipped loudly on reload, and a
 * crash-safe rewrite. A sample's line starts with the solution
 * record's prefix (key and configuration, recordPrefixAppendJson in
 * service/solution_cache.hh) and adds the measured and predicted
 * times.
 */

#ifndef MOPT_AUTOTUNE_CALIBRATION_HH
#define MOPT_AUTOTUNE_CALIBRATION_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "model/tile_config.hh"
#include "service/cache_key.hh"

namespace mopt {

/** One measured (plan, machine) observation. */
struct TuneSample
{
    /** Canonical shape, the fingerprint of the *base* (uncalibrated)
     *  MachineSpec the predicted breakdown was evaluated on, and the
     *  fingerprint of the search settings that produced the config. */
    CacheKey key;

    /** The measured configuration (par forced serial; see autotune). */
    ExecConfig config;

    /** Mean measured wall time of one conv execution (seconds). */
    double measured_seconds = 0.0;

    /** Analytic prediction at sampling time: total and per-component
     *  times (sequential model, matching the serial measurement). */
    double predicted_seconds = 0.0;
    std::array<double, NumMemLevels> pred_level_seconds{};
    double pred_compute_seconds = 0.0;

    /** "emitted" (compiled standalone C) or "exec" (in-process). */
    std::string runner;
};

/** One JSON line per sample (the store's journal format). */
std::string tuneSampleToJsonLine(const TuneSample &s);

/** Parse a journal line; false on any corruption (torn lines too). */
bool tuneSampleFromJsonLine(const std::string &line, TuneSample &s);

/**
 * The fitted correction: predicted component times are multiplied by
 * these factors (equivalently, bandwidths/frequency divided by them).
 */
struct Calibration
{
    /** Base machine the factors were learned on. */
    std::uint64_t machine_fp = 0;

    /** Per-level time factors (measured / predicted at that level). */
    std::array<double, NumMemLevels> level_scale{1.0, 1.0, 1.0, 1.0};

    /** Factor on the FMA-throughput compute bound. */
    double compute_scale = 1.0;

    /** Samples the fit consumed (0 = identity by construction). */
    std::int64_t samples_used = 0;

    /** The range fitCalibration keeps every factor in. */
    static constexpr double kMinScale = 0.05;
    static constexpr double kMaxScale = 20.0;

    /** Per component (the levels, then compute): -1 when the fit
     *  wanted a factor below kMinScale, +1 above kMaxScale, else 0.
     *  A clamped factor under-corrects by an unknown amount. */
    std::array<int, NumMemLevels + 1> clamped{};

    /** True when every factor is exactly 1 (applyTo is a no-op). */
    bool isIdentity() const;

    /** One warning per clamped factor, naming its component and the
     *  bound it hit; empty when none was clamped. */
    std::vector<std::string> clampWarnings() const;

    /**
     * Rescale @p m so the analytic model reproduces measured times:
     * level bandwidths are divided by level_scale, freq_ghz by
     * compute_scale. An identity calibration returns @p m unchanged —
     * same machine fingerprint, same cache namespace, byte-identical
     * plans.
     */
    MachineSpec applyTo(const MachineSpec &m) const;

    /** Compact "Reg x1.00 L1 x1.12 ... compute x0.97 (n samples)". */
    std::string str() const;
};

/**
 * Deterministic bottleneck-assignment least-squares fit: iterate
 * (assign each sample to its currently-bottleneck component; refit
 * each component's factor by least squares through the origin over
 * its assigned samples) a fixed number of rounds. Only samples whose
 * key.machine_fp matches are used; none -> identity. Factors are clamped
 * to [kMinScale, kMaxScale], and Calibration::clamped says which.
 */
Calibration fitCalibration(const std::vector<TuneSample> &samples,
                           std::uint64_t machine_fp);

/** Counters for the store's journal health. */
struct CalibrationStoreStats
{
    std::int64_t loaded = 0;   //!< Samples replayed from the journal.
    std::int64_t skipped = 0;  //!< Corrupt lines dropped (loudly).
    std::int64_t appended = 0; //!< Samples added this process.
};

/**
 * Durable sample store: an append-only JSON-lines journal, one
 * flushed line per acknowledged addSample (a crash after addSample
 * returns loses nothing), corrupt lines skipped loudly on load and
 * rewritten away by a crash-safe compaction. Thread-safe.
 */
class CalibrationStore
{
  public:
    /** Open (creating if absent) the journal at @p path; "" keeps the
     *  store purely in-memory. */
    explicit CalibrationStore(std::string path = "");

    /** Record one sample: in-memory plus journal append + flush. */
    void addSample(const TuneSample &s);

    CalibrationStoreStats stats() const;

    /** fitCalibration over the stored samples for @p machine_fp. */
    Calibration fit(std::uint64_t machine_fp) const;

  private:
    void load();
    /** Rewrite the journal from memory (journalRewrite); mu_ must be
     *  held. */
    void compactLocked();

    std::string path_;
    mutable std::mutex mu_;
    std::vector<TuneSample> samples_;
    std::ofstream journal_;
    CalibrationStoreStats stats_;
};

} // namespace mopt

#endif // MOPT_AUTOTUNE_CALIBRATION_HH
