/**
 * @file
 * Shared plumbing of the perfbench workloads: run options, the raw
 * report every workload fills, and the fixed machine and search
 * settings every plan targets.
 *
 * The report is deliberately raw — setup times, scalar values, sample
 * lists and (in a traced run) spans — and perfbench/run.py turns it
 * into the benchmark's metrics. Keeping the statistics in one place
 * (perfbench/benchstats.py) keeps medians and percentiles identical
 * across workloads and testable without a build.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "conv/problem.hh"
#include "frontend/network_def.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/protocol.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"

namespace perfbench {

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;  //!< Length of the timed part.
    bool trace = false;   //!< Record spans and run the layer probes.
    std::string workdir;  //!< Working directory for journals.
    int threads = 1;      //!< Solver / executor width (= nproc).
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Raw results of one run (see file comment). */
class Report
{
  public:
    /** One set-up repetition took @p s seconds. */
    void setup(double s) { setup_.push_back(s); }

    /** A value reported as-is (a count or a computed quantity). */
    void value(const std::string &name, double v) { values_[name] = v; }

    /** One observation of a distribution (reduced by run.py). */
    void sample(const std::string &name, double v)
    {
        samples_[name].push_back(v);
    }

    /** One checked operation; @p what is recorded when it fails. */
    void check(bool ok, const std::string &what);

    /** @p attempted checked operations, of which @p failures failed. */
    void checks(std::int64_t attempted,
                const std::vector<std::string> &failures);

    /** Write the report (and any recorded spans) as one JSON object. */
    void write(std::ostream &os) const;

  private:
    std::vector<double> setup_;
    std::map<std::string, double> values_;
    std::map<std::string, std::vector<double>> samples_;
    std::int64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** The machine every plan targets: the paper's i7 preset, never a
 *  probe of the host (probe results drift, and plans with them). */
mopt::MachineSpec benchMachine();

/** Standard-effort, parallel search seeded by the workload seed. */
mopt::OptimizerOptions planOptions(const Options &o);

/** A registered network, lowered at batch 1. */
struct Net
{
    std::string name;
    std::vector<mopt::ConvProblem> layers;
};

Net loadNet(const std::string &name);

/** A fresh (emptied) journal path under the run's work directory. */
std::string freshJournal(const Options &o, const std::string &tag);

/** A request carrying the bench machine's and settings' identity. */
mopt::RpcRequest identityRequest(const Options &o);

/** solve_network of the registered network @p net at batch 1. */
mopt::RpcRequest networkRequest(const Options &o, const std::string &net);

/** What the cache holds (and a solve RPC returns) for @p lp. */
mopt::CachedSolution cachedOf(const mopt::LayerPlan &lp);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Calls @p body and returns its wall time in seconds. */
template <typename F>
double
timed(F &&body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Mean seconds per call of @p body, timed over batches of @p batch
 * calls; returns the fastest batch's rate out of @p rounds (the
 * quiet-machine rate of a call too short to time alone).
 */
template <typename F>
double
perCall(int batch, int rounds, F &&body)
{
    double best = 0;
    for (int r = 0; r < rounds; ++r) {
        const double s = timed([&] {
            for (int i = 0; i < batch; ++i)
                body();
        });
        if (r == 0 || s < best)
            best = s;
    }
    return best / batch;
}

void runPlanCold(const Options &o, Report &r);
void runExecPlans(const Options &o, Report &r);
void runServeWarm(const Options &o, Report &r);

/**
 * The layer probes every traced run ends with, after the workload's
 * timed window and checks (probes.cc).
 */
void runProbes(const Options &o, Report &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
