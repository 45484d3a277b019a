/**
 * @file
 * The `mopt` command-line tool: the front door a downstream user would
 * actually drive. Takes a conv2d shape (by Table-1 layer name or
 * explicit dimensions), a machine preset, and produces the optimized
 * tiling — permutation class, tile sizes per level, parallel split,
 * predicted cost breakdown — and optionally standalone C source for
 * the tiled loop nest, a verification run against the reference, and
 * the baseline configurations for comparison.
 *
 * The `network` subcommand optimizes a whole network in one shot
 * through the service layer's NetworkOptimizer, deduplicating repeated
 * shapes and (with --cache) persisting solutions across runs.
 *
 * The `serve` subcommand runs the same service as a long-lived daemon
 * (moptd) speaking the line-delimited JSON protocol of src/rpc/; the
 * `query` subcommand is its client, routing across a fleet by stable
 * cache-key hash and falling back to a local solve when a node is
 * unreachable.
 *
 * Examples:
 *   mopt --layer=Y12 --machine=i7
 *   mopt --k=256 --c=128 --image=34 --rs=3 --stride=1 --machine=i9
 *   mopt --layer=R2 --emit-c=conv_r2.c
 *   mopt --layer=M5 --verify --compare
 *   mopt network --net=resnet18 --cache=mopt.cache.json
 *   mopt serve --port=7071 --cache=mopt.cache.json
 *   mopt query --connect=host1:7071,host2:7071 --net=resnet18
 *
 * The `autotune` subcommand closes the loop: it emits the top-k plans
 * of a solve, compiles and runs each on this host, records measured-
 * vs-predicted samples in a calibration journal, and fits the
 * per-machine correction that `--calibration` applies on later
 * `network`/`serve` runs.
 *
 *   mopt autotune --net=resnet18 --calibration=mopt.calib.json
 *   mopt network --net=resnet18 --calibration=mopt.calib.json
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "autotune/autotune.hh"
#include "baselines/autotuner.hh"
#include "baselines/heuristic_lib.hh"
#include "codegen/c_emitter.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/string_util.hh"
#include "common/table.hh"
#include "conv/reference.hh"
#include "conv/workloads.hh"
#include "exec/conv_exec.hh"
#include "frontend/registry.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "service/solve_scheduler.hh"
#include "tensor/tensor.hh"

namespace {

void
printUsage()
{
    std::cout <<
        R"(mopt: analytical tile-size optimizer for conv2d (ASPLOS'21 MOpt)

Problem selection (one of):
  --layer=<name>     Table-1 operator (Y0..Y23, R1..R12, M1..M9)
  --k= --c= --image= --rs= [--stride=1] [--dilation=1] [--batch=1]
  [--groups=1]       explicit shape (image = input H == W; groups must
                     divide k and c — groups=c is depthwise)

Options:
  --machine=i7|i9|tiny   machine preset (default i7)
  --sequential           optimize for one core (default: all cores)
  --effort=fast|standard|thorough   solver effort (default standard)
  --top-k=N              candidates to report (default 5)
  --emit-c=<path>        write standalone C source for the best config
  --verify               run the tiled executor vs the naive reference
  --compare              also print oneDNN-style baseline blocking
  --help                 this text

Network mode (optimize every conv layer of a whole network):
  mopt network --net=<name|file.cfg> [--batch=N] [options]
  --net=<name>           registered network (resnet18|vgg16|yolov3) or
                         a darknet-style .cfg file ([net]/[convolutional]
                         with filters/size/stride/pad/groups; unknown
                         sections are skipped loudly)
  --batch=N              batch size for every layer (default: the
                         .cfg's [net] batch, else 1)
  --cache=<path>         persistent solution cache (JSON journal);
                         repeated shapes and repeated runs hit it
  --cache-capacity=N     max cached solutions (default 4096)
  --plan-out=<path>      write the per-layer plan to a file
                         (deterministic; byte-identical cold vs warm)
  --solve-concurrency=N  solve up to N cold shapes at once, each on
                         1/N of the thread-pool width (default 1 =
                         serial; the plan is byte-identical either way)
  --calibration=<path>   apply the measured per-machine correction
                         fitted from this journal (see autotune mode);
                         an empty or identity journal changes nothing
  plus --machine, --sequential, --effort as above

Autotune mode (measure emitted plans, learn the machine correction):
  mopt autotune --net=<name|file.cfg> [--calibration=<path>] [options]
     (or --layer=<name> / explicit dims for a single shape)
  --top-k=N              candidates measured per unique shape (default 3)
  --reps=N --warmups=N   timed repetitions / discarded runs (3 / 1)
  --runner=emitted|exec  emitted: emit C, compile with --cc, run the
                         standalone binary (falls back to exec loudly);
                         exec: in-process tiled executor (default emitted)
  --cc=<compiler>        host C compiler for emitted plans (default cc)
  --calibration=<path>   durable sample journal (JSON lines); the fit
                         uses every stored sample for this machine
  --samples-out=<path>   write this run's samples as JSON lines
  plus --machine, --sequential, --effort as above — calibration is
  keyed by machine fingerprint, so solve settings must match

Serving mode (moptd: long-lived optimizer daemon + fleet client):
  mopt serve [--port=0] [--host=127.0.0.1] [--workers=4] [options]
                         answer solve/solve_network/stats/shutdown
                         requests (line-delimited JSON over TCP);
                         --cache/--cache-capacity, --calibration and
                         --solve-concurrency as in network mode
                         (concurrent duplicate requests always share
                         one solve via the single-flight scheduler)
    --max-pending=N      admission bound: refuse ("overloaded") past N
                         dispatched-and-unanswered requests (default
                         128; idle connections are free — the epoll
                         core watches them without a thread)
    --max-per-client=N   per-client-IP connection cap (default 0 = off)
    --replicate=host:port[,host:port...]
                         warm-entry replication peers: every fresh
                         cold-solve insert is pushed to the key's
                         replica set asynchronously, and startup pulls
                         what they hold past this node's own journal
                         sequence (a restarted node rejoins warm via a
                         delta, not a full transfer). Best-effort: a
                         dead peer spools and is probed half-open
    --replication-factor=F
                         copies per key: the key's ring owner
                         (hash % fleet size) plus F-1 successors
                         (default 0 = every node)
    --fleet-index=N      this node's slot on the fleet ring (must
                         agree with the order peers and clients list
                         the fleet in; default 0)
    --anti-entropy-ms=N  background digest-exchange period repairing
                         lost pushes (default 1000; 0 = off)
  mopt query --connect=host:port[,host:port...] <what> [options]
    <what> is one of:
      --net=<name|file.cfg> [--batch=N]
                         whole-network plan (routed across the fleet
                         by stable cache-key hash; a down node falls
                         back to a local solve; a .cfg network is sent
                         to a single node as an inline IR payload)
      --layer=<name> or explicit dims as above: one shape
      --stats            print each node's cache/telemetry counters
      --shutdown         stop each listed node
    --plan-out=<path>    write the per-layer plan (byte-identical to
                         a local `mopt network` run)
    --deadline-ms=N      per-RPC budget; a node that cannot answer in
                         time is treated as down (default 0 = none;
                         --stats/--shutdown default to 5000)
    --retries=N          extra attempts after a transport failure or
                         an "overloaded" refusal, with doubling
                         jittered backoff (default 0)
    --hedge-ms=N         duplicate a request to the next healthy node
                         when no answer after N ms; first answer wins
                         (default 0 = off)
    --no-fallback        fail instead of solving locally when a node
                         cannot answer — proves an answer came from
                         the fleet (replication checks, cache audits)
  Both sides must agree on --machine/--sequential/--effort: the
  server rejects fingerprint mismatches loudly.
)";
}

mopt::OptimizerOptions
optionsFromFlags(const mopt::Flags &flags)
{
    mopt::OptimizerOptions opts;
    opts.parallel = !flags.getBool("sequential", false);
    opts.top_k = static_cast<int>(flags.getInt("top-k", 5));
    opts.effort =
        mopt::effortFromString(flags.getString("effort", "standard"));
    return opts;
}

/**
 * A path-valued flag. A bare "--cache" (no value, or followed by
 * another flag) parses as "1", which would silently become a file
 * literally named "1" — reject it.
 */
std::string
pathFlag(const mopt::Flags &flags, const std::string &name)
{
    const std::string v = flags.getString(name, "");
    mopt::checkUser(v != "1",
                    "--" + name + " needs a file path (--" + name +
                        "=<path>)");
    return v;
}

/** The shared --cache/--cache-capacity handling of network/serve. */
mopt::SolutionCacheOptions
cacheOptionsFromFlags(const mopt::Flags &flags)
{
    mopt::SolutionCacheOptions co;
    co.capacity = static_cast<std::size_t>(
        flags.getInt("cache-capacity", 4096));
    co.journal_path = pathFlag(flags, "cache");
    return co;
}

/** What --calibration resolved to: the (possibly rescaled) machine
 *  plus the provenance a caller prints / serves in its stats. */
struct CalibratedMachine
{
    mopt::MachineSpec machine;
    mopt::Calibration calibration;
    std::int64_t journal_loaded = 0;
};

/**
 * The shared --calibration handling of network/serve: load the sample
 * journal, fit for the *base* machine's fingerprint, and rescale the
 * spec. An absent flag, an empty journal, or an identity fit all
 * return @p m unchanged — same fingerprint, same cache namespace.
 */
CalibratedMachine
calibratedMachine(const mopt::Flags &flags, const mopt::MachineSpec &m)
{
    using namespace mopt;
    CalibratedMachine cm;
    cm.machine = m;
    const std::string path = pathFlag(flags, "calibration");
    if (path.empty())
        return cm;
    const CalibrationStore store(path);
    cm.journal_loaded = store.stats().loaded;
    cm.calibration = store.fit(CacheKey::machineFingerprint(m));
    cm.machine = cm.calibration.applyTo(m);
    std::cout << "Calibration: " << path << " ("
              << cm.journal_loaded << " samples loaded): "
              << cm.calibration.str() << "\n";
    for (const std::string &w : cm.calibration.clampWarnings())
        logWarn(w);
    return cm;
}

/** The shared --solve-concurrency handling of network/serve. */
int
solveConcurrencyFromFlags(const mopt::Flags &flags)
{
    // Range-check before narrowing, so a 2^32+1 doesn't wrap into
    // a silently-accepted 1.
    const std::int64_t sc = flags.getInt("solve-concurrency", 1);
    mopt::checkUser(sc >= 1 && sc <= 64,
                    "--solve-concurrency must be 1 .. 64");
    return static_cast<int>(sc);
}

/** The --deadline-ms/--retries/--hedge-ms handling of query mode. */
mopt::FleetOptions
fleetOptionsFromFlags(const mopt::Flags &flags)
{
    mopt::FleetOptions fo;
    const std::int64_t dl = flags.getInt("deadline-ms", 0);
    mopt::checkUser(dl >= 0 && dl <= 86400000,
                    "--deadline-ms must be 0 (none) .. 86400000");
    fo.deadline_ms = static_cast<long>(dl);
    const std::int64_t r = flags.getInt("retries", 0);
    mopt::checkUser(r >= 0 && r <= 16, "--retries must be 0 .. 16");
    fo.max_retries = static_cast<int>(r);
    const std::int64_t h = flags.getInt("hedge-ms", 0);
    mopt::checkUser(h >= 0 && h <= 86400000,
                    "--hedge-ms must be 0 (off) .. 86400000");
    fo.hedge_ms = static_cast<long>(h);
    fo.local_fallback = !flags.getBool("no-fallback", false);
    return fo;
}

/** Resolve --net (name or .cfg path) + --batch into a NetworkDef. */
mopt::NetworkDef
networkFromFlags(const mopt::Flags &flags)
{
    using namespace mopt;
    NetworkDef def = loadNetworkDef(flags.getString("net", ""));
    if (flags.has("batch")) {
        def.batch = flags.getInt("batch", 1);
        checkUser(def.batch >= 1, "--batch must be >= 1");
    }
    return def;
}

/** The shape --layer names, or the one --k/--c/--image/--rs spell
 *  (with --stride, --batch, --groups and --dilation); none when
 *  neither is given. */
std::optional<mopt::ConvProblem>
problemFromFlags(const mopt::Flags &flags)
{
    using namespace mopt;
    if (flags.has("layer"))
        return workloadByName(flags.getString("layer", ""));
    if (!flags.has("k") || !flags.has("c") || !flags.has("image") ||
        !flags.has("rs"))
        return std::nullopt;
    ConvProblem p = ConvProblem::fromImage(
        "cli", flags.getInt("k", 1), flags.getInt("c", 1),
        flags.getInt("image", 1), flags.getInt("rs", 1),
        static_cast<int>(flags.getInt("stride", 1)),
        flags.getInt("batch", 1), flags.getInt("groups", 1));
    p.dilation = static_cast<int>(flags.getInt("dilation", 1));
    p.validate();
    return p;
}

/** The `mopt network` subcommand (argv already shifted past it). */
int
runNetwork(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    flags.rejectUnknown({"net", "batch", "machine", "sequential",
                         "effort", "top-k", "cache", "cache-capacity",
                         "plan-out", "solve-concurrency", "calibration",
                         "help"});
    if (flags.getBool("help", false)) {
        printUsage();
        return 0;
    }
    checkUser(flags.has("net"),
              "network mode needs --net=<name|file.cfg>");
    const NetworkDef def = networkFromFlags(flags);
    const std::vector<ConvProblem> net = def.lower();
    // The correction rescales the spec itself, so the optimizer, the
    // cache key, and the printed predictions all see it uniformly.
    const MachineSpec m =
        calibratedMachine(flags,
                          machineByName(flags.getString("machine", "i7")))
            .machine;
    const OptimizerOptions opts = optionsFromFlags(flags);

    const SolutionCacheOptions co = cacheOptionsFromFlags(flags);
    SolutionCache cache(co);
    const int solve_concurrency = solveConcurrencyFromFlags(flags);

    std::cout << "Network:  " << def.name << " (" << net.size()
              << " conv layers";
    if (def.batch > 1)
        std::cout << ", batch " << def.batch;
    std::cout << ")\n";
    std::cout << "Machine:  " << m.name << " (" << m.cores << " cores, "
              << m.vec_lanes << "-lane SIMD)\n";
    if (!co.journal_path.empty())
        std::cout << "Cache:    " << co.journal_path << " ("
                  << cache.stats().journal_loaded
                  << " entries loaded)\n";
    if (solve_concurrency > 1)
        std::cout << "Solver:   up to " << solve_concurrency
                  << " concurrent solves (plan unchanged)\n";
    std::cout << "\n";

    // Misses pipeline through a single-flight scheduler at the
    // requested budget; the plan is byte-identical for any budget.
    SolveScheduler sched(m, opts, &cache,
                         SolveSchedulerOptions{solve_concurrency});
    const NetworkOptimizer nopt(m, opts, &cache, &sched);
    const NetworkPlan plan = nopt.optimize(net);
    const std::string plan_text = plan.str();
    std::cout << plan_text << "\n";

    const NetworkPlanStats &st = plan.stats;
    std::cout << "Layers: " << st.layers << " (" << st.unique_shapes
              << " unique shapes)\n"
              << "Cache: " << st.cache_hits << " hits, "
              << st.cache_misses << " misses (hit rate "
              << formatDouble(100.0 * st.hitRate(), 1) << "%)\n"
              << "Search: " << formatDouble(st.solve_seconds, 2)
              << " s in " << st.solver_evals << " model evaluations, "
              << formatDouble(st.total_seconds, 2) << " s total\n";
    std::cout << "Scheduler: " << st.cache_misses - st.coalesced
              << " solves, " << st.coalesced << " coalesced, peak "
              << st.peak_concurrency << " concurrent\n";
    std::cout << "Predicted network time: "
              << formatDouble(plan.predictedSeconds() * 1e3, 3)
              << " ms\n";

    if (flags.has("plan-out")) {
        const std::string path = pathFlag(flags, "plan-out");
        std::ofstream f(path);
        checkUser(f.good(), "cannot open " + path);
        f << plan_text;
        std::cout << "Wrote per-layer plan to " << path << "\n";
    }
    return 0;
}

/** The `mopt autotune` subcommand: solve, emit, compile, run, and fit
 *  the per-machine correction later runs apply via --calibration. */
int
runAutotune(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    flags.rejectUnknown({"net", "batch", "layer", "k", "c", "image",
                         "rs", "stride", "dilation", "groups", "machine",
                         "sequential", "effort", "top-k", "reps",
                         "warmups", "runner", "cc", "calibration",
                         "samples-out", "work-dir", "help"});
    if (flags.getBool("help", false)) {
        printUsage();
        return 0;
    }

    // A whole network or one shape; either way the loop dedupes.
    std::vector<ConvProblem> net;
    std::string source;
    if (flags.has("net")) {
        const NetworkDef def = networkFromFlags(flags);
        net = def.lower();
        source = def.name;
    } else if (const auto p = problemFromFlags(flags)) {
        net.push_back(*p);
        source = p->summary();
    } else {
        fatal("autotune mode needs --net, --layer, or explicit dims");
    }

    const MachineSpec m = machineByName(flags.getString("machine", "i7"));
    const OptimizerOptions opts = optionsFromFlags(flags);

    AutotuneOptions aopts;
    aopts.top_k = static_cast<int>(flags.getInt("top-k", 3));
    aopts.reps = static_cast<int>(flags.getInt("reps", 3));
    aopts.warmups = static_cast<int>(flags.getInt("warmups", 1));
    aopts.runner =
        tuneRunnerFromString(flags.getString("runner", "emitted"));
    aopts.cc = flags.getString("cc", "cc");
    aopts.work_dir = pathFlag(flags, "work-dir");

    const std::string journal = pathFlag(flags, "calibration");
    CalibrationStore store(journal);

    std::cout << "Autotune: " << source << " (" << net.size()
              << " layer" << (net.size() == 1 ? "" : "s") << ")\n"
              << "Machine:  " << m.name << " (measurements serial)\n"
              << "Runner:   "
              << (aopts.runner == TuneRunner::Emitted
                      ? "emitted (" + aopts.cc + " -O2)"
                      : "in-process executor")
              << ", top-k " << aopts.top_k << ", reps " << aopts.reps
              << ", warmups " << aopts.warmups << "\n";
    if (!journal.empty())
        std::cout << "Journal:  " << journal << " ("
                  << store.stats().loaded << " prior samples)\n";
    std::cout << "\n";

    const AutotuneReport rep = autotuneProblems(net, m, opts, store,
                                                aopts);

    Table t({"#", "shape", "runner", "pred ms", "meas ms", "meas/pred"});
    for (std::size_t i = 0; i < rep.samples.size(); ++i) {
        const TuneSample &s = rep.samples[i];
        t.row()
            .add(static_cast<long long>(i + 1))
            .add(s.key.problem.summary())
            .add(s.runner)
            .add(s.predicted_seconds * 1e3, 3)
            .add(s.measured_seconds * 1e3, 3)
            .add(s.predicted_seconds > 0
                     ? s.measured_seconds / s.predicted_seconds
                     : 0.0,
                 2);
    }
    t.print(std::cout);

    std::cout << "\nMeasured " << rep.samples.size() << " plan(s) over "
              << rep.unique_shapes << " unique shape(s), solve "
              << formatDouble(rep.solve_seconds, 2) << " s\n";
    if (rep.emit_failures > 0)
        std::cout << "Emitted path failed for " << rep.emit_failures
                  << " plan(s); measured in-process instead\n";
    if (!rep.work_dir.empty())
        std::cout << "Artifacts: " << rep.work_dir << "\n";
    if (rep.samples.size() >= 2)
        std::cout << "Spearman(predicted, measured) = "
                  << formatDouble(rep.rank_correlation, 3) << "\n";
    std::cout << "Calibration: " << rep.calibration.str() << "\n";
    for (const std::string &w : rep.calibration.clampWarnings())
        logWarn(w);
    if (!journal.empty())
        std::cout << "Wrote " << store.stats().appended
                  << " sample(s) to " << journal
                  << "; apply with --calibration=" << journal << "\n";

    if (flags.has("samples-out")) {
        const std::string path = pathFlag(flags, "samples-out");
        std::ofstream f(path);
        checkUser(f.good(), "cannot open " + path);
        for (const TuneSample &s : rep.samples)
            f << tuneSampleToJsonLine(s) << "\n";
        std::cout << "Wrote " << rep.samples.size() << " sample(s) to "
                  << path << "\n";
    }
    return 0;
}

/** The `mopt serve` subcommand: run moptd until a shutdown RPC. */
int
runServe(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    flags.rejectUnknown({"port", "host", "workers", "machine",
                         "sequential", "effort", "top-k", "cache",
                         "cache-capacity", "solve-concurrency",
                         "max-pending", "max-per-client", "replicate",
                         "replication-factor", "fleet-index",
                         "anti-entropy-ms", "calibration", "help"});
    if (flags.getBool("help", false)) {
        printUsage();
        return 0;
    }
    const CalibratedMachine cm = calibratedMachine(
        flags, machineByName(flags.getString("machine", "i7")));
    const MachineSpec &m = cm.machine;
    const OptimizerOptions opts = optionsFromFlags(flags);
    const SolutionCacheOptions co = cacheOptionsFromFlags(flags);
    SolutionCache cache(co);

    ServerOptions so;
    so.host = flags.getString("host", "127.0.0.1");
    so.port = static_cast<int>(flags.getInt("port", 0));
    checkUser(so.port >= 0 && so.port <= 65535,
              "--port must be 0 (ephemeral) .. 65535");
    so.workers = static_cast<int>(flags.getInt("workers", 4));
    checkUser(so.workers >= 1 && so.workers <= 256,
              "--workers must be 1 .. 256");
    so.solve_concurrency = solveConcurrencyFromFlags(flags);
    const std::int64_t max_pending = flags.getInt("max-pending", 128);
    checkUser(max_pending >= 1 && max_pending <= 65536,
              "--max-pending must be 1 .. 65536");
    so.max_pending_conns = static_cast<int>(max_pending);
    const std::int64_t per_client = flags.getInt("max-per-client", 0);
    checkUser(per_client >= 0 && per_client <= 65536,
              "--max-per-client must be 0 (unlimited) .. 65536");
    so.max_per_client = static_cast<int>(per_client);
    so.replicate = flags.getString("replicate", "");
    const std::int64_t factor = flags.getInt("replication-factor", 0);
    checkUser(factor >= 0 && factor <= 65536,
              "--replication-factor must be 0 (all nodes) .. 65536");
    so.replication_factor = static_cast<int>(factor);
    const std::int64_t fleet_index = flags.getInt("fleet-index", 0);
    checkUser(fleet_index >= 0 && fleet_index <= 65536,
              "--fleet-index must be 0 .. 65536");
    so.fleet_index = static_cast<int>(fleet_index);
    const std::int64_t ae_ms = flags.getInt("anti-entropy-ms", 1000);
    checkUser(ae_ms >= 0 && ae_ms <= 86400000,
              "--anti-entropy-ms must be 0 (off) .. 86400000");
    so.anti_entropy_ms = static_cast<long>(ae_ms);
    so.calib_samples = cm.calibration.samples_used;
    so.calib_active = !cm.calibration.isIdentity();

    Server server(m, opts, &cache, so);
    std::string err;
    checkUser(server.start(&err), "moptd: cannot listen: " + err);

    std::cout << "moptd: optimizing for " << m.name << " ("
              << (opts.parallel ? "parallel" : "sequential") << ", "
              << flags.getString("effort", "standard") << " effort, "
              << so.solve_concurrency << " concurrent solve"
              << (so.solve_concurrency > 1 ? "s" : "") << ")\n";
    if (!co.journal_path.empty())
        std::cout << "moptd: cache journal " << co.journal_path << " ("
                  << cache.stats().journal_loaded << " entries loaded)\n";
    if (!so.replicate.empty()) {
        // Keep the base form stable (the smoke harness greps it); the
        // since cursor only appears on a delta (journal-resumed) pull.
        std::cout << "moptd: replicating to " << so.replicate << " ("
                  << server.counters().repl_prefetched
                  << " entries prefetched";
        const std::int64_t since =
            server.counters().repl_prefetch_since.load(
                std::memory_order_relaxed);
        if (since > 0)
            std::cout << ", since=" << since;
        std::cout << ")\n";
    }
    // The smoke harness (and any supervisor) greps this exact line to
    // learn the bound port, so it must be flushed before serving.
    std::cout << "moptd: listening on " << so.host << ":"
              << server.port() << std::endl;

    const std::int64_t served = server.serve();

    const SolutionCacheStats cs = cache.stats();
    const SolveSchedulerStats ss = server.schedulerStats();
    std::cout << "moptd: shut down after " << served << " connections, "
              << server.counters().requests << " requests ("
              << server.counters().errors << " errors)\n"
              << "moptd: cache " << cs.hits << " hits / " << cs.misses
              << " misses, " << cache.size() << " entries live\n"
              << "moptd: scheduler " << ss.solves << " solves / "
              << ss.coalesced << " coalesced (peak "
              << ss.peak_concurrency << " concurrent)\n";
    const ServerCounters &sc = server.counters();
    if (sc.shed_overload || sc.shed_client || sc.shed_deadline)
        std::cout << "moptd: shed " << sc.shed_overload
                  << " overload / " << sc.shed_client
                  << " per-client / " << sc.shed_deadline
                  << " deadline\n";
    if (sc.repl_pushed || sc.repl_push_failed || sc.repl_applied ||
        sc.repl_prefetched)
        std::cout << "moptd: replication " << sc.repl_pushed
                  << " pushed / " << sc.repl_push_failed
                  << " push failures / " << sc.repl_applied
                  << " applied / " << sc.repl_prefetched
                  << " prefetched\n";
    if (sc.repl_push_retries || sc.repl_spooled || sc.repl_probes ||
        sc.repl_ae_applied)
        std::cout << "moptd: fabric " << sc.repl_push_retries
                  << " push retries / " << sc.repl_spooled
                  << " spooled / " << sc.repl_probes
                  << " probes / " << sc.repl_ae_applied
                  << " anti-entropy repairs\n";
    return 0;
}

/** Shared by every query path: fleet + solve identity from flags. */
struct QuerySetup
{
    std::vector<mopt::RpcEndpoint> endpoints;
    mopt::MachineSpec machine;
    mopt::OptimizerOptions opts;
    mopt::FleetOptions fleet;
};

QuerySetup
querySetup(const mopt::Flags &flags)
{
    using namespace mopt;
    checkUser(flags.has("connect"),
              "query mode needs --connect=host:port[,host:port...]");
    QuerySetup q;
    q.endpoints = parseEndpointList(flags.getString("connect", ""));
    q.machine = machineByName(flags.getString("machine", "i7"));
    q.opts = optionsFromFlags(flags);
    q.fleet = fleetOptionsFromFlags(flags);
    return q;
}

/** The fleet policy for control-plane calls (--stats/--shutdown):
 *  as given, but never unbounded — a downed node must not wedge the
 *  CLI, so default to a 5 s deadline when none was set. */
mopt::FleetOptions
controlPolicy(const QuerySetup &q)
{
    mopt::FleetOptions policy = q.fleet;
    if (policy.deadline_ms <= 0)
        policy.deadline_ms = 5000;
    return policy;
}

/** Print retry/hedge activity and per-node health after a routed
 *  query, so a degraded fleet is visible, not silent. */
void
reportFleetHealth(const mopt::RouteStats &rs)
{
    using namespace mopt;
    if (rs.retries || rs.hedges)
        std::cout << "Recovery: " << rs.retries << " retrie(s), "
                  << rs.hedges << " hedge(s), " << rs.hedge_wins
                  << " hedge win(s)\n";
    for (std::size_t i = 0; i < rs.nodes.size(); ++i) {
        const RouteNodeState &n = rs.nodes[i];
        if (!n.down)
            continue;
        std::cout << "Node " << i << " (" << n.endpoint.str()
                  << "): down, re-probe in " << n.retry_in_ms
                  << " ms\n";
    }
}

/** Print one network plan + provenance summary; honor --plan-out. */
void
reportNetworkPlan(const mopt::Flags &flags, const std::string &plan_text,
                  std::size_t layers, std::size_t unique,
                  std::size_t hits, std::size_t misses,
                  std::size_t fallbacks, double solve_seconds)
{
    using namespace mopt;
    std::cout << plan_text << "\n";
    std::cout << "Layers: " << layers << " (" << unique
              << " unique shapes)\n"
              << "Cache: " << hits << " hits, " << misses
              << " misses (hit rate "
              << formatDouble(unique ? 100.0 * static_cast<double>(hits) /
                                           static_cast<double>(unique)
                                     : 100.0,
                              1)
              << "%)\n";
    if (fallbacks > 0)
        std::cout << "Fallback: " << fallbacks
                  << " shape(s) solved locally (node down)\n";
    std::cout << "Search: " << formatDouble(solve_seconds, 2)
              << " s of solve time\n";
    if (flags.has("plan-out")) {
        const std::string path = pathFlag(flags, "plan-out");
        std::ofstream f(path);
        checkUser(f.good(), "cannot open " + path);
        f << plan_text;
        std::cout << "Wrote per-layer plan to " << path << "\n";
    }
}

/** `mopt query --stats`: each node's counters + hottest entries.
 *  Exits nonzero when any listed node is unreachable or errors, so a
 *  monitoring script can trust the status code. */
int
queryStats(const QuerySetup &q)
{
    using namespace mopt;
    const FleetOptions policy = controlPolicy(q);
    int rc = 0;
    for (const RpcEndpoint &ep : q.endpoints) {
        Client client(ep);
        RpcRequest req;
        req.op = RpcOp::Stats;
        req.deadline_ms = policy.deadline_ms;
        RpcResponse resp;
        std::string err;
        if (!client.callRetrying(req, policy, resp, &err)) {
            std::cout << ep.str() << ": unreachable (" << err << ")\n";
            rc = 1;
            continue;
        }
        if (!resp.ok) {
            std::cout << ep.str() << ": error: " << resp.error << "\n";
            rc = 1;
            continue;
        }
        std::cout << ep.str() << ": " << resp.machine_name << ", "
                  << resp.entries << " entries in " << resp.shards
                  << " shards; lookups " << resp.cache.hits << " hits / "
                  << resp.cache.misses << " misses; "
                  << resp.cache.inserts << " inserts, "
                  << resp.cache.evictions << " evictions; journal "
                  << resp.cache.journal_loaded << " loaded / "
                  << resp.cache.journal_skipped << " skipped; "
                  << "scheduler " << resp.sched_solves << " solves / "
                  << resp.sched_coalesced << " coalesced (peak "
                  << resp.sched_peak << ", in flight "
                  << resp.sched_inflight << ", budget "
                  << resp.sched_budget << "); calibration "
                  << resp.calib_samples << " sample(s), "
                  << (resp.calib_active ? "active" : "identity") << "\n";
        if (resp.srv_repl_pushed || resp.srv_repl_push_failed ||
            resp.srv_repl_applied || resp.srv_repl_prefetched)
            std::cout << "  replication " << resp.srv_repl_pushed
                      << " pushed / " << resp.srv_repl_push_failed
                      << " push failures / " << resp.srv_repl_applied
                      << " applied / " << resp.srv_repl_prefetched
                      << " prefetched\n";
        if (resp.repl_queue_depth || resp.journal_seq)
            std::cout << "  fabric queue depth "
                      << resp.repl_queue_depth << ", journal seq "
                      << resp.journal_seq << "\n";
        // Hottest entries first: the per-entry telemetry a fleet
        // operator would use to decide what has stopped earning its
        // cache slot.
        std::vector<RpcEntryHits> rows = resp.entry_hits;
        std::stable_sort(rows.begin(), rows.end(),
                         [](const RpcEntryHits &a, const RpcEntryHits &b) {
                             return a.hits > b.hits;
                         });
        const std::size_t top = std::min<std::size_t>(rows.size(), 10);
        for (std::size_t i = 0; i < top; ++i)
            std::cout << "  " << rows[i].hits << " hits  "
                      << rows[i].key << "\n";
    }
    return rc;
}

/** `mopt query --shutdown`: stop every listed node. */
int
queryShutdown(const QuerySetup &q)
{
    using namespace mopt;
    const FleetOptions policy = controlPolicy(q);
    int rc = 0;
    for (const RpcEndpoint &ep : q.endpoints) {
        Client client(ep);
        RpcRequest req;
        req.op = RpcOp::Shutdown;
        req.deadline_ms = policy.deadline_ms;
        RpcResponse resp;
        std::string err;
        if (!client.callRetrying(req, policy, resp, &err) || !resp.ok) {
            std::cout << ep.str() << ": shutdown failed ("
                      << (err.empty() ? resp.error : err) << ")\n";
            rc = 1;
            continue;
        }
        std::cout << ep.str() << ": shutting down\n";
    }
    return rc;
}

/** `mopt query --net=...`: whole-network plan through the fleet. */
int
queryNetwork(const mopt::Flags &flags, QuerySetup &q)
{
    using namespace mopt;
    const std::string net_spec = flags.getString("net", "");
    const NetworkDef def = networkFromFlags(flags);
    const std::vector<ConvProblem> net = def.lower();

    std::cout << "Network:  " << def.name << " (" << net.size()
              << " conv layers";
    if (def.batch > 1)
        std::cout << ", batch " << def.batch;
    std::cout << ")\n"
              << "Fleet:    " << q.endpoints.size() << " node(s)\n\n";

    // One node: a single solve_network round-trip serves the whole
    // plan from the server's cache. A fleet (or a dead single node):
    // per-shape routing with local fallback.
    if (q.endpoints.size() == 1) {
        Client client(q.endpoints.front());
        RpcRequest req;
        req.op = RpcOp::SolveNetwork;
        // A registered name resolves identically server-side; a .cfg
        // exists only on this client, so ship the lowered IR inline.
        if (looksLikeCfgPath(net_spec)) {
            req.ir = def;
            req.has_ir = true;
        } else {
            req.net = net_spec;
        }
        req.batch = def.batch;
        req.machine_fp = CacheKey::machineFingerprint(q.machine);
        req.settings_fp = CacheKey::settingsFingerprint(q.opts);
        req.deadline_ms = q.fleet.deadline_ms;
        RpcResponse resp;
        std::string err;
        std::size_t retries = 0;
        if (client.callRetrying(req, q.fleet, resp, &err, &retries)) {
            checkUser(resp.ok, q.endpoints.front().str() +
                                   " refused: " + resp.error);
            reportNetworkPlan(
                flags, resp.plan_text, resp.layers.size(),
                static_cast<std::size_t>(resp.unique_shapes),
                static_cast<std::size_t>(resp.cache_hits),
                static_cast<std::size_t>(resp.cache_misses), 0,
                resp.solve_seconds);
            if (retries > 0)
                std::cout << "Recovery: " << retries
                          << " retrie(s)\n";
            return 0;
        }
        checkUser(q.fleet.local_fallback,
                  "moptd node " + q.endpoints.front().str() +
                      " unreachable (" + err +
                      ") and --no-fallback is set");
        logWarn("moptd node ", q.endpoints.front().str(),
                " unreachable (", err, "); falling back to local solve");
    }

    ShardRouter router(q.endpoints, q.machine, q.opts, q.fleet);
    RouteStats rs;
    const NetworkPlan plan = router.optimize(net, &rs);
    reportNetworkPlan(flags, plan.str(), plan.layers.size(),
                      rs.unique_shapes, rs.remote_hits,
                      rs.remote_misses + rs.fallbacks, rs.fallbacks,
                      rs.solve_seconds);
    reportFleetHealth(rs);
    return 0;
}

/** `mopt query --layer=...` (or explicit dims): one shape. */
int
queryProblem(QuerySetup &q, const mopt::ConvProblem &p)
{
    using namespace mopt;
    std::cout << "Problem:  " << p.summary() << "\n"
              << "Fleet:    " << q.endpoints.size() << " node(s)\n\n";

    ShardRouter router(q.endpoints, q.machine, q.opts, q.fleet);
    RouteStats rs;
    const NetworkPlan plan = router.optimize({p}, &rs);
    const LayerPlan &lp = plan.layers.front();
    reportFleetHealth(rs);

    std::cout << "Served:   "
              << (rs.fallbacks ? "local fallback (node down)"
                  : lp.cache_hit ? "cache hit"
                                 : "solved on demand")
              << " [node " << router.nodeOf(CacheKey::make(
                                  p, q.machine, q.opts))
              << "]\n\n";
    std::cout << "Best configuration: " << lp.best.perm_label << "\n"
              << "  L1 " << tilesToString(lp.best.config.tiles[LvlL1])
              << " L2 " << tilesToString(lp.best.config.tiles[LvlL2])
              << " L3 " << tilesToString(lp.best.config.tiles[LvlL3])
              << " par " << tilesToString(lp.best.config.par) << "\n\n"
              << lp.best.predicted.str() << "\n";
    return 0;
}

/** The `mopt query` subcommand: thin client over a moptd fleet. */
int
runQuery(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    flags.rejectUnknown({"connect", "net", "layer", "k", "c", "image",
                         "rs", "stride", "dilation", "batch", "groups",
                         "machine", "sequential", "effort", "top-k",
                         "plan-out", "stats", "shutdown", "deadline-ms",
                         "retries", "hedge-ms", "no-fallback", "help"});
    if (flags.getBool("help", false)) {
        printUsage();
        return 0;
    }
    QuerySetup q = querySetup(flags);

    if (flags.getBool("stats", false))
        return queryStats(q);
    if (flags.getBool("shutdown", false))
        return queryShutdown(q);
    if (flags.has("net"))
        return queryNetwork(flags, q);

    const auto p = problemFromFlags(flags);
    if (!p)
        fatal("query mode needs --net, --layer, explicit dims, "
              "--stats, or --shutdown");
    return queryProblem(q, *p);
}

/** Single-layer mode (the default, no subcommand). */
int
runSingle(int argc, char **argv);

} // namespace

int
main(int argc, char **argv)
{
    using namespace mopt;
    // User errors (bad flags, unreachable fleet, refused solves)
    // surface as FatalError; report them like a tool, not a crash.
    try {
        if (argc > 1 && std::strcmp(argv[1], "network") == 0)
            return runNetwork(argc - 1, argv + 1);
        if (argc > 1 && std::strcmp(argv[1], "autotune") == 0)
            return runAutotune(argc - 1, argv + 1);
        if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
            return runServe(argc - 1, argv + 1);
        if (argc > 1 && std::strcmp(argv[1], "query") == 0)
            return runQuery(argc - 1, argv + 1);
        return runSingle(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << "mopt: error: " << e.what() << "\n";
        return 1;
    }
}

namespace {

int
runSingle(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    flags.rejectUnknown({"layer", "k", "c", "image", "rs", "stride",
                         "dilation", "batch", "groups", "machine",
                         "sequential", "effort", "top-k", "emit-c",
                         "verify", "compare", "help"});
    if (flags.getBool("help", false)) {
        printUsage();
        return 0;
    }

    const auto resolved = problemFromFlags(flags);
    if (!resolved) {
        printUsage();
        return 2;
    }
    const ConvProblem &p = *resolved;

    const MachineSpec m = machineByName(flags.getString("machine", "i7"));
    const OptimizerOptions opts = optionsFromFlags(flags);

    std::cout << "Problem:  " << p.summary() << "\n";
    std::cout << "Machine:  " << m.name << " (" << m.cores << " cores, "
              << m.vec_lanes << "-lane SIMD)\n";
    std::cout << "Mode:     "
              << (opts.parallel ? "parallel" : "sequential") << ", "
              << flags.getString("effort", "standard") << " effort\n\n";

    const OptimizeOutput out = optimizeConv(p, m, opts);
    checkInvariant(!out.candidates.empty(), "optimizer returned nothing");

    std::cout << "Search: " << out.seconds << " s, " << out.solver_evals
              << " model evaluations\n\n";

    Table t({"#", "class", "L1 tile", "L2 tile", "L3 tile", "par",
             "pred ms", "pred GFLOPS"});
    for (std::size_t i = 0; i < out.candidates.size(); ++i) {
        const Candidate &c = out.candidates[i];
        t.row()
            .add(static_cast<long long>(i + 1))
            .add(c.perm_label)
            .add(tilesToString(c.config.tiles[LvlL1]))
            .add(tilesToString(c.config.tiles[LvlL2]))
            .add(tilesToString(c.config.tiles[LvlL3]))
            .add(tilesToString(c.config.par))
            .add(c.predicted.total_seconds * 1e3, 3)
            .add(c.predicted.gflops, 1);
    }
    t.print(std::cout);

    const Candidate &best = out.candidates.front();
    std::cout << "\nBest configuration breakdown:\n"
              << best.predicted.str() << "\n";

    if (flags.has("emit-c")) {
        const std::string path = pathFlag(flags, "emit-c");
        std::ofstream f(path);
        checkUser(f.good(), "cannot open " + path);
        f << emitStandaloneProgram(p, best.config);
        std::cout << "Wrote standalone C program to " << path << "\n";
    }

    if (flags.getBool("verify", false)) {
        Rng rng(1);
        Tensor4 in = makeInput(p), ker = makeKernel(p);
        in.fillRandom(rng);
        ker.fillRandom(rng);
        Tensor4 expected = makeOutput(p), got = makeOutput(p);
        referenceConv(p, in, ker, expected);
        const ExecStats st = runConv(p, in, ker, got, best.config);
        const double err = Tensor4::maxAbsDiff(expected, got);
        std::cout << "Verification: max |diff| = " << err << " ("
                  << (err < 2e-3 ? "OK" : "MISMATCH") << "), executed in "
                  << st.seconds * 1e3 << " ms (" << st.gflops
                  << " GFLOPS on this host)\n";
        if (err >= 2e-3)
            return 1;
    }

    if (flags.getBool("compare", false)) {
        const ExecConfig lib = heuristicConfig(p, m, opts.parallel);
        const CostBreakdown cb = evalMultiLevel(lib, p, m, opts.parallel);
        std::cout << "\noneDNN-style baseline (rule "
                  << heuristicRuleName(p) << "):\n"
                  << "  L1 " << tilesToString(lib.tiles[LvlL1]) << " L2 "
                  << tilesToString(lib.tiles[LvlL2]) << " L3 "
                  << tilesToString(lib.tiles[LvlL3]) << "\n"
                  << "  predicted " << cb.total_seconds * 1e3 << " ms ("
                  << cb.gflops << " GFLOPS), "
                  << best.predicted.total_seconds * 1e3
                  << " ms for MOpt-1\n";
    }
    return 0;
}

} // namespace
