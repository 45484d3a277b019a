#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/json.hh"
#include "frontend/registry.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"
#include "trace.hh"

namespace perfbench {

namespace {

void
writeNumber(std::ostream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace

void
Report::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failures_.push_back(what);
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

void
Report::checks(std::int64_t attempted,
               const std::vector<std::string> &failures)
{
    for (const std::string &what : failures)
        check(false, what);
    attempted_ += attempted - static_cast<std::int64_t>(failures.size());
}

void
Report::write(std::ostream &os) const
{
    os << "{\"attempted\":" << attempted_ << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        os << (i ? "," : "") << '"' << mopt::jsonEscape(failures_[i])
           << '"';
    os << "],\"setup_s\":[";
    for (std::size_t i = 0; i < setup_.size(); ++i) {
        os << (i ? "," : "");
        writeNumber(os, setup_[i]);
    }
    os << "],\"values\":{";
    bool first = true;
    for (const auto &[name, v] : values_) {
        os << (first ? "" : ",") << '"' << name << "\":";
        writeNumber(os, v);
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto &[name, xs] : samples_) {
        os << (first ? "" : ",") << '"' << name << "\":[";
        for (std::size_t i = 0; i < xs.size(); ++i) {
            os << (i ? "," : "");
            writeNumber(os, xs[i]);
        }
        os << "]";
        first = false;
    }
    // [name, start_ns, end_ns, id, parent, req] per span.
    os << "},\"spans\":[";
    const std::vector<SpanRecord> spans = Trace::spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? ",\n" : "") << "[\"" << mopt::jsonEscape(s.name)
           << "\"," << s.start_ns << "," << s.end_ns << "," << s.id << ","
           << s.parent << "," << s.req << "]";
    }
    os << "]}\n";
}

mopt::MachineSpec
benchMachine()
{
    return mopt::machineByName("i7");
}

mopt::OptimizerOptions
planOptions(const Options &o)
{
    mopt::OptimizerOptions opts;
    opts.effort = mopt::OptimizerOptions::Effort::Standard;
    opts.parallel = true;
    opts.seed = o.seed;
    opts.threads = o.threads;
    return opts;
}

Net
loadNet(const std::string &name)
{
    return Net{name, mopt::networkDefByName(name).lower()};
}

std::string
freshJournal(const Options &o, const std::string &tag)
{
    const std::filesystem::path dir =
        std::filesystem::path(o.workdir) / tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return (dir / "journal.jsonl").string();
}

mopt::RpcRequest
identityRequest(const Options &o)
{
    mopt::RpcRequest req;
    req.machine_fp = mopt::CacheKey::machineFingerprint(benchMachine());
    req.settings_fp = mopt::CacheKey::settingsFingerprint(planOptions(o));
    return req;
}

mopt::RpcRequest
networkRequest(const Options &o, const std::string &net)
{
    mopt::RpcRequest req = identityRequest(o);
    req.op = mopt::RpcOp::SolveNetwork;
    req.net = net;
    req.batch = 1;
    return req;
}

mopt::CachedSolution
cachedOf(const mopt::LayerPlan &lp)
{
    return mopt::CachedSolution{lp.best.config,
                                lp.best.predicted.total_seconds,
                                lp.best.perm_label};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench

namespace {

int
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out FILE\n";
    return 2;
}

/** CPUs this process may run on (the container's nproc). */
int
availableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    o.threads = availableCpus();
    std::string out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string v = argv[i + 1];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = std::stoull(v);
        else if (flag == "--seconds")
            o.seconds = std::stod(v);
        else if (flag == "--trace")
            o.trace = v == "1";
        else if (flag == "--workdir")
            o.workdir = v;
        else if (flag == "--out")
            out = v;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (out.empty() || o.workdir.empty() || o.seconds <= 0)
        return usage("--out, --workdir and a positive --seconds are "
                     "required");

    void (*run)(const Options &, Report &) = nullptr;
    if (o.workload == "plan_cold")
        run = runPlanCold;
    else if (o.workload == "exec_plans")
        run = runExecPlans;
    else if (o.workload == "serve_warm")
        run = runServeWarm;
    else
        return usage(("unknown workload '" + o.workload + "'").c_str());

    if (o.trace)
        Trace::enable();
    Report report;
    try {
        run(o, report);
        report.value("peak_rss_mb", peakRssMb());
        if (o.trace)
            runProbes(o, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << o.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    std::ofstream os(out);
    report.write(os);
    return os.good() ? 0 : 1;
}
