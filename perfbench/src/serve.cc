/**
 * @file
 * serve_warm: an in-process Server over loopback, driven by Clients on
 * their own threads; every client waits for each reply before sending
 * the next request (closed loop). Set-up plans resnet18 into a journal
 * and opens a 2-worker server on it; two clients then send a seeded
 * stream of single-shape `solve` requests over resnet18's shapes with
 * about one `solve_network resnet18` in eight. Only rpc, json, cache
 * lookup and replay run — the scheduler must solve nothing. Its
 * operation (op_ms) is one solve_network; run.py reports the median.
 */

#include <latch>
#include <memory>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "rpc/client.hh"
#include "rpc/protocol.hh"
#include "rpc/server.hh"
#include "service/network_optimizer.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kNetEvery = 8; //!< One solve_network per this many.

/** A started server on its own event-loop thread, over its own cache
 *  (opened from @p journal). Stops and joins on destruction. */
class LiveServer
{
  public:
    LiveServer(const std::string &journal, const Options &o)
    {
        mopt::SolutionCacheOptions co;
        co.journal_path = journal;
        cache_ = std::make_unique<mopt::SolutionCache>(co);
        mopt::ServerOptions so;
        so.workers = kClients;
        server_ = std::make_unique<mopt::Server>(
            benchMachine(), planOptions(o), cache_.get(), so);
        std::string err;
        if (!server_->start(&err))
            throw std::runtime_error("cannot start server: " + err);
        loop_ = std::thread([this] { server_->serve(); });
    }

    ~LiveServer()
    {
        server_->stop();
        loop_.join();
    }

    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    mopt::Server &server() { return *server_; }
    mopt::SolutionCache &cache() { return *cache_; }
    mopt::RpcEndpoint endpoint() const
    {
        return {"127.0.0.1", server_->port()};
    }

  private:
    std::unique_ptr<mopt::SolutionCache> cache_;
    std::unique_ptr<mopt::Server> server_;
    std::thread loop_;
};

/** What one client thread saw (merged into the report afterwards,
 *  since Report is single-threaded). */
struct ClientLog
{
    std::vector<double> net_ms; //!< solve_network latencies.
    std::int64_t attempted = 0;
    std::vector<std::string> failures;
};

} // namespace

void
runServeWarm(const Options &o, Report &r)
{
    const mopt::MachineSpec m = benchMachine();
    const mopt::OptimizerOptions opts = planOptions(o);

    Net net;
    mopt::NetworkPlan plan;
    std::unique_ptr<LiveServer> live;
    for (int i = 0; i < kSetupReps; ++i) {
        live.reset();
        const std::string journal = freshJournal(o, "warm");
        r.setup(timed([&] {
            net = loadNet("resnet18");
            {
                mopt::SolutionCache cold({.journal_path = journal});
                plan = mopt::NetworkOptimizer(m, opts, &cold)
                           .optimize(net.layers);
            }
            live = std::make_unique<LiveServer>(journal, o);
        }));
    }
    const std::string expected_plan = plan.str();

    // One solve request (and its expected answer) per unique shape.
    std::vector<mopt::RpcRequest> solve_reqs;
    std::vector<mopt::CachedSolution> expected;
    for (const mopt::LayerPlan &lp : plan.layers) {
        if (lp.dedup_hit)
            continue;
        mopt::RpcRequest req = identityRequest(o);
        req.op = mopt::RpcOp::Solve;
        req.problem = lp.problem;
        solve_reqs.push_back(req);
        expected.push_back(cachedOf(lp));
    }
    const mopt::RpcRequest net_req = networkRequest(o, "resnet18");

    const mopt::SolutionCacheStats before = live->cache().stats();
    std::vector<ClientLog> logs(kClients);
    std::latch go(kClients + 1);
    // Set just before the start latch opens (which publishes it).
    std::chrono::steady_clock::time_point t_end;
    std::vector<std::thread> threads;
    for (int ci = 0; ci < kClients; ++ci) {
        threads.emplace_back([&, ci] {
            ClientLog &log = logs[static_cast<std::size_t>(ci)];
            mopt::Client client(live->endpoint());
            mopt::Rng rng(o.seed * 0x9e3779b97f4a7c15ull +
                          static_cast<std::uint64_t>(ci));
            std::uint64_t n = 0;
            go.arrive_and_wait();
            while (std::chrono::steady_clock::now() < t_end) {
                const bool is_net = rng.uniformInt(0, kNetEvery - 1) == 0;
                const std::size_t j = rng.index(solve_reqs.size());
                const std::uint64_t req_id =
                    (static_cast<std::uint64_t>(ci + 1) << 40) | ++n;
                mopt::RpcResponse resp;
                std::string err;
                bool called = false;
                double s;
                {
                    Span span(is_net ? "Client::call/solve_network"
                                     : "Client::call/solve",
                              req_id);
                    s = timed([&] {
                        called = client.call(is_net ? net_req
                                                    : solve_reqs[j],
                                             resp, &err);
                    });
                }
                log.attempted++;
                const bool ok =
                    called && resp.ok &&
                    (is_net ? resp.plan_text == expected_plan
                            : resp.solve.sol == expected[j] &&
                                  resp.solve.cache_hit);
                if (!ok) {
                    log.failures.push_back(
                        std::string(is_net ? "solve_network" : "solve") +
                        (!called    ? " failed: " + err
                         : !resp.ok ? " refused: " + resp.error
                                    : " returned a different plan"));
                    continue;
                }
                if (is_net)
                    log.net_ms.push_back(s * 1e3);
            }
        });
    }
    t_end = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(o.seconds));
    go.arrive_and_wait();
    for (std::thread &t : threads)
        t.join();

    for (const ClientLog &log : logs) {
        for (const double ms : log.net_ms)
            r.sample("op_ms", ms);
        r.checks(log.attempted, log.failures);
    }

    const mopt::SolutionCacheStats after = live->cache().stats();
    r.check(after.misses == before.misses,
            "serve_warm: a cache lookup missed");
    r.check(live->server().schedulerStats().solves == 0,
            "serve_warm: the scheduler ran a solve");
}

} // namespace perfbench
