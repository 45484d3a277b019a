/**
 * @file
 * Serving-mode walkthrough: everything `mopt serve` / `mopt query` do,
 * as a library consumer would wire it. Starts an in-process moptd on
 * an ephemeral loopback port, queries it cold and warm over real
 * sockets, reads the per-entry telemetry, and then routes through a
 * deliberately half-dead two-node fleet to show the shard router's
 * local-solve fallback.
 *
 * Build & run:
 *   cmake --build build --target serving_client
 *   build/examples/serving_client
 */

#include <iostream>
#include <thread>

#include "common/flags.hh"
#include "frontend/registry.hh"
#include "machine/machine.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "service/cache_key.hh"

int
main(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    const MachineSpec machine =
        machineByName(flags.getString("machine", "i7"));
    OptimizerOptions opts;
    opts.effort =
        effortFromString(flags.getString("effort", "fast"));

    // --- Server side: what `mopt serve` runs. -----------------------
    SolutionCache cache; // Add a journal_path to persist across runs.
    ServerOptions so;
    // Up to two cold shapes solve at once (each on half the pool
    // width); duplicate concurrent requests always share one solve.
    // Plans are byte-identical for any budget.
    so.solve_concurrency = 2;
    Server server(machine, opts, &cache, so);
    std::string err;
    if (!server.start(&err)) {
        std::cerr << "cannot start server: " << err << "\n";
        return 1;
    }
    std::thread serve_thread([&server] { server.serve(); });
    const RpcEndpoint ep{"127.0.0.1", server.port()};
    std::cout << "moptd listening on " << ep.str() << "\n\n";

    // --- One-node client: whole network in one round trip. ----------
    Client client(ep);
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    req.net = "resnet18";
    req.machine_fp = CacheKey::machineFingerprint(machine);
    req.settings_fp = CacheKey::settingsFingerprint(opts);

    RpcResponse cold;
    if (!client.call(req, cold, &err) || !cold.ok) {
        std::cerr << "solve_network failed: "
                  << (err.empty() ? cold.error : err) << "\n";
        return 1;
    }
    std::cout << "cold query: " << cold.cache_hits << " hits / "
              << cold.cache_misses << " misses, "
              << cold.solve_seconds << " s of solving\n";

    RpcResponse warm;
    if (!client.call(req, warm, &err) || !warm.ok)
        return 1;
    std::cout << "warm query: " << warm.cache_hits << " hits / "
              << warm.cache_misses << " misses ("
              << (warm.plan_text == cold.plan_text
                      ? "plan byte-identical"
                      : "PLAN MISMATCH!")
              << ")\n\n";

    // --- Telemetry: which entries earn their keep. -------------------
    RpcRequest stats_req;
    stats_req.op = RpcOp::Stats;
    RpcResponse stats;
    if (client.call(stats_req, stats, &err) && stats.ok) {
        std::cout << stats.machine_name << ": " << stats.entries
                  << " cached entries, lookups " << stats.cache.hits
                  << " hits / " << stats.cache.misses << " misses\n"
                  << "scheduler: " << stats.sched_solves
                  << " solves, " << stats.sched_coalesced
                  << " coalesced (budget " << stats.sched_budget
                  << ", peak " << stats.sched_peak << ")\n";
        for (std::size_t i = 0; i < stats.entry_hits.size() && i < 3;
             ++i)
            std::cout << "  " << stats.entry_hits[i].hits << " hits  "
                      << stats.entry_hits[i].key << "\n";
    }
    std::cout << "\n";

    // --- Fleet routing with a dead node. -----------------------------
    // Node 0 points at a closed port: every shape it owns falls back
    // to a local solve, and the plan still matches the server's.
    ShardRouter router({RpcEndpoint{"127.0.0.1", 1}, ep}, machine,
                       opts);
    RouteStats rs;
    const NetworkPlan plan =
        router.optimize(networkDefByName("resnet18").lower(), &rs);
    std::cout << "degraded fleet: " << rs.remote_hits << " remote hits, "
              << rs.fallbacks << " local fallbacks; plan "
              << (plan.str() == cold.plan_text ? "still byte-identical"
                                               : "MISMATCH!")
              << "\n";

    // --- Shutdown over the wire, like `mopt query --shutdown`. -------
    RpcRequest bye;
    bye.op = RpcOp::Shutdown;
    RpcResponse bye_resp;
    client.call(bye, bye_resp, &err);
    serve_thread.join();
    std::cout << "server shut down cleanly\n";
    return 0;
}
