/**
 * @file
 * Client side of the moptd protocol: a connection to one server
 * (Client) and a fleet router (ShardRouter) that partitions the
 * solution-cache key space across N servers by CacheKey::hash() %
 * n_nodes — the hash is stable across processes and machines, so
 * every client in a fleet routes a given (problem, machine, settings)
 * to the same node and that node's cache accumulates all the traffic
 * for its slice of the key space.
 *
 * Availability beats completeness: when a node is unreachable (or
 * answers garbage), the router falls back to solving locally with the
 * same deterministic optimizer the server runs, so a degraded fleet
 * returns byte-identical plans, just more slowly.
 *
 * Failure policy (FleetOptions; docs/ARCHITECTURE.md "Failure
 * model"):
 *
 *  - **Deadlines.** Every RPC is bounded by deadline_ms end to end
 *    (connect, send, await); the budget also travels in the request
 *    so the server stops working the moment an answer would be too
 *    late. A stalled or blackholed node costs at most the deadline.
 *  - **Retries.** Transport failures and explicit "overloaded"
 *    refusals are retried up to max_retries times with doubling,
 *    jittered backoff. Any *other* refusal (fingerprint mismatch, bad
 *    shape) is a fleet misconfiguration and fails loudly, never
 *    retried — retrying can't fix a wrong question.
 *  - **Hedging.** When an answer hasn't arrived after hedge_ms, the
 *    same request is fired at the next healthy node and the first
 *    answer wins. Plans are deterministic, so either answer is
 *    correct; single-flight coalescing server-side makes the
 *    duplicate nearly free. The loser is abandoned.
 *  - **Mark-down with re-probe.** A node whose calls transport-fail
 *    (or time out entirely) is quarantined for markdown_ms, during
 *    which its keys solve locally, fail over to the owner's ring
 *    successor (which shard-aware replication keeps warm for exactly
 *    those keys — rpc/replicator.cc), or hedge elsewhere; after the
 *    quarantine one call re-probes it (half-open) and success puts it
 *    back in rotation. Nothing is ever marked down forever. The
 *    standing is kept in a fleet::PeerTable — the same state machine
 *    the Replicator runs — configured for the router's historical
 *    semantics (first failure quarantines, fixed window, no jitter).
 */

#ifndef MOPT_RPC_CLIENT_HH
#define MOPT_RPC_CLIENT_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fleet/peer_table.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/protocol.hh"
#include "rpc/tcp.hh"
#include "service/network_optimizer.hh"

namespace mopt {

/** One server address. */
struct RpcEndpoint
{
    std::string host;
    int port = 0;

    std::string str() const { return host + ":" + std::to_string(port); }
    bool operator==(const RpcEndpoint &o) const = default;
};

/**
 * Parse a "host:port[,host:port...]" list (the --connect flag).
 * Throws FatalError on empty input, a missing/invalid port, or an
 * empty host. IPv6 literals are not supported — this is the CLI's
 * flag syntax, and ":" is its separator.
 */
std::vector<RpcEndpoint> parseEndpointList(const std::string &csv);

/**
 * Failure policy of a fleet client (ShardRouter and the CLI's
 * single-node retry path). The defaults reproduce the historical
 * behavior: no deadline, one attempt, no hedging.
 */
struct FleetOptions
{
    /** Per-RPC budget in ms (connect + send + await response), also
     *  sent to the server as the request's deadline_ms. 0 = none. */
    long deadline_ms = 0;

    /** Extra attempts after a transport failure or an explicit
     *  "overloaded" refusal. 0 = single attempt. */
    int max_retries = 0;

    /** First retry backoff in ms; doubles per retry, plus up to 50%
     *  deterministic jitter (seeded) so a thundering herd of clients
     *  doesn't re-arrive in lockstep. */
    long backoff_ms = 50;

    /** Fire a duplicate request at the next healthy node when no
     *  answer arrived after this many ms; first answer wins. 0 =
     *  hedging off. */
    long hedge_ms = 0;

    /** Quarantine after a node is marked down, in ms; the first call
     *  routed to it afterwards re-probes it (half-open). */
    long markdown_ms = 1000;

    /** Backoff-jitter seed (deterministic; vary per client). */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;

    /** Solve locally when a shard is unavailable past every retry.
     *  false (the CLI's --no-fallback) turns that degradation into a
     *  hard FatalError instead — the mode used to *prove* an answer
     *  came from the fleet (replication smoke tests, cache audits),
     *  where a silent local solve would mask a cold peer. */
    bool local_fallback = true;
};

/**
 * A blocking connection to one server. Connects lazily on the first
 * call and reconnects after a transport error on the next call. Not
 * thread-safe; one Client per thread.
 *
 * Two calling styles: call() is the one-shot request/response used
 * almost everywhere; startCall()/waitResponse()/disconnect() split the
 * same exchange so a caller can poll several servers at once (the
 * router's hedging) without threads — Timeout from waitResponse keeps
 * the call in flight, and any partial response bytes stay buffered
 * for the next slice.
 */
class Client
{
  public:
    explicit Client(RpcEndpoint ep);

    /** Move-constructible (drops any in-flight call); not copyable. */
    Client(Client &&o) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    const RpcEndpoint &endpoint() const { return ep_; }

    /**
     * Send @p req, await the response line, parse it into @p out —
     * all before @p dl. False + @p err on any transport failure,
     * parse failure, or deadline expiry (the connection is dropped so
     * the next call reconnects). A server error report ({"ok":false})
     * is a *successful* call: true is returned and out.ok is false.
     */
    bool call(const RpcRequest &req, RpcResponse &out,
              std::string *err = nullptr,
              Deadline dl = Deadline::never());

    /**
     * call() under @p policy: per-attempt deadline from deadline_ms,
     * transport failures and "overloaded" refusals retried
     * max_retries times with doubling jittered backoff. Other
     * refusals return immediately (true, out.ok false) — the caller
     * decides how loud to be. @p retries_out, when non-null, is
     * incremented per retry taken.
     */
    bool callRetrying(const RpcRequest &req, const FleetOptions &policy,
                      RpcResponse &out, std::string *err = nullptr,
                      std::size_t *retries_out = nullptr);

    /** waitResponse outcome. */
    enum class CallWait {
        Ready,    //!< Response parsed; the call is complete.
        Timeout,  //!< Deadline expired; call still in flight.
        Transport //!< Connection lost or unparseable response; call
                  //!< aborted and connection dropped.
    };

    /**
     * Begin a call: connect (lazily) and send @p req, all before
     * @p dl. False + @p err on failure (connection dropped). On true,
     * the call is in flight: follow with waitResponse() until it
     * stops returning Timeout, or disconnect().
     */
    bool startCall(const RpcRequest &req, std::string *err = nullptr,
                   Deadline dl = Deadline::never());

    /**
     * Await the in-flight call's response until @p dl. Ready parses
     * into @p out (like call(), a server error report is Ready with
     * out.ok false). Timeout leaves the call in flight — partial
     * bytes stay buffered; poll again with a later deadline.
     */
    CallWait waitResponse(RpcResponse &out, std::string *err = nullptr,
                          Deadline dl = Deadline::never());

    /** Close the connection (next call reconnects). Also how an
     *  in-flight call is dropped (hedging loser): a response may
     *  already be in the socket, so the stream cannot be reused. */
    void disconnect();

  private:
    RpcEndpoint ep_;
    TcpSocket sock_;

    /** Live only while a call is in flight (start → Ready/Transport/
     *  disconnect); owns the response framing state across Timeout
     *  slices. References sock_, hence the explicit move. */
    std::unique_ptr<LineReader> reader_;

    Rng rng_{0x9e3779b97f4a7c15ull}; //!< callRetrying backoff jitter.
};

/** Health snapshot of one fleet node (RouteStats::nodes). */
struct RouteNodeState
{
    RpcEndpoint endpoint;
    bool down = false;
    /** When down: ms until the half-open re-probe (0 = due now). */
    long retry_in_ms = 0;
};

/** What one ShardRouter::optimize call did, per provenance class. */
struct RouteStats
{
    std::size_t unique_shapes = 0;
    std::size_t remote_hits = 0;   //!< Server answered from its cache.
    std::size_t remote_misses = 0; //!< Server solved on demand.
    std::size_t fallbacks = 0;     //!< Node down; solved locally.
    double solve_seconds = 0;      //!< Remote + local solve time.

    std::size_t retries = 0;    //!< Re-attempts (transport/overload).
    std::size_t hedges = 0;     //!< Duplicate requests fired.
    std::size_t hedge_wins = 0; //!< Hedges that answered first.

    /** Per-node health after the call (node index = fleet order). */
    std::vector<RouteNodeState> nodes;
};

/**
 * Routes whole-network solves across a fleet. Not thread-safe; one
 * router per thread. Node health (mark-down + re-probe timing)
 * persists across optimize() calls — see FleetOptions.
 */
class ShardRouter
{
  public:
    /**
     * @param endpoints  the fleet, in fleet-wide agreed order (routing
     *                   is positional: hash % n picks an index)
     * @param machine    machine description (must match the fleet's)
     * @param opts       search settings (must match the fleet's)
     * @param fleet      failure policy (defaults: one attempt, no
     *                   deadline, no hedging — the historical
     *                   behavior)
     */
    ShardRouter(std::vector<RpcEndpoint> endpoints,
                const MachineSpec &machine,
                const OptimizerOptions &opts, FleetOptions fleet = {});

    /** Node index that owns @p key: hash % n_nodes. */
    std::size_t nodeOf(const CacheKey &key) const;

    /**
     * Optimize every layer of @p net, one RPC per unique shape to the
     * owning node, local solve on node failure. The returned plan is
     * byte-identical to NetworkOptimizer::optimize on a local cache
     * (same dedupe, same deterministic solves). @p stats_out, when
     * non-null, receives the provenance breakdown.
     */
    NetworkPlan optimize(const std::vector<ConvProblem> &net,
                         RouteStats *stats_out = nullptr);

    std::size_t nodeCount() const { return clients_.size(); }

    /** Current per-node health (also on RouteStats::nodes). */
    std::vector<RouteNodeState> nodeStates() const;

  private:
    /** How one remote attempt ended. */
    enum class Attempt {
        Done,       //!< Result obtained (or a fatal refusal threw).
        Overloaded, //!< Server shed the request; back off and retry.
        Transport   //!< Connect/transport failure or deadline expiry.
    };

    /** Solve one canonical shape, remote first, local on failure. */
    RpcSolveResult solveOne(const CacheKey &key, RouteStats &stats);

    /** One deadline-bounded attempt against @p primary, hedged onto
     *  the next healthy node after hedge_ms. Fills @p out on Done. */
    Attempt attemptHedged(std::size_t primary, const RpcRequest &req,
                          RouteStats &stats, RpcSolveResult &out);

    /** Finish a completed exchange: count provenance, fill @p out.
     *  Throws (checkUser) on a non-retryable refusal. */
    Attempt finishResponse(std::size_t node, const RpcResponse &resp,
                           RouteStats &stats, RpcSolveResult &out);

    bool nodeUp(std::size_t node) const;
    void markDown(std::size_t node);

    /** Next healthy node after @p primary in ring order, or
     *  n (= none). */
    std::size_t nextUpNode(std::size_t primary) const;

    std::vector<Client> clients_;

    /** Persistent node standing: first failure quarantines for
     *  markdown_ms, then one call re-probes (half-open). */
    PeerTable peers_;

    FleetOptions fleet_;
    MachineSpec machine_;
    OptimizerOptions opts_;
    std::uint64_t machine_fp_;
    std::uint64_t settings_fp_;
    Rng rng_; //!< Backoff jitter (seeded, deterministic).
};

} // namespace mopt

#endif // MOPT_RPC_CLIENT_HH
