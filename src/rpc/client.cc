#include "rpc/client.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/string_util.hh"
#include "common/timer.hh"
#include "fleet/backoff.hh"
#include "service/cache_key.hh"

namespace mopt {

namespace {

/** Poll slice while alternating between two hedged calls: long enough
 *  to avoid spinning, short enough that the loser's answer is
 *  abandoned promptly once the winner lands. */
constexpr long kHedgePollSliceMs = 20;

/** Longest response line a call accepts. */
constexpr std::size_t kMaxResponseBytes = 8u << 20;

/** PeerTable configuration reproducing the router's historical
 *  mark-down: the first transport failure quarantines for a fixed
 *  markdown_ms window (base == cap, no jitter), after which one call
 *  re-probes half-open. */
PeerTableOptions
routerPeerOptions(const FleetOptions &fleet)
{
    PeerTableOptions po;
    po.down_after = 1;
    po.probe_backoff_ms = fleet.markdown_ms;
    po.probe_backoff_cap_ms = fleet.markdown_ms;
    po.jitter = false;
    po.seed = fleet.seed;
    return po;
}

} // namespace

std::vector<RpcEndpoint>
parseEndpointList(const std::string &csv)
{
    std::vector<RpcEndpoint> out;
    for (const std::string &part : split(csv, ',')) {
        const std::string tok = trim(part);
        if (tok.empty())
            fatal("--connect: empty endpoint in \"" + csv + "\"");
        const auto colon = tok.rfind(':');
        if (colon == std::string::npos || colon == 0)
            fatal("--connect: expected host:port, got \"" + tok + "\"");
        const std::string host = tok.substr(0, colon);
        const std::string port_str = tok.substr(colon + 1);
        if (port_str.empty() ||
            port_str.find_first_not_of("0123456789") != std::string::npos)
            fatal("--connect: bad port in \"" + tok + "\"");
        const long port = std::strtol(port_str.c_str(), nullptr, 10);
        if (port < 1 || port > 65535)
            fatal("--connect: port out of range in \"" + tok + "\"");
        out.push_back(RpcEndpoint{host, static_cast<int>(port)});
    }
    checkUser(!out.empty(), "--connect: no endpoints given");
    return out;
}

Client::Client(RpcEndpoint ep) : ep_(std::move(ep)) {}

Client::Client(Client &&o) noexcept
    : ep_(std::move(o.ep_)), sock_(std::move(o.sock_)), rng_(o.rng_)
{
    // reader_ references o.sock_, so an in-flight call cannot move;
    // drop it (the moved-from client is dead anyway).
    o.reader_.reset();
}

bool
Client::startCall(const RpcRequest &req, std::string *err, Deadline dl)
{
    reader_.reset(); // A previous call's leftovers never frame into
                     // this one.
    if (!sock_.valid()) {
        sock_ = TcpSocket::connectTo(ep_.host, ep_.port, err, dl);
        if (!sock_.valid())
            return false;
    }
    if (!sock_.sendAll(requestToJsonLine(req) + "\n", dl)) {
        if (err)
            *err = ep_.str() + ": send failed";
        disconnect();
        return false;
    }
    reader_ = std::make_unique<LineReader>(sock_, kMaxResponseBytes);
    return true;
}

Client::CallWait
Client::waitResponse(RpcResponse &out, std::string *err, Deadline dl)
{
    if (!reader_) {
        if (err)
            *err = ep_.str() + ": no call in flight";
        return CallWait::Transport;
    }
    std::string line;
    const LineReader::Status st = reader_->readLine(line, dl);
    if (st == LineReader::Status::Timeout)
        return CallWait::Timeout; // Partial bytes stay buffered.
    if (st != LineReader::Status::Ok) {
        if (err)
            *err = ep_.str() + ": connection lost awaiting response";
        disconnect();
        return CallWait::Transport;
    }
    reader_.reset(); // Call complete.
    std::string perr;
    if (!responseFromJsonLine(line, out, &perr)) {
        if (err)
            *err = ep_.str() + ": bad response: " + perr;
        disconnect();
        return CallWait::Transport;
    }
    return CallWait::Ready;
}

bool
Client::call(const RpcRequest &req, RpcResponse &out, std::string *err,
             Deadline dl)
{
    if (!startCall(req, err, dl))
        return false;
    const CallWait w = waitResponse(out, err, dl);
    if (w == CallWait::Ready)
        return true;
    if (w == CallWait::Timeout) {
        if (err)
            *err = ep_.str() + ": timed out awaiting response";
        disconnect();
    }
    return false;
}

bool
Client::callRetrying(const RpcRequest &req, const FleetOptions &policy,
                     RpcResponse &out, std::string *err,
                     std::size_t *retries_out)
{
    for (int attempt = 0;; ++attempt) {
        if (attempt > 0) {
            if (retries_out)
                ++*retries_out;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                backoffDelayMs(policy.backoff_ms, attempt, rng_)));
        }
        const Deadline dl = policy.deadline_ms > 0
                                ? Deadline::in(policy.deadline_ms)
                                : Deadline::never();
        if (call(req, out, err, dl)) {
            // Only an explicit overload shed is retryable; any other
            // refusal means retrying can't fix the question.
            if (out.ok || out.code != RpcErrorCode::Overloaded ||
                attempt >= policy.max_retries)
                return true;
            continue;
        }
        if (attempt >= policy.max_retries)
            return false;
    }
}

void
Client::disconnect()
{
    // An abandoned response (whole or partial) may still arrive on
    // this stream; dropping the connection is the only way to keep it
    // from framing into the next call.
    reader_.reset();
    sock_.close();
}

ShardRouter::ShardRouter(std::vector<RpcEndpoint> endpoints,
                         const MachineSpec &machine,
                         const OptimizerOptions &opts, FleetOptions fleet)
    : peers_(endpoints.size(), routerPeerOptions(fleet)), fleet_(fleet),
      machine_(machine), opts_(opts),
      machine_fp_(CacheKey::machineFingerprint(machine)),
      settings_fp_(CacheKey::settingsFingerprint(opts)),
      rng_(fleet.seed)
{
    checkUser(!endpoints.empty(), "ShardRouter: no endpoints");
    machine_.validate();
    clients_.reserve(endpoints.size());
    for (RpcEndpoint &ep : endpoints)
        clients_.emplace_back(std::move(ep));
}

std::size_t
ShardRouter::nodeOf(const CacheKey &key) const
{
    return static_cast<std::size_t>(key.hash() % clients_.size());
}

bool
ShardRouter::nodeUp(std::size_t node) const
{
    // A down node past its quarantine is offered again: the next call
    // routed here is the half-open probe, and markDown() re-arms the
    // quarantine if it fails.
    return peers_.offerable(node);
}

void
ShardRouter::markDown(std::size_t node)
{
    peers_.reportFailure(node);
}

std::size_t
ShardRouter::nextUpNode(std::size_t primary) const
{
    const std::size_t n = clients_.size();
    for (std::size_t off = 1; off < n; ++off) {
        const std::size_t node = (primary + off) % n;
        if (nodeUp(node))
            return node;
    }
    return n;
}

std::vector<RouteNodeState>
ShardRouter::nodeStates() const
{
    std::vector<RouteNodeState> out;
    out.reserve(clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        RouteNodeState st;
        st.endpoint = clients_[i].endpoint();
        const PeerInfo info = peers_.info(i);
        // "Down" here means *currently quarantined*: a Down peer whose
        // half-open window has opened is reported up (it is offerable,
        // and the next call decides its fate).
        st.down = info.state == PeerState::Down && info.retry_in_ms > 0;
        if (st.down)
            st.retry_in_ms = info.retry_in_ms;
        out.push_back(std::move(st));
    }
    return out;
}

ShardRouter::Attempt
ShardRouter::finishResponse(std::size_t node, const RpcResponse &resp,
                            RouteStats &stats, RpcSolveResult &out)
{
    if (!resp.ok) {
        if (resp.code == RpcErrorCode::Overloaded)
            return Attempt::Overloaded;
        // A *refusal* is a fleet misconfiguration (wrong machine,
        // wrong settings, bad shape); silently solving locally would
        // mask it on every future query. Fail loudly.
        fatal("moptd node " + clients_[node].endpoint().str() +
              " refused solve: " + resp.error);
    }
    peers_.reportSuccess(node); // The answer proves the node up.
    (resp.solve.cache_hit ? stats.remote_hits : stats.remote_misses)++;
    stats.solve_seconds += resp.solve_seconds;
    out = resp.solve;
    return Attempt::Done;
}

ShardRouter::Attempt
ShardRouter::attemptHedged(std::size_t primary, const RpcRequest &req,
                           RouteStats &stats, RpcSolveResult &out)
{
    Client &pc = clients_[primary];
    const Deadline dl = fleet_.deadline_ms > 0
                            ? Deadline::in(fleet_.deadline_ms)
                            : Deadline::never();
    std::string err;
    if (!pc.startCall(req, &err, dl)) {
        logWarn("moptd node ", pc.endpoint().str(),
                " unreachable (", err, ")");
        markDown(primary);
        return Attempt::Transport;
    }

    // Phase 1: wait for the primary alone, up to the hedge threshold
    // (or the whole deadline when hedging is off or there is nowhere
    // to hedge to).
    const std::size_t secondary =
        fleet_.hedge_ms > 0 ? nextUpNode(primary) : clients_.size();
    const bool can_hedge = secondary < clients_.size();
    RpcResponse resp;
    Deadline first = dl;
    if (can_hedge) {
        const Deadline hedge_at = Deadline::in(fleet_.hedge_ms);
        if (dl.infinite() ||
            hedge_at.remainingMs() < dl.remainingMs())
            first = hedge_at;
    }
    Client::CallWait w = pc.waitResponse(resp, &err, first);
    if (w == Client::CallWait::Ready)
        return finishResponse(primary, resp, stats, out);
    if (w == Client::CallWait::Transport) {
        logWarn("moptd node ", pc.endpoint().str(), " unreachable (",
                err, ")");
        markDown(primary);
        return Attempt::Transport;
    }
    if (!can_hedge) {
        // Timeout with nowhere to hedge: the node is slow past the
        // whole budget — quarantine it and let the caller fall back.
        logWarn("moptd node ", pc.endpoint().str(),
                " timed out after ", fleet_.deadline_ms, " ms");
        pc.disconnect();
        markDown(primary);
        return Attempt::Transport;
    }

    // Phase 2: primary is slow, not (yet) dead. Fire the hedge and
    // poll both in slices; first answer wins, the loser is abandoned.
    // Byte-identical plans make either answer correct.
    stats.hedges++;
    Client &sc = clients_[secondary];
    std::string serr;
    bool primary_live = true;
    bool secondary_live = sc.startCall(req, &serr, dl);
    if (!secondary_live)
        markDown(secondary);
    while ((primary_live || secondary_live) && !dl.expired()) {
        if (primary_live) {
            const Deadline slice =
                Deadline::in(std::min(kHedgePollSliceMs,
                                      std::max(1L, dl.remainingMs())));
            w = pc.waitResponse(resp, &err, slice);
            if (w == Client::CallWait::Ready) {
                if (secondary_live)
                    sc.disconnect();
                return finishResponse(primary, resp, stats, out);
            }
            if (w == Client::CallWait::Transport) {
                markDown(primary);
                primary_live = false;
            }
        }
        if (secondary_live) {
            const Deadline slice =
                Deadline::in(std::min(kHedgePollSliceMs,
                                      std::max(1L, dl.remainingMs())));
            w = sc.waitResponse(resp, &serr, slice);
            if (w == Client::CallWait::Ready) {
                if (primary_live)
                    pc.disconnect();
                stats.hedge_wins++;
                return finishResponse(secondary, resp, stats, out);
            }
            if (w == Client::CallWait::Transport) {
                markDown(secondary);
                secondary_live = false;
            }
        }
    }
    // Deadline expired with neither leg answering (or both legs died
    // on transport): quarantine whatever is still silent.
    if (primary_live) {
        pc.disconnect();
        markDown(primary);
    }
    if (secondary_live) {
        sc.disconnect();
        markDown(secondary);
    }
    logWarn("moptd node ", pc.endpoint().str(),
            " (and hedge) timed out after ", fleet_.deadline_ms,
            " ms");
    return Attempt::Transport;
}

RpcSolveResult
ShardRouter::solveOne(const CacheKey &key, RouteStats &stats)
{
    const std::size_t node = nodeOf(key);
    RpcRequest req;
    req.op = RpcOp::Solve;
    req.problem = key.problem;
    req.machine_fp = machine_fp_;
    req.settings_fp = settings_fp_;
    req.deadline_ms = fleet_.deadline_ms;

    {
        RpcSolveResult result;
        for (int attempt = 0; attempt <= fleet_.max_retries;
             ++attempt) {
            if (attempt > 0) {
                stats.retries++;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    backoffDelayMs(fleet_.backoff_ms, attempt, rng_)));
            }
            // Pick the target fresh each attempt. When the owner is
            // offerable (never failed, or its quarantine window has
            // opened) route to it — a retry against a just-opened
            // quarantine IS the half-open re-probe. While the owner
            // is quarantined, fail over to the next live ring node:
            // under shard-aware replication (rpc/replicator.cc) the
            // owner's ring successors are exactly the nodes that hold
            // this key's replica, so the failover answer is warm.
            // With nowhere live to fail over, keep probing the owner
            // — a dead node fails fast (refused) or at worst costs
            // one deadline (blackholed), bounded by max_retries.
            std::size_t target = node;
            if (!nodeUp(node)) {
                const std::size_t next = nextUpNode(node);
                target = next < clients_.size() ? next : node;
            }
            const Attempt a =
                attemptHedged(target, req, stats, result);
            if (a == Attempt::Done)
                return result;
            // Overloaded and Transport both retry (the next attempt
            // re-probes, fails over, or hedges); exhausted retries
            // fall through to the local solve.
        }
        if (fleet_.local_fallback)
            logWarn("moptd node ", clients_[node].endpoint().str(),
                    " unavailable; falling back to local solve");
    }
    if (!fleet_.local_fallback)
        throw FatalError("shard " +
                         clients_[node].endpoint().str() +
                         " did not answer for " + key.str() +
                         " and local fallback is disabled");
    // Local fallback: the same deterministic pipeline the server
    // runs, so the plan is byte-identical, just paid for locally.
    Timer t;
    const OptimizeOutput out = optimizeConv(key.problem, machine_, opts_);
    checkInvariant(!out.candidates.empty(),
                   "ShardRouter: optimizeConv returned no candidates");
    stats.fallbacks++;
    stats.solve_seconds += t.seconds();
    const Candidate &best = out.candidates.front();
    return RpcSolveResult{
        key,
        CachedSolution{best.config, best.predicted.total_seconds,
                       best.perm_label},
        /*cache_hit=*/false};
}

NetworkPlan
ShardRouter::optimize(const std::vector<ConvProblem> &net,
                      RouteStats *stats_out)
{
    Timer total;

    NetworkPlan plan;
    plan.layers.resize(net.size());
    plan.stats.layers = net.size();
    RouteStats rstats;

    // The same dedupe and replay as NetworkOptimizer::optimize, so
    // remote, degraded, and local plans line up layer for layer (the
    // breakdown is re-derived locally from the deterministic model).
    const std::vector<LayerGroup> groups =
        groupByKey(net, machine_fp_, settings_fp_);
    plan.stats.unique_shapes = groups.size();
    rstats.unique_shapes = groups.size();
    for (const LayerGroup &g : groups) {
        const RpcSolveResult r = solveOne(g.key, rstats);
        replayCandidate(net, g, r.sol, r.cache_hit, 0.0, machine_, opts_,
                        plan);
    }

    plan.stats.solve_seconds = rstats.solve_seconds;
    plan.stats.total_seconds = total.seconds();
    rstats.nodes = nodeStates();
    if (stats_out)
        *stats_out = rstats;
    return plan;
}

} // namespace mopt
