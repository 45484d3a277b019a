/**
 * @file
 * Fault-injection tests of the serving stack, driven through the
 * Faultline proxy (tests/support/faultline.hh): every nasty thing a network
 * does — swallowed responses, torn frames, corrupted bytes, stalls,
 * blackholes — on a deterministic schedule, with the assertions the
 * failure model promises: no call outlives its deadline (bounded by
 * 2x), retries and hedges converge on plans byte-identical to a
 * fault-free run, counters tell the truth, and the cache journal
 * comes back uncorrupted. Plus direct edge-path coverage of the TCP
 * layer: EINTR during a blocked read, fragmented frames, oversized
 * lines through the proxy.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "fleet/ring.hh"
#include "machine/machine.hh"
#include "rpc/client.hh"
#include "rpc/protocol.hh"
#include "rpc/server.hh"
#include "rpc/tcp.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "support/faultline.hh"
#include "support/tcp_accept.hh"
#include "support/thread_count.hh"

namespace mopt {
namespace {

ConvProblem
smallProblem(std::int64_t k = 32, std::int64_t c = 16,
             std::int64_t hw = 14)
{
    ConvProblem p;
    p.name = "chaos";
    p.n = 1;
    p.k = k;
    p.c = c;
    p.r = 3;
    p.s = 3;
    p.h = hw;
    p.w = hw;
    return p;
}

OptimizerOptions
fastOpts()
{
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = true;
    o.threads = 4;
    return o;
}

MachineSpec
tiny()
{
    return machineByName("tiny");
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "mopt_chaos_" + name + "_" +
           std::to_string(::getpid()) + ".json";
}

/** A running moptd on an ephemeral loopback port. */
class TestServer
{
  public:
    explicit TestServer(ServerOptions so = {},
                        SolutionCacheOptions co = {},
                        OptimizerOptions opts = fastOpts())
        : cache_(co), server_(tiny(), opts, &cache_, so)
    {
        std::string err;
        if (!server_.start(&err))
            fatal("TestServer: " + err);
        thread_ = std::thread([this] { server_.serve(); });
    }

    ~TestServer()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
    }

    RpcEndpoint ep() const
    {
        return RpcEndpoint{"127.0.0.1", server_.port()};
    }

    SolutionCache &cache() { return cache_; }
    Server &server() { return server_; }

  private:
    SolutionCache cache_;
    Server server_;
    std::thread thread_;
};

RpcRequest
solveRequest(const ConvProblem &p)
{
    RpcRequest req;
    req.op = RpcOp::Solve;
    req.problem = p;
    req.machine_fp = CacheKey::machineFingerprint(tiny());
    req.settings_fp = CacheKey::settingsFingerprint(fastOpts());
    return req;
}

/** A proxy in front of @p upstream with the given fault schedule. */
FaultlineOptions
proxyTo(const RpcEndpoint &upstream, std::vector<FaultKind> schedule)
{
    FaultlineOptions fo;
    fo.upstream_host = upstream.host;
    fo.upstream_port = upstream.port;
    fo.schedule = std::move(schedule);
    return fo;
}

long
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

TEST(Chaos, BlackholeIsBoundedByDeadline)
{
    // No server at all behind this fault: the connection accepts and
    // then answers nothing, forever. Only the deadline gets out.
    FaultlineOptions fo;
    fo.upstream_port = 1; // Never contacted by a blackhole.
    fo.schedule = {FaultKind::Blackhole};
    FaultlineProxy proxy(fo);
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    constexpr long kDeadlineMs = 500;
    Client c(RpcEndpoint{"127.0.0.1", proxy.port()});
    RpcResponse resp;
    const auto start = std::chrono::steady_clock::now();
    const bool ok = c.call(solveRequest(smallProblem()), resp, &err,
                           Deadline::in(kDeadlineMs));
    const long took = elapsedMs(start);
    EXPECT_FALSE(ok);
    // The acceptance bound: within 2x the configured deadline.
    EXPECT_LE(took, 2 * kDeadlineMs);
    EXPECT_EQ(proxy.stats().blackholes, 1);
}

TEST(Chaos, DroppedResponseIsRetriedAndConvergesViaCache)
{
    TestServer ts;
    FaultlineProxy proxy(
        proxyTo(ts.ep(), {FaultKind::Drop, FaultKind::None}));
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    // Connection 0 delivers the request and loses the answer: the
    // server has *processed* it. The retry (connection 1, clean) must
    // converge on the very answer the first attempt computed.
    FleetOptions policy;
    policy.deadline_ms = 30000;
    policy.max_retries = 2;
    policy.backoff_ms = 10;
    Client c(RpcEndpoint{"127.0.0.1", proxy.port()});
    RpcResponse resp;
    std::size_t retries = 0;
    ASSERT_TRUE(c.callRetrying(solveRequest(smallProblem()), policy,
                               resp, &err, &retries))
        << err;
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(retries, 1u);
    // The first attempt's solve landed in the cache before its
    // response was written, so the retry is a hit — work is never
    // repeated, only the answer's delivery.
    EXPECT_TRUE(resp.solve.cache_hit);
    EXPECT_EQ(proxy.stats().drops, 1);
    EXPECT_EQ(ts.server().schedulerStats().solves, 1);
}

TEST(Chaos, GarbageAndTornResponsesAreRejectedThenRetried)
{
    TestServer ts;
    FaultlineProxy proxy(proxyTo(
        ts.ep(),
        {FaultKind::Garbage, FaultKind::PartialWrite, FaultKind::None}));
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    FleetOptions policy;
    policy.deadline_ms = 30000;
    policy.max_retries = 3;
    policy.backoff_ms = 10;
    Client c(RpcEndpoint{"127.0.0.1", proxy.port()});
    RpcResponse resp;
    std::size_t retries = 0;
    ASSERT_TRUE(c.callRetrying(solveRequest(smallProblem()), policy,
                               resp, &err, &retries))
        << err;
    ASSERT_TRUE(resp.ok) << resp.error;
    // Garbage (unparseable frame) and a torn frame each cost one
    // retry; neither is ever trusted as an answer.
    EXPECT_EQ(retries, 2u);
    EXPECT_EQ(proxy.stats().garbage, 1);
    EXPECT_EQ(proxy.stats().partial_writes, 1);

    // The answer equals a fault-free solve of the same shape.
    Client direct(ts.ep());
    RpcResponse clean;
    ASSERT_TRUE(direct.call(solveRequest(smallProblem()), clean, &err))
        << err;
    EXPECT_EQ(resp.solve.sol, clean.solve.sol);
}

TEST(Chaos, PlanByteIdenticalUnderFaultsAndJournalSurvives)
{
    const std::string journal = tempPath("journal");
    std::remove(journal.c_str());
    std::vector<ConvProblem> net{smallProblem(16), smallProblem(32),
                                 smallProblem(48)};
    std::string plan_under_faults;
    {
        SolutionCacheOptions co;
        co.journal_path = journal;
        TestServer ts({}, co);
        // Three faults up front, then a long clean tail (the schedule
        // cycles by connection index; the tail keeps reconnects from
        // re-entering the fault prefix).
        std::vector<FaultKind> schedule{FaultKind::Drop,
                                        FaultKind::Garbage,
                                        FaultKind::PartialWrite};
        schedule.resize(32, FaultKind::None);
        FaultlineProxy proxy(proxyTo(ts.ep(), std::move(schedule)));
        std::string err;
        ASSERT_TRUE(proxy.start(&err)) << err;

        FleetOptions fleet;
        fleet.deadline_ms = 60000;
        fleet.max_retries = 5;
        fleet.backoff_ms = 10;
        ShardRouter router({RpcEndpoint{"127.0.0.1", proxy.port()}},
                           tiny(), fastOpts(), fleet);
        RouteStats rs;
        plan_under_faults = router.optimize(net, &rs).str();

        // Every fault was survived remotely: no local fallbacks, and
        // the retry counter owns up to the recovery work.
        EXPECT_EQ(rs.fallbacks, 0u);
        EXPECT_GE(rs.retries, 3u);
        EXPECT_EQ(rs.unique_shapes, net.size());
        const FaultlineStats fs = proxy.stats();
        EXPECT_EQ(fs.drops, 1);
        EXPECT_EQ(fs.garbage, 1);
        EXPECT_EQ(fs.partial_writes, 1);
    }

    // Byte-identical to a fault-free local run: faults may cost time,
    // never answers.
    SolutionCache local_cache;
    const NetworkOptimizer local(tiny(), fastOpts(), &local_cache);
    EXPECT_EQ(plan_under_faults, local.optimize(net).str());

    // The journal took the whole chaos run without corruption: a
    // fresh process loads every entry and skips none.
    SolutionCacheOptions co;
    co.journal_path = journal;
    SolutionCache reloaded(co);
    EXPECT_EQ(reloaded.stats().journal_loaded,
              static_cast<std::int64_t>(net.size()));
    EXPECT_EQ(reloaded.stats().journal_skipped, 0);
    std::remove(journal.c_str());
}

TEST(Chaos, HedgeEscapesSlowNode)
{
    TestServer node0, node1;
    // Node 0 sits behind a link that stalls every chunk for 700 ms;
    // node 1 is healthy. A hedged call must not pay node 0's stall.
    FaultlineOptions fo = proxyTo(node0.ep(), {FaultKind::Delay});
    fo.delay_ms = 700;
    FaultlineProxy proxy(fo);
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    // A shape whose key routes to node 0, so the hedge (not the
    // primary route) is what reaches the healthy node.
    FleetOptions fleet;
    fleet.deadline_ms = 60000;
    fleet.hedge_ms = 50;
    ShardRouter router(
        {RpcEndpoint{"127.0.0.1", proxy.port()}, node1.ep()}, tiny(),
        fastOpts(), fleet);
    ConvProblem p = smallProblem(16);
    for (int i = 0; i < 64; ++i) {
        p = smallProblem(16 + 8 * i);
        if (router.nodeOf(CacheKey::make(p, tiny(), fastOpts())) == 0)
            break;
    }
    ASSERT_EQ(router.nodeOf(CacheKey::make(p, tiny(), fastOpts())), 0u);

    RouteStats rs;
    const NetworkPlan plan = router.optimize({p}, &rs);
    EXPECT_GE(rs.hedges, 1u);
    EXPECT_EQ(rs.fallbacks, 0u);

    // Same answer as a fault-free local run, hedged or not.
    SolutionCache local_cache;
    const NetworkOptimizer local(tiny(), fastOpts(), &local_cache);
    EXPECT_EQ(plan.str(), local.optimize({p}).str());
}

TEST(Chaos, PerClientCapShedsWithExplicitOverload)
{
    ServerOptions so;
    so.max_per_client = 1;
    TestServer ts(so);

    // First connection occupies this IP's whole budget...
    Client first(ts.ep());
    RpcRequest stats_req;
    stats_req.op = RpcOp::Stats;
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(first.call(stats_req, resp, &err)) << err;
    ASSERT_TRUE(resp.ok);

    // ...so a second is refused at the door, with the retryable
    // "overloaded" code, not a silent hangup.
    TcpSocket second =
        TcpSocket::connectTo(ts.ep().host, ts.ep().port, &err);
    ASSERT_TRUE(second.valid()) << err;
    LineReader reader(second, 1 << 20);
    std::string line;
    ASSERT_EQ(reader.readLine(line, Deadline::in(5000)),
              LineReader::Status::Ok);
    RpcResponse refused;
    ASSERT_TRUE(responseFromJsonLine(line, refused, &err)) << err;
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.code, RpcErrorCode::Overloaded);
    EXPECT_EQ(ts.server().counters().shed_client.load(), 1);

    // Once the first connection is gone the budget frees up; a
    // retrying client (overloaded is retryable) gets through even if
    // it races the server's bookkeeping.
    first.disconnect();
    FleetOptions policy;
    policy.deadline_ms = 5000;
    policy.max_retries = 5;
    policy.backoff_ms = 20;
    Client third(ts.ep());
    ASSERT_TRUE(third.callRetrying(stats_req, policy, resp, &err))
        << err;
    EXPECT_TRUE(resp.ok);
}

TEST(Chaos, ExpiredDeadlineIsSheddedNotServed)
{
    TestServer ts;
    Client c(ts.ep());
    RpcRequest req = solveRequest(smallProblem());
    req.deadline_ms = 1; // Gone before any solve can finish.
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, RpcErrorCode::DeadlineExceeded);
    EXPECT_GE(ts.server().counters().shed_deadline.load(), 1);

    // The abandoned flight keeps solving and lands in the cache: a
    // patient follow-up gets the answer, never a wasted solve.
    req.deadline_ms = 0;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(ts.server().schedulerStats().solves, 1);
}

TEST(TcpEdge, ReadLineSurvivesEintr)
{
    TcpListener listener;
    ASSERT_TRUE(listener.listenOn("127.0.0.1", 0));
    TcpSocket client =
        TcpSocket::connectTo("127.0.0.1", listener.port());
    ASSERT_TRUE(client.valid());
    TcpSocket served = acceptBefore(listener, Deadline::in(10000));
    ASSERT_TRUE(served.valid());

    // A no-op handler installed *without* SA_RESTART: every signal
    // makes the blocked poll return EINTR instead of restarting.
    struct sigaction sa = {};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    struct sigaction old = {};
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    LineReader reader(served, 1024);
    std::string line;
    auto status = LineReader::Status::Error;
    std::atomic<bool> done{false};
    std::thread reader_thread([&] {
        status = reader.readLine(line, Deadline::in(10000));
        done.store(true);
    });
    // Pepper the blocked read with interrupts, then deliver the line:
    // the read must absorb every EINTR and still come back Ok.
    for (int i = 0; i < 20 && !done.load(); ++i) {
        pthread_kill(reader_thread.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(client.sendAll("alive\n"));
    reader_thread.join();
    sigaction(SIGUSR1, &old, nullptr);
    EXPECT_EQ(status, LineReader::Status::Ok);
    EXPECT_EQ(line, "alive");
}

TEST(TcpEdge, FragmentedRequestStillParses)
{
    TestServer ts;
    TcpSocket sock =
        TcpSocket::connectTo(ts.ep().host, ts.ep().port);
    ASSERT_TRUE(sock.valid());

    // One byte per segment, with pauses: the server's reader must
    // reassemble the frame no matter how the network slices it.
    const std::string req = "{\"op\":\"stats\"}\n";
    for (const char ch : req) {
        ASSERT_TRUE(sock.sendAll(std::string(1, ch)));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    LineReader reader(sock, 1 << 20);
    std::string line;
    ASSERT_EQ(reader.readLine(line, Deadline::in(10000)),
              LineReader::Status::Ok);
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.op, RpcOp::Stats);
}

TEST(TcpEdge, OversizedLineRejectedThroughProxy)
{
    ServerOptions so;
    so.max_request_bytes = 128;
    TestServer ts(so);
    FaultlineProxy proxy(proxyTo(ts.ep(), {FaultKind::None}));
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    TcpSocket sock =
        TcpSocket::connectTo("127.0.0.1", proxy.port(), &err);
    ASSERT_TRUE(sock.valid()) << err;
    ASSERT_TRUE(sock.sendAll(std::string(4096, 'x')));
    LineReader reader(sock, 1 << 20);
    std::string line;
    ASSERT_EQ(reader.readLine(line, Deadline::in(10000)),
              LineReader::Status::Ok);
    RpcResponse resp;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("exceeds"), std::string::npos);
    // Framing is unrecoverable: the hangup travels through the proxy.
    EXPECT_EQ(reader.readLine(line, Deadline::in(10000)),
              LineReader::Status::Eof);
}

// Warm-entry replication is best-effort: when the push to a peer is
// blackholed by the network, the origin counts the failure and moves
// on, the peer's cache stays cold, and the peer converges by paying
// for its own solve on its next miss — exactly one solve per node,
// with byte-identical plans (the solver is deterministic).
TEST(Chaos, ReplicationPushDroppedByBlackholeConvergesWithoutDuplicates)
{
    TestServer peer; // The replication target, reachable only via...
    FaultlineProxy proxy(proxyTo(
        peer.ep(), std::vector<FaultKind>(8, FaultKind::Blackhole)));
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    ServerOptions so;
    so.replicate = "127.0.0.1:" + std::to_string(proxy.port());
    TestServer origin(so); // start() pull is blackholed too (bounded).

    const ConvProblem p = smallProblem();
    Client oc(origin.ep());
    RpcResponse resp;
    ASSERT_TRUE(oc.call(solveRequest(p), resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.solve.cache_hit);

    // The push rides a 1 s deadline into the blackhole; wait for the
    // failure counter rather than sleeping blind.
    const auto t0 = std::chrono::steady_clock::now();
    while (origin.server().counters().repl_push_failed.load(
               std::memory_order_relaxed) == 0 &&
           elapsedMs(t0) < 10000)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(origin.server().counters().repl_push_failed.load(
                  std::memory_order_relaxed),
              1);
    EXPECT_EQ(origin.server().counters().repl_pushed.load(
                  std::memory_order_relaxed),
              0);

    // The record never reached the peer...
    EXPECT_EQ(peer.cache().size(), 0u);
    EXPECT_EQ(peer.server().counters().repl_applied.load(
                  std::memory_order_relaxed),
              0);

    // ...so the peer pays for its own solve on its next miss, and the
    // fleet still agrees byte for byte. No duplicate solves anywhere:
    // one on the origin, one on the peer.
    Client pc(peer.ep());
    RpcResponse presp;
    ASSERT_TRUE(pc.call(solveRequest(p), presp, &err)) << err;
    ASSERT_TRUE(presp.ok) << presp.error;
    EXPECT_FALSE(presp.solve.cache_hit);
    EXPECT_EQ(presp.solve.sol, resp.solve.sol);
    EXPECT_EQ(origin.server().schedulerStats().solves, 1);
    EXPECT_EQ(peer.server().schedulerStats().solves, 1);
}

// Shutdown must drain in-flight writes: a response the server already
// produced — even one far larger than the socket buffers, with the
// client not reading — flushes completely (bounded by shed_write_ms)
// before the connection closes.
TEST(Chaos, ShutdownDrainsInFlightWrites)
{
    ServerOptions so;
    so.shed_write_ms = 10000;
    SolutionCacheOptions co;
    co.capacity = 20000;
    TestServer ts(so, co);
    // Preload the cache so the stats response runs to megabytes.
    const CachedSolution sol{};
    for (int i = 0; i < 20000; ++i)
        ts.cache().insert(
            CacheKey::make(smallProblem(32 + i), tiny(), fastOpts()),
            sol);

    std::string err;
    TcpSocket sock = TcpSocket::connectTo(ts.ep().host, ts.ep().port,
                                          &err, Deadline::in(5000));
    ASSERT_TRUE(sock.valid()) << err;
    RpcRequest req;
    req.op = RpcOp::Stats;
    ASSERT_TRUE(sock.sendAll(requestToJsonLine(req) + "\n"));

    // Give the worker time to serialize and the loop time to wedge the
    // flush against our unread receive window, then pull the rug.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ts.server().stop();

    // Only now start reading: the full response must still arrive,
    // followed by a clean EOF.
    LineReader reader(sock, 64u << 20);
    std::string line;
    ASSERT_EQ(reader.readLine(line, Deadline::in(20000)),
              LineReader::Status::Ok);
    RpcResponse resp;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.entry_hits.size(), 20000u);
    EXPECT_EQ(reader.readLine(line, Deadline::in(10000)),
              LineReader::Status::Eof);
}

/** Reserve a loopback port: bind ephemeral, read it back, release.
 *  The listener's SO_REUSEADDR makes the immediate re-bind safe. */
int
reservePort()
{
    TcpListener tmp;
    if (!tmp.listenOn("127.0.0.1", 0))
        fatal("reservePort: cannot bind");
    return tmp.port();
}

// The tentpole acceptance: a three-node fleet at replication factor 2
// loses any single node mid-traffic and keeps serving every key warm,
// byte-identical, under --no-fallback — the killed node's keys come
// from their ring follower, and no survivor re-solves anything.
TEST(Chaos, FleetServesWarmByteIdenticalAfterNodeKilled)
{
    // Fixed ports, reserved up front, so every node can name its
    // peers before any of them is up.
    const std::vector<int> ports{reservePort(), reservePort(),
                                 reservePort()};
    std::vector<RpcEndpoint> eps;
    for (const int p : ports)
        eps.push_back(RpcEndpoint{"127.0.0.1", p});

    std::vector<std::unique_ptr<TestServer>> fleet;
    for (int i = 0; i < 3; ++i) {
        ServerOptions so;
        so.port = ports[static_cast<std::size_t>(i)];
        so.replication_factor = 2;
        so.fleet_index = i;
        so.anti_entropy_ms = 200;
        // Peers in ring order with self removed (the fleet contract).
        for (int j = 0; j < 3; ++j) {
            if (j == i)
                continue;
            if (!so.replicate.empty())
                so.replicate += ",";
            so.replicate += eps[static_cast<std::size_t>(j)].str();
        }
        fleet.push_back(std::make_unique<TestServer>(so));
    }

    std::vector<ConvProblem> net;
    for (int i = 0; i < 6; ++i)
        net.push_back(smallProblem(16 + 8 * i));

    ShardRouter router(eps, tiny(), fastOpts());
    RouteStats rs;
    const std::string plan = router.optimize(net, &rs).str();
    EXPECT_EQ(rs.fallbacks, 0u);
    EXPECT_EQ(rs.remote_misses, net.size());

    // Replication factor 2: each key must reach exactly its ring
    // owner and the owner's successor — no more, no fewer.
    std::size_t want[3] = {0, 0, 0};
    for (const ConvProblem &p : net)
        for (const std::size_t s :
             replicaSlots(CacheKey::make(p, tiny(), fastOpts()).hash(),
                          3, 2))
            ++want[s];
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        bool done = true;
        for (std::size_t i = 0; i < 3; ++i)
            done = done && fleet[i]->cache().size() >= want[i];
        if (done || elapsedMs(t0) > 20000)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::int64_t solves_before[3];
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(fleet[i]->cache().size(), want[i]) << "node " << i;
        solves_before[i] = fleet[i]->server().schedulerStats().solves;
    }

    // Kill the owner of the first key — any single node must do.
    const std::size_t victim =
        router.nodeOf(CacheKey::make(net[0], tiny(), fastOpts()));
    fleet[victim].reset();

    // A fresh router with local fallback OFF: only the fleet's warm
    // copies may answer. Every key, including the victim's, must come
    // back a remote hit, and the plan byte-identical.
    FleetOptions nf;
    nf.local_fallback = false;
    nf.max_retries = 3;
    nf.backoff_ms = 10;
    nf.deadline_ms = 30000;
    ShardRouter after(eps, tiny(), fastOpts(), nf);
    RouteStats wrs;
    EXPECT_EQ(after.optimize(net, &wrs).str(), plan);
    EXPECT_EQ(wrs.remote_hits, net.size());
    EXPECT_EQ(wrs.fallbacks, 0u);

    // The survivors served from their caches: not one new solve.
    for (std::size_t i = 0; i < 3; ++i) {
        if (i != victim) {
            EXPECT_EQ(fleet[i]->server().schedulerStats().solves,
                      solves_before[i]);
        }
    }
}

// Delta prefetch: a node that restarts with its journal intact asks
// its peers only for what it missed ("since" its own high-water
// sequence), not the full cache — and converges without solving.
TEST(Chaos, RestartedNodeConvergesViaDeltaPrefetch)
{
    const std::string journal_a = tempPath("delta_a");
    const std::string journal_b = tempPath("delta_b");
    std::remove(journal_a.c_str());
    std::remove(journal_b.c_str());
    const int port_a = reservePort();
    const int port_b = reservePort();

    ServerOptions sa;
    sa.port = port_a;
    sa.replicate = "127.0.0.1:" + std::to_string(port_b);
    sa.fleet_index = 0;
    SolutionCacheOptions ca;
    ca.journal_path = journal_a;
    TestServer a(sa, ca);

    ServerOptions sb;
    sb.port = port_b;
    sb.replicate = "127.0.0.1:" + std::to_string(port_a);
    sb.fleet_index = 1;
    SolutionCacheOptions cb;
    cb.journal_path = journal_b;
    auto b = std::make_unique<TestServer>(sb, cb);

    // Five solves reach both nodes (factor defaults to all): journal
    // sequences 1..5 on each side.
    Client ac(a.ep());
    std::vector<CachedSolution> sols;
    for (int i = 0; i < 5; ++i) {
        RpcResponse resp;
        std::string err;
        ASSERT_TRUE(
            ac.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        sols.push_back(resp.solve.sol);
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (b->cache().size() < 5 && elapsedMs(t0) < 15000)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(b->cache().size(), 5u);

    // B dies holding sequence 5; A keeps serving: sequences 6..8.
    b.reset();
    for (int i = 5; i < 8; ++i) {
        RpcResponse resp;
        std::string err;
        ASSERT_TRUE(
            ac.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        sols.push_back(resp.solve.sol);
    }
    EXPECT_EQ(a.cache().size(), 8u);

    // Restart B on the same port with the same journal: the join
    // prefetch must send since=5 and pull exactly the three missed
    // records — a delta, not a full transfer.
    b = std::make_unique<TestServer>(sb, cb);
    EXPECT_EQ(b->server().counters().repl_prefetch_since.load(
                  std::memory_order_relaxed),
              5);
    EXPECT_EQ(b->server().counters().repl_prefetched.load(
                  std::memory_order_relaxed),
              3);
    EXPECT_EQ(b->cache().size(), 8u);
    EXPECT_EQ(b->server().schedulerStats().solves, 0);

    // A delta-pulled key serves warm from B, byte-identical.
    Client bc(b->ep());
    RpcResponse warm;
    std::string err;
    ASSERT_TRUE(
        bc.call(solveRequest(smallProblem(16 + 8 * 7)), warm, &err))
        << err;
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.solve.cache_hit);
    EXPECT_EQ(warm.solve.sol, sols[7]);

    b.reset();
    std::remove(journal_a.c_str());
    std::remove(journal_b.c_str());
}

// A flapping peer — up 200 ms, down 200 ms, forever — must converge
// to the full record set with no duplicate solves and no lost
// acknowledged entries, through the Suspect/Down/half-open machinery
// and the per-peer spool; and the churn must not leak threads.
TEST(Chaos, FlappingPeerConvergesWithoutDuplicatesOrThreadGrowth)
{
    TestServer peer;
    FaultlineOptions fo = proxyTo(peer.ep(), {FaultKind::Flapping});
    fo.flap_up_ms = 200;
    fo.flap_down_ms = 200;
    FaultlineProxy proxy(fo);
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    ServerOptions so;
    so.replicate = "127.0.0.1:" + std::to_string(proxy.port());
    so.anti_entropy_ms = 200;
    TestServer origin(so);

    constexpr int kKeys = 6;
    Client oc(origin.ep());
    std::vector<CachedSolution> sols;
    for (int i = 0; i < kKeys; ++i) {
        RpcResponse resp;
        ASSERT_TRUE(
            oc.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        sols.push_back(resp.solve.sol);
    }

    // Convergence: pushes that land in an up window deliver, ones
    // that hit a down window spool and ride a later probe's drain.
    const auto t0 = std::chrono::steady_clock::now();
    while (peer.cache().size() < kKeys && elapsedMs(t0) < 30000)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_EQ(peer.cache().size(), static_cast<std::size_t>(kKeys));

    // No duplicate solves (the peer never solved at all) and no
    // double-applied records despite retries across flaps.
    EXPECT_EQ(peer.server().schedulerStats().solves, 0);
    EXPECT_EQ(origin.server().schedulerStats().solves, kKeys);
    EXPECT_EQ(peer.server().counters().repl_applied.load(
                  std::memory_order_relaxed),
              kKeys);

    // No lost acknowledged entries: every record serves warm from the
    // peer, byte-identical to the origin's answer.
    Client pc(peer.ep());
    for (int i = 0; i < kKeys; ++i) {
        RpcResponse resp;
        ASSERT_TRUE(
            pc.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.solve.cache_hit);
        EXPECT_EQ(resp.solve.sol, sols[static_cast<std::size_t>(i)]);
    }

    // Thread hygiene: several more probe + anti-entropy rounds against
    // the still-flapping peer must recruit no new threads (a tolerance
    // of 2 absorbs the proxy's transient per-connection pumps).
    const int settled = threadCount();
    ASSERT_GT(settled, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    EXPECT_LE(threadCount(), settled + 2);
}

// Anti-entropy is the backstop beneath the push path: when every push
// from the origin is blackholed, the peer's periodic digest exchange
// notices the gap and pulls the records — the fleet heals without a
// single duplicate solve.
TEST(Chaos, AntiEntropyRepairsBlackholedPush)
{
    // A's view of B is a blackhole; B's view of A is direct.
    FaultlineOptions fo;
    fo.upstream_port = 1; // Never contacted by a blackhole.
    fo.schedule = std::vector<FaultKind>(64, FaultKind::Blackhole);
    FaultlineProxy proxy(fo);
    std::string err;
    ASSERT_TRUE(proxy.start(&err)) << err;

    const int port_a = reservePort();
    ServerOptions sa;
    sa.port = port_a;
    sa.replicate = "127.0.0.1:" + std::to_string(proxy.port());
    sa.fleet_index = 0;
    sa.anti_entropy_ms = 0; // A must not repair; B's rounds do.
    TestServer a(sa);

    ServerOptions sb;
    sb.replicate = "127.0.0.1:" + std::to_string(port_a);
    sb.fleet_index = 1;
    sb.anti_entropy_ms = 150;
    TestServer b(sb);

    constexpr int kKeys = 4;
    Client ac(a.ep());
    std::vector<CachedSolution> sols;
    for (int i = 0; i < kKeys; ++i) {
        RpcResponse resp;
        ASSERT_TRUE(
            ac.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        sols.push_back(resp.solve.sol);
    }

    // The pushes die in the blackhole; B's digest exchange against A
    // sees count/fingerprint drift and pulls what it is missing.
    const auto t0 = std::chrono::steady_clock::now();
    while (b.cache().size() < kKeys && elapsedMs(t0) < 30000)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_EQ(b.cache().size(), static_cast<std::size_t>(kKeys));
    EXPECT_GE(b.server().counters().repl_ae_applied.load(
                  std::memory_order_relaxed),
              kKeys);
    EXPECT_EQ(b.server().schedulerStats().solves, 0);

    // Repaired entries serve warm and byte-identical.
    Client bc(b.ep());
    for (int i = 0; i < kKeys; ++i) {
        RpcResponse resp;
        ASSERT_TRUE(
            bc.call(solveRequest(smallProblem(16 + 8 * i)), resp, &err))
            << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.solve.cache_hit);
        EXPECT_EQ(resp.solve.sol, sols[static_cast<std::size_t>(i)]);
    }
}

} // namespace
} // namespace mopt
