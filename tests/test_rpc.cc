/**
 * @file
 * Tests of the RPC layer: wire-protocol round trips and rejection of
 * malformed input, newline framing over fragmented streams, the
 * moptd server end to end over loopback (cold/warm provenance,
 * fingerprint guards, corrupt and oversized requests, concurrent
 * clients, shutdown), and the shard router (stable hash routing,
 * local fallback when a node is down).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "autotune/calibration.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "conv/workloads.hh"
#include "frontend/cfg_parser.hh"
#include "machine/machine.hh"
#include "rpc/client.hh"
#include "rpc/protocol.hh"
#include "rpc/server.hh"
#include "rpc/tcp.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"
#include "support/golden_records.hh"
#include "support/tcp_accept.hh"
#include "support/thread_count.hh"
#include "support/tree_decoders.hh"

namespace mopt {
namespace {

ConvProblem
smallProblem(std::int64_t k = 32, std::int64_t c = 16, std::int64_t hw = 14)
{
    ConvProblem p;
    p.name = "rpc";
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

    /** Join the serve loop (after a shutdown op or stop()). */
    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

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

TEST(RpcProtocol, RequestRoundTrip)
{
    RpcRequest req = solveRequest(smallProblem());
    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(req), back, &err))
        << err;
    EXPECT_EQ(back.op, RpcOp::Solve);
    // The wire strips the layer name: requests travel canonical.
    EXPECT_EQ(back.problem.k, req.problem.k);
    EXPECT_EQ(back.problem.h, req.problem.h);
    EXPECT_EQ(back.machine_fp, req.machine_fp);
    EXPECT_EQ(back.settings_fp, req.settings_fp);

    RpcRequest net;
    net.op = RpcOp::SolveNetwork;
    net.net = "resnet18";
    ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(net), back, &err));
    EXPECT_EQ(back.op, RpcOp::SolveNetwork);
    EXPECT_EQ(back.net, "resnet18");
    EXPECT_EQ(back.machine_fp, 0u); // Omitted fingerprint = no check.

    for (const RpcOp op : {RpcOp::Stats, RpcOp::Shutdown}) {
        RpcRequest r;
        r.op = op;
        ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(r), back, &err));
        EXPECT_EQ(back.op, op);
    }
}

TEST(RpcProtocol, VersionGate)
{
    RpcRequest out;
    std::string err;

    // An explicit v:1 and an absent v (pre-versioning client) both
    // parse; the wire form always carries v.
    ASSERT_TRUE(requestFromJsonLine("{\"v\":1,\"op\":\"stats\"}", out,
                                    &err))
        << err;
    EXPECT_EQ(out.v, 1);
    ASSERT_TRUE(requestFromJsonLine("{\"op\":\"stats\"}", out, &err))
        << err;
    EXPECT_EQ(out.v, 1);
    EXPECT_NE(requestToJsonLine(out).find("\"v\":1"),
              std::string::npos);

    // Any other major version is refused before the fields are
    // interpreted, with a message that names both versions.
    EXPECT_FALSE(
        requestFromJsonLine("{\"v\":2,\"op\":\"stats\"}", out, &err));
    EXPECT_NE(err.find("unsupported protocol version v=2"),
              std::string::npos);
    EXPECT_NE(err.find("v=1"), std::string::npos);
    EXPECT_FALSE(
        requestFromJsonLine("{\"v\":\"one\",\"op\":\"stats\"}", out,
                            &err));
}

TEST(RpcServer, RefusesUnknownProtocolVersion)
{
    TestServer ts;
    TcpSocket sock = TcpSocket::connectTo(ts.ep().host, ts.ep().port);
    ASSERT_TRUE(sock.valid());
    LineReader reader(sock, 1 << 20);
    std::string line;

    ASSERT_TRUE(sock.sendAll("{\"v\":7,\"op\":\"stats\"}\n"));
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("unsupported protocol version"),
              std::string::npos);

    // Back-compat: the same connection, a version-less v1 request.
    ASSERT_TRUE(sock.sendAll("{\"op\":\"stats\"}\n"));
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
}

TEST(RpcProtocol, RequestRejectsMalformed)
{
    RpcRequest out;
    std::string err;
    EXPECT_FALSE(requestFromJsonLine("not json", out, &err));
    EXPECT_FALSE(requestFromJsonLine("{\"op\":\"fry\"}", out, &err));
    EXPECT_NE(err.find("unknown op"), std::string::npos);
    EXPECT_FALSE(requestFromJsonLine("{\"op\":\"solve\"}", out, &err));
    EXPECT_FALSE(requestFromJsonLine(
        "{\"op\":\"solve_network\"}", out, &err));
    // Shape fields must be sane, not just present.
    EXPECT_FALSE(requestFromJsonLine(
        "{\"op\":\"solve\",\"n\":1,\"k\":0,\"c\":1,\"r\":1,\"s\":1,"
        "\"h\":1,\"w\":1,\"stride\":1,\"dilation\":1}",
        out, &err));
    // Fingerprints must be 16 hex digits when present.
    EXPECT_FALSE(requestFromJsonLine(
        "{\"op\":\"stats\",\"machine\":\"xyz\"}", out, &err));
    // A nesting bomb (valid JSON, 100k levels deep) must draw a parse
    // error, not recurse the handler thread's stack into the ground.
    const std::string bomb =
        std::string(100000, '[') + std::string(100000, ']');
    EXPECT_FALSE(requestFromJsonLine(bomb, out, &err));
}

TEST(RpcProtocol, RefusalMessageTable)
{
    // One row per refusal the decoders can give, with the smallest
    // line that draws it; a refusal pins the message word for word,
    // an acceptance the re-encoded bytes. A syntax error anywhere in
    // the line outranks every field check, the first of a repeated
    // member wins, and members may come in any order.
    const std::string record =
        solutionToJsonLine(goldenKey(0), goldenSolution());
    const std::string deep = std::string(65, '[') + std::string(65, ']');
    // The smallest valid shape, the counters a stats answer must carry
    // and the summary a solve_network answer must carry.
    const std::string shape = R"("n":1,"k":1,"c":1,"r":1,"s":1,"h":1,)"
                              R"("w":1,"stride":1,"dilation":1)";
    const std::string counters =
        R"("entries":0,"shards":1,"lookups_hit":0,"lookups_miss":0,)"
        R"("inserts":0,"evictions":0,"journal_loaded":0,)"
        R"("journal_skipped":0)";
    const std::string summary =
        R"("plan":"p","unique":0,"hits":0,"misses":0,"evals":0)";
    const struct
    {
        bool request;
        std::string line;
        bool ok;
        std::string want; //!< Refusal message, or re-encoded line.
    } rows[] = {
        // Requests.
        {true, "x", false, "request is not a JSON object"},
        {true, "[]", false, "request is not a JSON object"},
        {true, R"({"v":1.5})", false,
         R"("v": expected an integer protocol version)"},
        {true, R"({"v":2})", false,
         "unsupported protocol version v=2 (this server speaks v=1)"},
        {true, "{}", false, R"(request has no "op")"},
        {true, R"({"op":"x"})", false, R"(unknown op "x")"},
        {true, R"({"op":"ping","machine":1})", false,
         "machine: expected 16 hex digits"},
        {true, R"({"op":"ping","settings":"0"})", false,
         "settings: expected 16 hex digits"},
        {true, R"({"op":"ping","deadline_ms":-1})", false,
         R"("deadline_ms": expected a non-negative integer)"},
        {true, R"({"op":"solve"})", false,
         "solve: missing or non-integer shape field"},
        {true, R"({"op":"solve",)" + shape + R"(,"groups":"2"})", false,
         R"(solve: non-integer "groups")"},
        {true,
         R"({"op":"solve","n":1,"k":0,"c":1,"r":1,"s":1,"h":1,"w":1,)"
         R"("stride":1,"dilation":1})",
         false,
         "solve: invalid shape: ConvProblem: extents must be >= 1 (: "
         "N=1 K=0 C=1 H=1 W=1 R=1 S=1 stride=1)"},
        {true, R"({"op":"solve",)" + shape + R"(,"k":0})", true,
         R"({"v":1,"op":"solve",)" + shape + "}"},
        {true, R"({"op":"solve_network","net":"a","ir":{}})", false,
         R"(solve_network: "net" and "ir" are mutually exclusive)"},
        {true, R"({"op":"solve_network","ir":1})", false,
         R"(solve_network: bad "ir": network IR: expected a JSON object)"},
        {true, R"({"op":"solve_network","net":""})", false,
         R"(solve_network: missing "net" or "ir")"},
        {true, R"({"op":"solve_network","net":"a","batch":0})", false,
         R"(solve_network: "batch" must be a positive integer)"},
        {true, R"({"op":"replicate","pull":"1"})", false,
         R"(replicate: non-integer "pull")"},
        {true, R"({"op":"replicate","digest":true})", false,
         R"(replicate: non-integer "digest")"},
        {true, R"({"op":"replicate","pull":1,"since":-1})", false,
         R"(replicate: "since" must be a non-negative integer)"},
        {true, R"({"op":"replicate","pull":1,"for":0.5})", false,
         R"(replicate: "for" must be a non-negative integer)"},
        {true, R"({"op":"replicate","record":{}})", false,
         R"(replicate: bad "record")"},
        {true, R"({"op":"replicate"})", false,
         R"(replicate: missing "record", "pull", or "digest")"},
        // Syntax outranks semantics, wherever the error is.
        {true, R"({"v":2,"op":"ping",})", false,
         "request is not a JSON object"},
        {true, R"({"op":"solve","n":1 "k":1})", false,
         "request is not a JSON object"},
        {true, R"({"op":"x","y":"\ud800"})", false,
         "request is not a JSON object"},
        {true, R"({"op":"ping","y":1e999})", false,
         "request is not a JSON object"},
        {true, R"({"op":"ping","y":)" + deep + "}", false,
         "request is not a JSON object"},
        // Unknown members are skipped, at the depth limit too.
        {true, R"({"op":"ping","y":)" + deep.substr(1, 128) + "}", true,
         R"({"v":1,"op":"ping"})"},
        // The first of a repeated member wins; order is free.
        {true, R"({"op":"ping","op":"x"})", true, R"({"v":1,"op":"ping"})"},
        {true, R"({"op":"x","op":"ping"})", false, R"(unknown op "x")"},
        {true, R"({"v":1,"v":2,"op":"ping"})", true,
         R"({"v":1,"op":"ping"})"},
        {true, R"({"deadline_ms":5,"op":"ping","v":1})", true,
         R"({"v":1,"op":"ping","deadline_ms":5})"},
        {true, R"({"op":"solve_network","batch":2,"net":"a","op":"x"})",
         true, R"({"v":1,"op":"solve_network","net":"a","batch":2})"},
        // Responses.
        {false, "x", false, "response is not a JSON object"},
        {false, R"({"ok":1})", false, R"(response has no "ok")"},
        {false, R"({"ok":true})", false, R"(response has no valid "op")"},
        {false, R"({"ok":true,"op":"solve"})", false,
         "solve result: missing cache provenance"},
        {false, R"({"ok":true,"op":"solve","cache":"hit"})", false,
         "solve result: bad record"},
        {false, R"({"ok":true,"op":"solve","cache":"hit","record":)" +
                    record + "}",
         false, "solve: missing solve_s"},
        {false, R"({"ok":true,"op":"solve_network"})", false,
         "solve_network: missing summary fields"},
        {false, R"({"ok":true,"op":"solve_network",)" + summary + "}",
         false, "solve_network: missing solve_s"},
        {false,
         R"({"ok":true,"op":"solve_network",)" + summary +
             R"(,"solve_s":0})",
         false, "solve_network: missing layers"},
        {false,
         R"({"ok":true,"op":"solve_network",)" + summary +
             R"(,"solve_s":0,"layers":[1]})",
         false, "solve result: missing cache provenance"},
        {false, R"({"ok":true,"op":"stats","machine":"x"})", false,
         "machine: expected 16 hex digits"},
        {false, R"({"ok":true,"op":"stats"})", false,
         "stats: missing counter fields"},
        {false,
         R"({"ok":true,"op":"stats",)" + counters +
             R"(,"journal_seq":-0.5})",
         false, "stats: bad journal_seq"},
        {false, R"({"ok":true,"op":"stats",)" + counters + "}", false,
         "stats: missing entry_hits"},
        {false,
         R"({"ok":true,"op":"stats",)" + counters +
             R"(,"entry_hits":[{"key":"k"}]})",
         false, "stats: bad entry_hits row"},
        {false, R"({"ok":true,"op":"replicate","fp":1})", false,
         "replicate: bad digest"},
        {false, R"({"ok":true,"op":"replicate","records":{}})", false,
         "replicate: bad records"},
        {false, R"({"ok":true,"op":"replicate","records":[1]})", false,
         "replicate: bad record in records"},
        {false, R"({"ok":true,"op":"replicate","applied":"1"})", false,
         "replicate: bad applied"},
        {false, R"({"ok":false})", true,
         R"({"ok":false,"error":"unspecified server error"})"},
        {false, R"({"ok":true,"op":"bogus","x":[1,2})", false,
         "response is not a JSON object"},
        {false,
         R"({"ok":true,"op":"solve_network",)" + summary +
             R"(,"solve_s":0,"layers":[],"x":"\u12"})",
         false, "response is not a JSON object"},
        {false, R"({"ok":false,"ok":true,"error":"e","code":"overloaded"})",
         true, R"({"ok":false,"error":"e","code":"overloaded"})"},
        {false,
         R"({"layers":[],"solve_s":0,"evals":1,"misses":0,"hits":0,)"
         R"("unique":0,"plan":"p","op":"solve_network","ok":true})",
         true,
         R"({"ok":true,"op":"solve_network","plan":"p","unique":0,)"
         R"("hits":0,"misses":0,"evals":1,"solve_s":0,"layers":[]})"},
    };
    for (const auto &row : rows) {
        std::string err = "untouched";
        std::string got;
        bool ok;
        if (row.request) {
            RpcRequest req;
            ok = requestFromJsonLine(row.line, req, &err);
            if (ok)
                got = requestToJsonLine(req);
        } else {
            RpcResponse resp;
            ok = responseFromJsonLine(row.line, resp, &err);
            if (ok)
                got = responseToJsonLine(resp);
        }
        EXPECT_EQ(ok, row.ok) << row.line << "\n" << err;
        EXPECT_EQ(ok ? got : err, row.want) << row.line;
    }
}

TEST(RpcProtocol, QuietRefusalsWriteNoErrorLine)
{
    // A refusal is the caller's to report: decoding a bad solve request
    // or a corrupt journal line writes nothing to stderr, even when the
    // refusal is a FatalError thrown inside the decoder (the shape's
    // validate(), Permutation::parse).
    const std::string record =
        solutionToJsonLine(goldenKey(0), goldenSolution());
    auto replaced = [&record](const std::string &from,
                              const std::string &to) {
        std::string out = record;
        const std::size_t at = out.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at, from.size(), to);
    };
    const std::string bad_shape = replaced(R"("k":64)", R"("k":0)");
    const std::string bad_perm = replaced(R"("nkhwcrs")", R"("nkh")");

    testing::internal::CaptureStderr();
    RpcRequest req;
    std::string err;
    const bool request_ok = requestFromJsonLine(
        R"({"op":"solve","n":1,"k":0,"c":1,"r":1,"s":1,"h":1,"w":1,)"
        R"("stride":1,"dilation":1})",
        req, &err);
    CacheKey key;
    CachedSolution sol;
    const bool shape_ok = solutionFromJsonLine(bad_shape, key, sol);
    const bool perm_ok = solutionFromJsonLine(bad_perm, key, sol);
    const std::string written = testing::internal::GetCapturedStderr();

    EXPECT_FALSE(request_ok);
    EXPECT_NE(err.find("extents must be >= 1"), std::string::npos) << err;
    EXPECT_FALSE(shape_ok);
    EXPECT_FALSE(perm_ok);
    EXPECT_EQ(written, "");
}

TEST(RpcProtocol, ResponseRoundTrips)
{
    // Error response.
    RpcResponse back;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(
        responseToJsonLine(rpcErrorResponse("busted \"quote\"")), back,
        &err));
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "busted \"quote\"");

    // Solve response, via a real solve so the record is meaningful.
    const ConvProblem p = smallProblem();
    SolutionCache cache;
    Server server(tiny(), fastOpts(), &cache);
    const RpcResponse solved = server.handle(solveRequest(p));
    ASSERT_TRUE(solved.ok);
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(solved), back,
                                     &err))
        << err;
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.op, RpcOp::Solve);
    EXPECT_FALSE(back.solve.cache_hit);
    EXPECT_EQ(back.solve.sol, solved.solve.sol);
    EXPECT_EQ(back.solve.key, solved.solve.key);

    // Stats response (entry telemetry included).
    cache.lookup(back.solve.key, nullptr);
    RpcRequest stats_req;
    stats_req.op = RpcOp::Stats;
    const RpcResponse stats = server.handle(stats_req);
    ASSERT_TRUE(stats.ok);
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(stats), back,
                                     &err))
        << err;
    EXPECT_EQ(back.op, RpcOp::Stats);
    EXPECT_EQ(back.entries, 1);
    ASSERT_EQ(back.entry_hits.size(), 1u);
    EXPECT_EQ(back.entry_hits[0].hits, 1);
    EXPECT_EQ(back.machine_name, "tiny");
    // Scheduler counters survive the round trip: the one cold solve
    // above ran through the single-flight scheduler.
    EXPECT_EQ(back.sched_solves, 1);
    EXPECT_EQ(back.sched_coalesced, 0);
    EXPECT_EQ(back.sched_inflight, 0);
    EXPECT_EQ(back.sched_budget, 1);
    // A pre-scheduler stats line (no sched_* members) still parses,
    // reading 0 — rolling-fleet back-compat.
    std::string legacy = responseToJsonLine(stats);
    const auto pos = legacy.find(",\"sched_solves\"");
    const auto end_pos = legacy.find(",\"entry_hits\"");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_NE(end_pos, std::string::npos);
    legacy.erase(pos, end_pos - pos);
    ASSERT_TRUE(responseFromJsonLine(legacy, back, &err)) << err;
    EXPECT_EQ(back.sched_solves, 0);
    EXPECT_EQ(back.sched_budget, 0);
}

// Byte pins for the wire: a fixed solve_network response (escaped plan
// text, a grouped layer, 17-digit doubles, a label that needs
// escaping) and two requests, compared with committed strings.
const char *const kGoldenNetworkResponse =
    "{\"ok\":true,\"op\":\"solve_network\",\"plan\":\"Layer   shape    "
    "                class   L1 tile                          L2 tile  "
    "                          L3 tile                            par  "
    "                          pred ms  pred GFLOPS\\n-----------------"
    "------------------------------------------------------------------"
    "------------------------------------------------------------------"
    "----------------------------------------------\\nconv1   N2 K64 C3"
    " H112 R7/2      nk|crs  [n=1 k=16 c=3 r=3 s=3 h=2 w=12]  [n=1 k=32"
    " c=16 r=3 s=3 h=7 w=28]   [n=2 k=64 c=32 r=3 s=3 h=14 w=56]  [n=1 "
    "k=2 c=1 r=1 s=1 h=2 w=1]  0.123    98.8       \\ndw \\\"2\\\"  N2 "
    "K32 C32 H56 R3 g32    hw|kc   [n=1 k=16 c=6 r=3 s=3 h=2 w=12]  [n="
    "1 k=32 c=16 r=3 s=3 h=14 w=28]  [n=2 k=64 c=32 r=3 s=3 h=14 w=56] "
    " [n=1 k=2 c=1 r=1 s=1 h=4 w=1]  0.247    49.4       \\npw      N2 "
    "K128 C64 H28 R1/2 g4  nk|crs  [n=1 k=16 c=9 r=3 s=3 h=2 w=12]  [n="
    "1 k=32 c=16 r=3 s=3 h=21 w=28]  [n=2 k=64 c=32 r=3 s=3 h=14 w=56] "
    " [n=1 k=2 c=1 r=1 s=1 h=6 w=1]  0.370    32.9       \\n\",\"unique"
    "\":2,\"hits\":1,\"misses\":1,\"evals\":123456,\"solve_s\":0.100000"
    "00000000001,\"layers\":[{\"cache\":\"hit\",\"record\":{\"v\":1,\"n"
    "\":2,\"k\":64,\"c\":3,\"r\":7,\"s\":7,\"h\":112,\"w\":112,\"stride"
    "\":2,\"dilation\":1,\"machine\":\"0123456789abcdef\",\"settings\":"
    "\"fedcba9876543210\",\"perm\":[\"nkhwcrs\",\"nhwkcrs\",\"knchwrs\""
    ",\"wkhncrs\"],\"tiles\":[[1,8,1,1,1,1,6],[1,16,3,3,3,2,12],[1,32,1"
    "6,3,3,7,28],[2,64,32,3,3,14,56]],\"par\":[1,2,1,1,1,2,1],\"pred_s"
    "\":2.5000000000000001e-05,\"label\":\"nk|crs\"}},{\"cache\":\"miss"
    "\",\"record\":{\"v\":1,\"n\":2,\"k\":128,\"c\":64,\"r\":1,\"s\":1,"
    "\"h\":28,\"w\":28,\"stride\":2,\"dilation\":1,\"groups\":4,\"machi"
    "ne\":\"0123456789abcdef\",\"settings\":\"fedcba9876543210\",\"perm"
    "\":[\"nkhwcrs\",\"nhwkcrs\",\"knchwrs\",\"wkhncrs\"],\"tiles\":[[1"
    ",8,1,1,1,1,6],[1,16,6,3,3,2,12],[1,32,16,3,3,14,28],[2,64,32,3,3,1"
    "4,56]],\"par\":[1,2,1,1,1,4,1],\"pred_s\":0.33333333333333331,\"la"
    "bel\":\"kc|hw \\\"q\\\" \\\\ \\t\\u0001\"}}]}";

const char *const kGoldenSolveRequest =
    "{\"v\":1,\"op\":\"solve\",\"machine\":\"0123456789abcdef\",\"setti"
    "ngs\":\"fedcba9876543210\",\"deadline_ms\":2500,\"n\":2,\"k\":128,"
    "\"c\":64,\"r\":1,\"s\":1,\"h\":28,\"w\":28,\"stride\":2,\"dilation"
    "\":1,\"groups\":4}";

const char *const kGoldenNetworkRequest =
    "{\"v\":1,\"op\":\"solve_network\",\"machine\":\"0123456789abcdef\""
    ",\"settings\":\"fedcba9876543210\",\"net\":\"resnet18\",\"batch\":"
    "8}";

TEST(RpcProtocol, GoldenSolveNetworkResponseBytes)
{
    const RpcResponse resp = goldenNetworkResponse();
    const std::string line = responseToJsonLine(resp);
    EXPECT_EQ(line, kGoldenNetworkResponse);
    RpcResponse back;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, back, &err)) << err;
    EXPECT_EQ(back.plan_text, resp.plan_text);
    ASSERT_EQ(back.layers.size(), 2u);
    EXPECT_EQ(back.layers[1].key, resp.layers[1].key);
    EXPECT_EQ(back.layers[1].sol, resp.layers[1].sol);
    EXPECT_EQ(back.solve_seconds, resp.solve_seconds);
}

TEST(RpcProtocol, GoldenRequestBytes)
{
    EXPECT_EQ(requestToJsonLine(goldenSolveRequest()), kGoldenSolveRequest);
    EXPECT_EQ(requestToJsonLine(goldenNetworkRequest()),
              kGoldenNetworkRequest);
    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(kGoldenSolveRequest, back, &err)) << err;
    EXPECT_EQ(back.problem, goldenSolveRequest().problem);
    EXPECT_EQ(back.deadline_ms, 2500);
}

// The replicate op on the wire: push (with seq), delta pull, digest and
// ping requests, then their answers (goldenReplicateRequests() and
// goldenReplicateResponses(), in order).
const char *const kGoldenReplicateRequests[] = {
    "{\"v\":1,\"op\":\"replicate\",\"machine\":\"0123456789abcdef\","
    "\"settings\":\"fedcba9876543210\",\"deadline_ms\":1000,\"record"
    "\":{\"v\":1,\"n\":2,\"k\":32,\"c\":32,\"r\":3,\"s\":3,\"h\":56,"
    "\"w\":56,\"stride\":1,\"dilation\":1,\"groups\":32,\"machine\":"
    "\"0123456789abcdef\",\"settings\":\"fedcba9876543210\",\"perm\":"
    "[\"nkhwcrs\",\"nhwkcrs\",\"knchwrs\",\"wkhncrs\"],\"tiles\":[[1,"
    "8,1,1,1,1,6],[1,16,6,3,3,2,12],[1,32,16,3,3,14,28],[2,64,32,3,3,"
    "14,56]],\"par\":[1,2,1,1,1,4,1],\"pred_s\":0.33333333333333331,"
    "\"label\":\"kc|hw \\\"q\\\" \\\\ \\t\\u0001\",\"seq\":9}}",
    "{\"v\":1,\"op\":\"replicate\",\"machine\":\"0123456789abcdef\","
    "\"settings\":\"fedcba9876543210\",\"deadline_ms\":2000,\"pull\":"
    "1,\"since\":412,\"for\":2}",
    "{\"v\":1,\"op\":\"replicate\",\"machine\":\"0123456789abcdef\","
    "\"settings\":\"fedcba9876543210\",\"digest\":1,\"for\":1}",
    "{\"v\":1,\"op\":\"ping\",\"deadline_ms\":250}"};

const char *const kGoldenReplicateResponses[] = {
    "{\"ok\":true,\"op\":\"replicate\",\"applied\":1}",
    "{\"ok\":true,\"op\":\"replicate\",\"records\":[{\"v\":1,\"n\":2,"
    "\"k\":64,\"c\":3,\"r\":7,\"s\":7,\"h\":112,\"w\":112,\"stride\":"
    "2,\"dilation\":1,\"machine\":\"0123456789abcdef\",\"settings\":"
    "\"fedcba9876543210\",\"perm\":[\"nkhwcrs\",\"nhwkcrs\",\"knchwrs"
    "\",\"wkhncrs\"],\"tiles\":[[1,8,1,1,1,1,6],[1,16,3,3,3,2,12],[1,"
    "32,16,3,3,7,28],[2,64,32,3,3,14,56]],\"par\":[1,2,1,1,1,2,1],\"p"
    "red_s\":2.5000000000000001e-05,\"label\":\"nk|crs\",\"seq\":3},{"
    "\"v\":1,\"n\":2,\"k\":128,\"c\":64,\"r\":1,\"s\":1,\"h\":28,\"w"
    "\":28,\"stride\":2,\"dilation\":1,\"groups\":4,\"machine\":\"012"
    "3456789abcdef\",\"settings\":\"fedcba9876543210\",\"perm\":[\"nk"
    "hwcrs\",\"nhwkcrs\",\"knchwrs\",\"wkhncrs\"],\"tiles\":[[1,8,1,1"
    ",1,1,6],[1,16,6,3,3,2,12],[1,32,16,3,3,14,28],[2,64,32,3,3,14,56"
    "]],\"par\":[1,2,1,1,1,4,1],\"pred_s\":0.33333333333333331,\"labe"
    "l\":\"kc|hw \\\"q\\\" \\\\ \\t\\u0001\"}]}",
    "{\"ok\":true,\"op\":\"replicate\",\"count\":7,\"fp\":\"deadbeefc"
    "afef00d\"}",
    "{\"ok\":true,\"op\":\"ping\"}"};

TEST(RpcProtocol, GoldenReplicateBytes)
{
    // Each form encodes to exactly its committed line, and each line
    // decodes to a value that encodes back to the same bytes.
    const std::vector<RpcRequest> reqs = goldenReplicateRequests();
    ASSERT_EQ(reqs.size(), std::size(kGoldenReplicateRequests));
    std::string err;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::string golden = kGoldenReplicateRequests[i];
        EXPECT_EQ(requestToJsonLine(reqs[i]), golden);
        RpcRequest back;
        ASSERT_TRUE(requestFromJsonLine(golden, back, &err)) << err;
        EXPECT_EQ(requestToJsonLine(back), golden);
    }
    const std::vector<RpcResponse> resps = goldenReplicateResponses();
    ASSERT_EQ(resps.size(), std::size(kGoldenReplicateResponses));
    for (std::size_t i = 0; i < resps.size(); ++i) {
        const std::string golden = kGoldenReplicateResponses[i];
        EXPECT_EQ(responseToJsonLine(resps[i]), golden);
        RpcResponse back;
        ASSERT_TRUE(responseFromJsonLine(golden, back, &err)) << err;
        EXPECT_EQ(responseToJsonLine(back), golden);
    }
}

// The remaining answers on the wire: a stats answer whose every counter
// holds a distinct value (the 8 required ones, then the 16 optional
// ones, so a reordered member moves bytes), a solve answer and a coded
// refusal.
const char *const kGoldenStatsResponse =
    "{\"ok\":true,\"op\":\"stats\",\"machine\":\"0123456789abcdef\",\""
    "settings\":\"fedcba9876543210\",\"machine_name\":\"i7 \\\"lab\\\""
    "\",\"entries\":1,\"shards\":2,\"lookups_hit\":3,\"lookups_miss\":"
    "4,\"inserts\":5,\"evictions\":6,\"journal_loaded\":7,\"journal_sk"
    "ipped\":8,\"sched_solves\":11,\"sched_coalesced\":12,\"sched_infl"
    "ight\":13,\"sched_peak\":14,\"sched_budget\":15,\"srv_shed_overlo"
    "ad\":16,\"srv_shed_client\":17,\"srv_shed_deadline\":18,\"calib_s"
    "amples\":19,\"calib_active\":20,\"srv_repl_pushed\":21,\"srv_repl"
    "_push_failed\":22,\"srv_repl_applied\":23,\"srv_repl_prefetched\""
    ":24,\"repl_queue_depth\":25,\"journal_seq\":26,\"entry_hits\":[{"
    "\"key\":\"R9\",\"hits\":9},{\"key\":\"k \\\"2\\\"\",\"hits\":0}]}";

const char *const kGoldenSolveResponse =
    "{\"ok\":true,\"op\":\"solve\",\"cache\":\"miss\",\"solve_s\":0.25"
    ",\"record\":{\"v\":1,\"n\":2,\"k\":128,\"c\":64,\"r\":1,\"s\":1,"
    "\"h\":28,\"w\":28,\"stride\":2,\"dilation\":1,\"groups\":4,\"mach"
    "ine\":\"0123456789abcdef\",\"settings\":\"fedcba9876543210\",\"pe"
    "rm\":[\"nkhwcrs\",\"nhwkcrs\",\"knchwrs\",\"wkhncrs\"],\"tiles\":"
    "[[1,8,1,1,1,1,6],[1,16,6,3,3,2,12],[1,32,16,3,3,14,28],[2,64,32,3"
    ",3,14,56]],\"par\":[1,2,1,1,1,4,1],\"pred_s\":0.33333333333333331"
    ",\"label\":\"kc|hw \\\"q\\\" \\\\ \\t\\u0001\"}}";

const char *const kGoldenErrorResponse =
    "{\"ok\":false,\"error\":\"deadline \\\"2500 ms\\\" passed\",\"cod"
    "e\":\"deadline_exceeded\"}";

TEST(RpcProtocol, GoldenStatsSolveAndErrorBytes)
{
    RpcResponse stats;
    stats.ok = true;
    stats.op = RpcOp::Stats;
    stats.machine_fp = 0x0123456789abcdefull;
    stats.settings_fp = 0xfedcba9876543210ull;
    stats.machine_name = "i7 \"lab\"";
    stats.entries = 1;
    stats.shards = 2;
    stats.cache = SolutionCacheStats{3, 4, 5, 6, 7, 8};
    std::int64_t counter = 11;
    for (std::int64_t *c :
         {&stats.sched_solves, &stats.sched_coalesced, &stats.sched_inflight,
          &stats.sched_peak, &stats.sched_budget, &stats.srv_shed_overload,
          &stats.srv_shed_client, &stats.srv_shed_deadline,
          &stats.calib_samples, &stats.calib_active, &stats.srv_repl_pushed,
          &stats.srv_repl_push_failed, &stats.srv_repl_applied,
          &stats.srv_repl_prefetched, &stats.repl_queue_depth,
          &stats.journal_seq})
        *c = counter++;
    stats.entry_hits = {{"R9", 9}, {"k \"2\"", 0}};

    RpcResponse solve;
    solve.ok = true;
    solve.op = RpcOp::Solve;
    solve.solve = RpcSolveResult{goldenKey(2), goldenSolution(), false};
    solve.solve_seconds = 0.25;

    const struct
    {
        RpcResponse resp;
        const char *golden;
    } rows[] = {
        {stats, kGoldenStatsResponse},
        {solve, kGoldenSolveResponse},
        {rpcErrorResponse("deadline \"2500 ms\" passed",
                          RpcErrorCode::DeadlineExceeded),
         kGoldenErrorResponse}};
    std::string err;
    for (const auto &row : rows) {
        EXPECT_EQ(responseToJsonLine(row.resp), row.golden);
        RpcResponse back;
        ASSERT_TRUE(responseFromJsonLine(row.golden, back, &err)) << err;
        EXPECT_EQ(responseToJsonLine(back), row.golden);
    }
}

/** One to three seeded mutations of @p s: bit flips, truncations,
 *  inserted tokens and deleted runs. */
std::string
mutate(std::string s, Rng &rng)
{
    static const char *const kTokens[] = {
        "[", "]", "{", "}", "\"", "\\", "\\u", "\\ud83d", ",", ":",
        "1e999", "-", "+", ".", "e", "null", "\x01", "\xff"};
    const std::size_t n = 1 + rng.index(3);
    for (std::size_t i = 0; i < n && !s.empty(); ++i) {
        const std::size_t at = rng.index(s.size());
        switch (rng.index(4)) {
        case 0: s[at] = static_cast<char>(s[at] ^ (1 << rng.index(8))); break;
        case 1: s.resize(at); break;
        case 2: s.insert(at, kTokens[rng.index(std::size(kTokens))]); break;
        default: s.erase(at, 1 + rng.index(3)); break;
        }
    }
    return s;
}

TEST(RpcProtocol, MutatedGoldenRecordsParseOrRefuse)
{
    RpcRequest repl;
    repl.op = RpcOp::Replicate;
    repl.repl_record = {goldenKey(1), goldenSolution(), 9};
    const std::vector<std::string> seeds = {
        responseToJsonLine(goldenNetworkResponse()),
        requestToJsonLine(goldenSolveRequest()),
        requestToJsonLine(goldenNetworkRequest()),
        requestToJsonLine(repl),
        solutionToJsonLine(goldenKey(1), goldenSolution(), 42, 7)};
    const std::string &record = seeds.back();

    // Every decoder either takes each mutant or refuses it: no crash,
    // no hang. Bounded in time as well as count for sanitizer builds.
    Rng rng(20261018);
    const auto stop =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    std::vector<std::string> journal_lines;
    std::int64_t mutants = 0, journal_accepted = 0;
    while (mutants < 20000 && std::chrono::steady_clock::now() < stop) {
        const std::string &seed = seeds[rng.index(seeds.size())];
        const std::string m = mutate(seed, rng);
        ++mutants;
        JsonValue v;
        jsonParse(m, v);
        std::string err;
        RpcRequest req;
        requestFromJsonLine(m, req, &err);
        RpcResponse resp;
        responseFromJsonLine(m, resp, &err);
        CacheKey key;
        CachedSolution sol;
        const bool accepted = solutionFromJsonLine(m, key, sol);
        if (accepted) {
            // What is accepted re-encodes to a line that reads back
            // the same.
            CacheKey k2;
            CachedSolution s2;
            ASSERT_TRUE(
                solutionFromJsonLine(solutionToJsonLine(key, sol), k2, s2))
                << m;
            EXPECT_EQ(k2, key);
            EXPECT_EQ(s2, sol);
        }
        if (&seed == &record && journal_lines.size() < 2000 &&
            m.find('\n') == std::string::npos &&
            m.find_first_not_of(" \t\r") != std::string::npos) {
            journal_lines.push_back(m);
            journal_accepted += accepted;
        }
    }
    EXPECT_GE(mutants, 200);

    // Journal replay: each mutated line is applied whole or skipped.
    const std::string path = ::testing::TempDir() + "mopt_fuzz_journal_" +
                             std::to_string(::getpid()) + ".jsonl";
    {
        std::ofstream out(path);
        for (const std::string &line : journal_lines)
            out << line << "\n";
    }
    SolutionCacheOptions co;
    co.journal_path = path;
    {
        const SolutionCache cache(co);
        const SolutionCacheStats stats = cache.stats();
        EXPECT_EQ(stats.journal_loaded, journal_accepted);
        EXPECT_EQ(stats.journal_skipped,
                  static_cast<std::int64_t>(journal_lines.size()) -
                      journal_accepted);
    }
    std::remove(path.c_str());
}

/** @p v as JSON text (numbers in %.17g, which reads back exactly). */
void
writeJson(const JsonValue &v, std::string &out)
{
    switch (v.type) {
    case JsonValue::Type::Null: out += "null"; break;
    case JsonValue::Type::Bool: out += v.b ? "true" : "false"; break;
    case JsonValue::Type::Number: jsonAppendDouble(out, v.num); break;
    case JsonValue::Type::String:
        out += '"';
        jsonAppendEscaped(out, v.str);
        out += '"';
        break;
    case JsonValue::Type::Array:
        out += '[';
        for (std::size_t i = 0; i < v.arr.size(); ++i) {
            if (i)
                out += ',';
            writeJson(v.arr[i], out);
        }
        out += ']';
        break;
    case JsonValue::Type::Object:
        out += '{';
        for (std::size_t i = 0; i < v.obj.size(); ++i) {
            out += i ? ",\"" : "\"";
            jsonAppendEscaped(out, v.obj[i].first);
            out += "\":";
            writeJson(v.obj[i].second, out);
        }
        out += '}';
        break;
    }
}

/** Every object in @p v, outermost first. */
void
collectObjects(JsonValue &v, std::vector<JsonValue *> &out)
{
    if (v.isObject())
        out.push_back(&v);
    for (JsonValue &e : v.arr)
        collectObjects(e, out);
    for (auto &kv : v.obj)
        collectObjects(kv.second, out);
}

/** One to three seeded edits of the members of @p line's objects:
 *  reorder two, repeat one (the copy keeps its value or takes a
 *  stray one) before or after the original, or add an unknown one. */
std::string
mutateMembers(const std::string &line, Rng &rng)
{
    JsonValue root;
    if (!jsonParse(line, root))
        return line;
    static const char *const kValues[] = {
        "0", "1", "-1", "2.5", "1e15", "1e16", "\"hit\"", "\"\"",
        "\"p\\u0069ng\"", "true", "null", "[]", "{}", "[1,2,3,4,5,6,7]",
        "{\"zz\":[{}]}"};
    const std::size_t n = 1 + rng.index(3);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<JsonValue *> objs;
        collectObjects(root, objs);
        // Favour the top level: it holds the fields decoders check first.
        JsonValue &o = *objs[rng.index(2) ? 0 : rng.index(objs.size())];
        auto &m = o.obj;
        const std::size_t at = rng.index(m.size() + 1);
        switch (m.empty() ? 2 : rng.index(3)) {
        case 0: std::swap(m[rng.index(m.size())], m[rng.index(m.size())]);
            break;
        case 1: {
            const std::size_t from = rng.index(m.size());
            auto copy = m[from];
            if (rng.index(2))
                jsonParse(kValues[rng.index(std::size(kValues))],
                          copy.second);
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                     std::move(copy));
            break;
        }
        default: {
            std::pair<std::string, JsonValue> extra{"zz", {}};
            jsonParse(kValues[rng.index(std::size(kValues))], extra.second);
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                     std::move(extra));
            break;
        }
        }
    }
    std::string out;
    writeJson(root, out);
    return out;
}

TEST(RpcProtocol, DecodersAgreeWithTreeReference)
{
    RpcResponse stats;
    stats.ok = true;
    stats.op = RpcOp::Stats;
    stats.machine_fp = 0x0123456789abcdefull;
    stats.settings_fp = 0xfedcba9876543210ull;
    stats.machine_name = "i7";
    stats.entries = 2;
    stats.shards = 8;
    stats.sched_peak = 3;
    stats.journal_seq = 412;
    stats.entry_hits = {{"a", 3}, {"b", 0}};
    RpcResponse solve = goldenNetworkResponse();
    solve.op = RpcOp::Solve;
    solve.solve = solve.layers[1];
    RpcRequest ir;
    ir.op = RpcOp::SolveNetwork;
    ir.ir = NetworkDef("tiny", 3, 8, 8);
    ir.ir.conv("c1", 8, 3);
    ir.has_ir = true;
    TuneSample sample;
    sample.key = goldenKey(2);
    sample.config = goldenSolution().config;
    sample.measured_seconds = 2e-3;
    sample.predicted_seconds = 1e-3;
    sample.pred_level_seconds = {1e-4, 2e-4, 3e-4, 1e-3};
    sample.pred_compute_seconds = 5e-4;
    sample.runner = "exec";
    std::vector<std::string> seeds = {
        responseToJsonLine(goldenNetworkResponse()),
        responseToJsonLine(stats),
        responseToJsonLine(solve),
        responseToJsonLine(
            rpcErrorResponse("busy", RpcErrorCode::Overloaded)),
        requestToJsonLine(goldenSolveRequest()),
        requestToJsonLine(goldenNetworkRequest()),
        requestToJsonLine(ir),
        solutionToJsonLine(goldenKey(1), goldenSolution(), 42, 7),
        tuneSampleToJsonLine(sample)};
    for (const RpcRequest &r : goldenReplicateRequests())
        seeds.push_back(requestToJsonLine(r));
    for (const RpcResponse &r : goldenReplicateResponses())
        seeds.push_back(responseToJsonLine(r));

    // The library's decoders and the tree-based reference take the
    // same mutants, encode what they take to the same bytes, and
    // refuse the rest with the same message.
    Rng rng(20261019);
    const auto stop =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    std::int64_t mutants = 0, accepted = 0;
    while (mutants < 20000 && std::chrono::steady_clock::now() < stop) {
        const std::string &seed = seeds[rng.index(seeds.size())];
        std::string m;
        switch (rng.index(3)) {
        case 0: m = mutate(seed, rng); break;
        case 1: m = mutateMembers(seed, rng); break;
        default: m = mutate(mutateMembers(seed, rng), rng); break;
        }
        ++mutants;

        std::string err, ref_err;
        RpcRequest req, ref_req;
        const bool req_ok = requestFromJsonLine(m, req, &err);
        ASSERT_EQ(req_ok, treeRequestFromJsonLine(m, ref_req, &ref_err)) << m;
        if (req_ok) {
            ASSERT_EQ(requestToJsonLine(req), requestToJsonLine(ref_req)) << m;
        } else {
            ASSERT_EQ(err, ref_err) << m;
        }

        RpcResponse resp, ref_resp;
        const bool resp_ok = responseFromJsonLine(m, resp, &err);
        ASSERT_EQ(resp_ok, treeResponseFromJsonLine(m, ref_resp, &ref_err))
            << m;
        if (resp_ok) {
            ASSERT_EQ(responseToJsonLine(resp), responseToJsonLine(ref_resp))
                << m;
        } else {
            ASSERT_EQ(err, ref_err) << m;
        }

        CacheKey key, ref_key;
        CachedSolution sol, ref_sol;
        std::int64_t hits = 0, seq = 0, ref_hits = 0, ref_seq = 0;
        const bool rec_ok = solutionFromJsonLine(m, key, sol, &hits, &seq);
        ASSERT_EQ(rec_ok, treeSolutionFromJsonLine(m, ref_key, ref_sol,
                                                   &ref_hits, &ref_seq))
            << m;
        if (rec_ok) {
            ASSERT_EQ(solutionToJsonLine(key, sol, hits, seq),
                      solutionToJsonLine(ref_key, ref_sol, ref_hits,
                                         ref_seq))
                << m;
        }

        TuneSample ts, ref_ts;
        const bool ts_ok = tuneSampleFromJsonLine(m, ts);
        ASSERT_EQ(ts_ok, treeTuneSampleFromJsonLine(m, ref_ts)) << m;
        if (ts_ok) {
            ASSERT_EQ(tuneSampleToJsonLine(ts), tuneSampleToJsonLine(ref_ts))
                << m;
        }
        accepted += req_ok + resp_ok + rec_ok + ts_ok;
    }
    EXPECT_GE(mutants, 200);
    // The member edits keep many mutants decodable, so the fuzz checks
    // acceptances and not only refusals.
    EXPECT_GE(accepted * 4, mutants) << accepted << " of " << mutants;
}

TEST(RpcProtocol, EndpointListParsing)
{
    const auto eps = parseEndpointList("h1:7071, h2:7072,127.0.0.1:80");
    ASSERT_EQ(eps.size(), 3u);
    EXPECT_EQ(eps[0].host, "h1");
    EXPECT_EQ(eps[0].port, 7071);
    EXPECT_EQ(eps[1].host, "h2");
    EXPECT_EQ(eps[2].str(), "127.0.0.1:80");

    EXPECT_THROW(parseEndpointList(""), FatalError);
    EXPECT_THROW(parseEndpointList("hostonly"), FatalError);
    EXPECT_THROW(parseEndpointList("host:"), FatalError);
    EXPECT_THROW(parseEndpointList(":7071"), FatalError);
    EXPECT_THROW(parseEndpointList("h:0"), FatalError);
    EXPECT_THROW(parseEndpointList("h:70000"), FatalError);
    EXPECT_THROW(parseEndpointList("h:12x"), FatalError);
    EXPECT_THROW(parseEndpointList("h1:1,,h2:2"), FatalError);
}

TEST(RpcTcp, LineReaderReassemblesFragments)
{
    TcpListener listener;
    ASSERT_TRUE(listener.listenOn("127.0.0.1", 0));
    TcpSocket client = TcpSocket::connectTo("127.0.0.1", listener.port());
    ASSERT_TRUE(client.valid());
    TcpSocket served = acceptBefore(listener, Deadline::in(10000));
    ASSERT_TRUE(served.valid());

    // Two lines and a CRLF line, delivered in awkward fragments.
    ASSERT_TRUE(client.sendAll("hel"));
    ASSERT_TRUE(client.sendAll("lo\nwor"));
    ASSERT_TRUE(client.sendAll("ld\r\ntail"));
    client.close(); // Flush EOF after the unterminated tail.

    LineReader reader(served, 1024);
    std::string line;
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    EXPECT_EQ(line, "hello");
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    EXPECT_EQ(line, "world");
    // The unterminated tail is not a line; EOF wins.
    EXPECT_EQ(reader.readLine(line), LineReader::Status::Eof);
}

TEST(RpcTcp, LineReaderRejectsOversizedLine)
{
    TcpListener listener;
    ASSERT_TRUE(listener.listenOn("127.0.0.1", 0));
    TcpSocket client = TcpSocket::connectTo("127.0.0.1", listener.port());
    ASSERT_TRUE(client.valid());
    TcpSocket served = acceptBefore(listener, Deadline::in(10000));
    ASSERT_TRUE(served.valid());

    LineReader reader(served, 64);
    ASSERT_TRUE(client.sendAll(std::string(256, 'a')));
    std::string line;
    EXPECT_EQ(reader.readLine(line), LineReader::Status::TooLong);
}

TEST(RpcServer, SolveColdThenWarmAcrossConnections)
{
    TestServer ts;
    const ConvProblem p = smallProblem();

    Client a(ts.ep());
    RpcResponse cold;
    std::string err;
    ASSERT_TRUE(a.call(solveRequest(p), cold, &err)) << err;
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.solve.cache_hit);
    EXPECT_GT(cold.solve.sol.predicted_seconds, 0.0);

    // A different connection must see the shared cache.
    Client b(ts.ep());
    RpcResponse warm;
    ASSERT_TRUE(b.call(solveRequest(p), warm, &err)) << err;
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.solve.cache_hit);
    EXPECT_EQ(warm.solve.sol, cold.solve.sol);
    EXPECT_EQ(warm.solve_seconds, 0.0);
}

TEST(RpcServer, RejectsFingerprintMismatch)
{
    TestServer ts;
    Client c(ts.ep());
    RpcRequest req = solveRequest(smallProblem());
    req.machine_fp ^= 1; // Client configured for a different machine.
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("machine fingerprint mismatch"),
              std::string::npos);

    req = solveRequest(smallProblem());
    req.settings_fp ^= 1;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("settings fingerprint mismatch"),
              std::string::npos);
}

TEST(RpcServer, RejectsUnknownNetwork)
{
    TestServer ts;
    Client c(ts.ep());
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    req.net = "skynet";
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
}

TEST(RpcServer, CorruptRequestKeepsConnectionUsable)
{
    TestServer ts;
    TcpSocket sock =
        TcpSocket::connectTo(ts.ep().host, ts.ep().port);
    ASSERT_TRUE(sock.valid());
    LineReader reader(sock, 1 << 20);
    std::string line;

    ASSERT_TRUE(sock.sendAll("this is not json\n"));
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);

    // Same connection, next line: a valid request still works.
    ASSERT_TRUE(sock.sendAll("{\"op\":\"stats\"}\n"));
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.op, RpcOp::Stats);
}

TEST(RpcServer, OversizedRequestAnsweredAndDropped)
{
    ServerOptions so;
    so.max_request_bytes = 128;
    TestServer ts(so);
    TcpSocket sock = TcpSocket::connectTo(ts.ep().host, ts.ep().port);
    ASSERT_TRUE(sock.valid());

    ASSERT_TRUE(sock.sendAll(std::string(4096, 'x')));
    LineReader reader(sock, 1 << 20);
    std::string line;
    ASSERT_EQ(reader.readLine(line), LineReader::Status::Ok);
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(line, resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("exceeds"), std::string::npos);
    // Framing is unrecoverable: the server hangs up.
    EXPECT_EQ(reader.readLine(line), LineReader::Status::Eof);

    // The server itself is unharmed.
    Client c(ts.ep());
    RpcRequest req;
    req.op = RpcOp::Stats;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
}

TEST(RpcServer, ConcurrentClientsAgree)
{
    TestServer ts;
    const std::vector<ConvProblem> problems{
        smallProblem(32), smallProblem(48), smallProblem(64)};

    // Reference answers, solved through the same server.
    std::vector<CachedSolution> expected(problems.size());
    {
        Client c(ts.ep());
        for (std::size_t i = 0; i < problems.size(); ++i) {
            RpcResponse resp;
            std::string err;
            ASSERT_TRUE(c.call(solveRequest(problems[i]), resp, &err))
                << err;
            ASSERT_TRUE(resp.ok) << resp.error;
            expected[i] = resp.solve.sol;
        }
    }

    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 6;
    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Client c(ts.ep());
            for (int i = 0; i < kCallsPerThread; ++i) {
                const std::size_t pi =
                    static_cast<std::size_t>(t + i) % problems.size();
                RpcResponse resp;
                if (!c.call(solveRequest(problems[pi]), resp) ||
                    !resp.ok) {
                    failures.fetch_add(1);
                    continue;
                }
                if (!(resp.solve.sol == expected[pi]))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(ts.server().counters().requests.load(),
              kThreads * kCallsPerThread);
}

TEST(RpcServer, ConcurrentColdRequestsForOneShapeSolveOnce)
{
    ServerOptions so;
    so.workers = 8;
    so.solve_concurrency = 2;
    TestServer ts(so);
    const ConvProblem p = smallProblem();

    constexpr int kClients = 8;
    std::atomic<int> failures{0}, mismatches{0};
    std::vector<CachedSolution> sols(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            Client c(ts.ep());
            RpcResponse resp;
            if (!c.call(solveRequest(p), resp) || !resp.ok)
                failures.fetch_add(1);
            else
                sols[static_cast<std::size_t>(t)] = resp.solve.sol;
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_EQ(failures.load(), 0);
    for (const CachedSolution &s : sols)
        if (!(s == sols.front()))
            mismatches.fetch_add(1);
    EXPECT_EQ(mismatches.load(), 0);

    // Single flight: eight cold clients, one solver invocation, one
    // cache entry.
    EXPECT_EQ(ts.server().schedulerStats().solves, 1);
    EXPECT_EQ(ts.cache().size(), 1u);

    // The stats RPC reports the same truth over the wire.
    Client c(ts.ep());
    RpcRequest req;
    req.op = RpcOp::Stats;
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_EQ(resp.sched_solves, 1);
    EXPECT_EQ(resp.sched_budget, 2);
}

TEST(RpcServer, ShutdownOpStopsServing)
{
    TestServer ts;
    Client c(ts.ep());
    RpcRequest req;
    req.op = RpcOp::Shutdown;
    RpcResponse resp;
    std::string err;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    ts.join(); // serve() must return promptly.
    EXPECT_TRUE(ts.server().stopping());
}

TEST(RpcRouter, RoutesByStableHashAcrossFleet)
{
    TestServer node0, node1;
    ShardRouter router({node0.ep(), node1.ep()}, tiny(), fastOpts());

    std::vector<ConvProblem> net;
    for (int i = 0; i < 6; ++i)
        net.push_back(smallProblem(16 + 8 * i));

    RouteStats rs;
    const NetworkPlan plan = router.optimize(net, &rs);
    EXPECT_EQ(plan.layers.size(), net.size());
    EXPECT_EQ(rs.unique_shapes, net.size());
    EXPECT_EQ(rs.fallbacks, 0u);
    EXPECT_EQ(rs.remote_misses, net.size());

    // Every key must have landed on (only) the node its hash owns.
    std::size_t expect_node0 = 0;
    for (const ConvProblem &p : net) {
        const CacheKey key = CacheKey::make(p, tiny(), fastOpts());
        if (router.nodeOf(key) == 0)
            ++expect_node0;
    }
    EXPECT_EQ(node0.cache().size(), expect_node0);
    EXPECT_EQ(node1.cache().size(), net.size() - expect_node0);

    // Warm pass: all remote hits, byte-identical plan.
    RouteStats warm;
    const NetworkPlan again = router.optimize(net, &warm);
    EXPECT_EQ(warm.remote_hits, net.size());
    EXPECT_EQ(warm.remote_hits, warm.unique_shapes);
    EXPECT_EQ(again.str(), plan.str());
}

TEST(RpcRouter, FallsBackToLocalSolveWhenNodeDown)
{
    TestServer alive;
    // A listener that was closed: connecting to its (now free) port
    // fails fast with ECONNREFUSED.
    int dead_port = 0;
    {
        TcpListener tmp;
        ASSERT_TRUE(tmp.listenOn("127.0.0.1", 0));
        dead_port = tmp.port();
    }
    // Pick shapes whose (stable) hashes cover both nodes, so the test
    // cannot pass vacuously when every key lands on the live node.
    std::vector<ConvProblem> net;
    std::size_t on_dead = 0, on_alive = 0;
    for (int i = 0; (on_dead < 2 || on_alive < 2) && i < 64; ++i) {
        const ConvProblem p = smallProblem(16 + 8 * i);
        const CacheKey key = CacheKey::make(p, tiny(), fastOpts());
        ((key.hash() % 2 == 0) ? on_dead : on_alive)++;
        net.push_back(p);
    }
    ASSERT_GE(on_dead, 2u);
    ASSERT_GE(on_alive, 2u);

    ShardRouter router(
        {RpcEndpoint{"127.0.0.1", dead_port}, alive.ep()}, tiny(),
        fastOpts());

    RouteStats rs;
    const NetworkPlan plan = router.optimize(net, &rs);
    EXPECT_EQ(rs.fallbacks + rs.remote_misses, net.size());
    EXPECT_GT(rs.fallbacks, 0u); // Some keys hash to the dead node.

    // Degraded answers must equal what one healthy node computes.
    SolutionCache local_cache;
    const NetworkOptimizer local(tiny(), fastOpts(), &local_cache);
    EXPECT_EQ(plan.str(), local.optimize(net).str());
}

TEST(RpcRouter, RefusalIsFatalNotFallback)
{
    TestServer ts;
    OptimizerOptions wrong = fastOpts();
    wrong.seed += 1; // Different settings fingerprint than the server.
    ShardRouter router({ts.ep()}, tiny(), wrong);
    EXPECT_THROW(router.optimize({smallProblem()}), FatalError);
}

TEST(RpcRouter, NoFallbackTurnsDeadNodeIntoError)
{
    int dead_port = 0;
    {
        TcpListener tmp;
        ASSERT_TRUE(tmp.listenOn("127.0.0.1", 0));
        dead_port = tmp.port();
    }
    FleetOptions fleet;
    fleet.local_fallback = false;
    ShardRouter router({RpcEndpoint{"127.0.0.1", dead_port}}, tiny(),
                       fastOpts(), fleet);
    EXPECT_THROW(router.optimize({smallProblem()}), FatalError);
}

/** Lift this process's soft RLIMIT_NOFILE toward its hard limit:
 *  both ends of every test connection live in this one process. */
void
raiseFdLimit(rlim_t want)
{
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur >= want)
        return;
    rl.rlim_cur = std::min(want, rl.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &rl);
}

// The readiness core's defining property: connections are registered
// fds, not threads. 512 open connections must be served by the same
// fixed thread count, and frames arriving one byte at a time,
// interleaved across connections, must reassemble into complete
// requests (the per-connection LineReader buffers resume across
// reads). Then one warm query through every connection must come back
// a hit, equal to the first answer, with a bounded p99 round trip.
TEST(RpcServer, IdleConnectionsCostNoThreadsAndFragmentsInterleave)
{
    constexpr std::size_t kConns = 512;
    constexpr std::size_t kActive = 8;
    raiseFdLimit(4096);
    ServerOptions so;
    so.workers = 2;
    TestServer ts(so);
    const int threads_before = threadCount();
    ASSERT_GT(threads_before, 0);

    std::vector<TcpSocket> conns;
    conns.reserve(kConns);
    for (std::size_t i = 0; i < kConns; ++i) {
        std::string err;
        TcpSocket s = TcpSocket::connectTo(ts.ep().host, ts.ep().port,
                                           &err, Deadline::in(5000));
        ASSERT_TRUE(s.valid()) << "connection " << i << ": " << err;
        conns.push_back(std::move(s));
    }
    std::vector<LineReader> readers;
    readers.reserve(kConns);
    for (TcpSocket &sock : conns)
        readers.emplace_back(sock, 1u << 20);
    const auto answer = [&](std::size_t i, RpcResponse &resp) {
        std::string resp_line, err;
        ASSERT_EQ(readers[i].readLine(resp_line, Deadline::in(30000)),
                  LineReader::Status::Ok);
        ASSERT_TRUE(responseFromJsonLine(resp_line, resp, &err)) << err;
        ASSERT_TRUE(resp.ok) << resp.error;
    };

    // Dribble the same request over the first kActive connections,
    // one byte per connection per round, while the rest stay idle.
    const std::string line =
        requestToJsonLine(solveRequest(smallProblem())) + "\n";
    for (std::size_t pos = 0; pos < line.size(); ++pos)
        for (std::size_t i = 0; i < kActive; ++i)
            ASSERT_TRUE(conns[i].sendAll(line.substr(pos, 1)));
    RpcResponse first;
    for (std::size_t i = 0; i < kActive; ++i) {
        RpcResponse resp;
        ASSERT_NO_FATAL_FAILURE(answer(i, resp));
        if (i == 0)
            first = resp;
        EXPECT_EQ(resp.solve.sol, first.solve.sol) << "connection " << i;
    }

    // One warm query through every connection, round trips timed.
    std::vector<double> rtt_ms;
    rtt_ms.reserve(kConns);
    for (std::size_t i = 0; i < kConns; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(conns[i].sendAll(line));
        RpcResponse resp;
        ASSERT_NO_FATAL_FAILURE(answer(i, resp));
        rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        EXPECT_TRUE(resp.solve.cache_hit) << "connection " << i;
        EXPECT_EQ(resp.solve.sol, first.solve.sol) << "connection " << i;
    }

    // Sampled with every connection still open: identical concurrent
    // shapes coalesced onto one solve, and the connections recruited
    // not a single extra thread.
    EXPECT_EQ(ts.server().schedulerStats().solves, 1);
    EXPECT_EQ(threadCount(), threads_before);
    EXPECT_EQ(
        ts.server().counters().connections.load(std::memory_order_relaxed),
        static_cast<std::int64_t>(kConns));
    // A warm hit is microseconds of work; hundreds of milliseconds
    // means the loop is wedged or readiness never fired.
    std::sort(rtt_ms.begin(), rtt_ms.end());
    EXPECT_LE(rtt_ms[rtt_ms.size() * 99 / 100], 250.0);
}

// Four clients post the same grouped/depthwise .cfg network at batch
// 4 as concurrent solve_network calls: every unique layer shape is
// solved exactly once across them, and all four plans render the same
// bytes.
TEST(RpcServer, ConcurrentCfgNetworksSolveEachShapeOnce)
{
    ServerOptions so;
    so.workers = 4;
    so.solve_concurrency = 4;
    TestServer ts(so);
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    req.ir = parseCfgFile(std::string(MOPT_TEST_DATA_DIR) + "/tiny.cfg");
    req.has_ir = true;
    req.batch = 4;
    req.machine_fp = CacheKey::machineFingerprint(tiny());
    req.settings_fp = CacheKey::settingsFingerprint(fastOpts());

    constexpr std::size_t kClients = 4;
    std::vector<RpcResponse> resps(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            Client c(ts.ep());
            if (!c.call(req, resps[t]) || !resps[t].ok)
                failures.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    // The four layer shapes (dense, grouped, depthwise, connected) all
    // differ.
    EXPECT_EQ(resps[0].unique_shapes,
              static_cast<std::int64_t>(req.ir.layers.size()));
    EXPECT_EQ(ts.server().schedulerStats().solves, resps[0].unique_shapes);
    for (const RpcResponse &r : resps)
        EXPECT_EQ(r.plan_text, resps[0].plan_text);
}

TEST(RpcProtocol, PingRoundTripAndServerAnswersWithoutIdentity)
{
    RpcRequest req;
    req.op = RpcOp::Ping;
    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(req), back, &err))
        << err;
    EXPECT_EQ(back.op, RpcOp::Ping);
    // The exact probe a foreign fleet tool would send: no
    // fingerprints, nothing but the op.
    ASSERT_TRUE(
        requestFromJsonLine("{\"v\":1,\"op\":\"ping\"}", back, &err))
        << err;
    EXPECT_EQ(back.op, RpcOp::Ping);

    // A live server answers it even with mismatched fingerprints —
    // probing asks "are you there", not "are you me".
    TestServer ts;
    Client c(ts.ep());
    req.machine_fp = CacheKey::machineFingerprint(tiny()) ^ 1;
    RpcResponse resp;
    ASSERT_TRUE(c.call(req, resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.op, RpcOp::Ping);

    RpcResponse resp_back;
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(resp),
                                     resp_back, &err))
        << err;
    EXPECT_TRUE(resp_back.ok);
    EXPECT_EQ(resp_back.op, RpcOp::Ping);
}

TEST(RpcProtocol, ReplicatePullCursorAndFilterRoundTrip)
{
    // Delta pull: since + for travel; absent means -1 (full pull, no
    // filter — the PR 9 wire form).
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.repl_pull = true;
    req.repl_since = 412;
    req.repl_for = 2;
    RpcRequest back;
    std::string err;
    const std::string line = requestToJsonLine(req);
    EXPECT_NE(line.find("\"since\":412"), std::string::npos);
    EXPECT_NE(line.find("\"for\":2"), std::string::npos);
    ASSERT_TRUE(requestFromJsonLine(line, back, &err)) << err;
    EXPECT_TRUE(back.repl_pull);
    EXPECT_EQ(back.repl_since, 412);
    EXPECT_EQ(back.repl_for, 2);

    ASSERT_TRUE(requestFromJsonLine(
        "{\"v\":1,\"op\":\"replicate\",\"pull\":1}", back, &err))
        << err;
    EXPECT_TRUE(back.repl_pull);
    EXPECT_EQ(back.repl_since, -1);
    EXPECT_EQ(back.repl_for, -1);

    // Negative cursors are malformed, not silently clamped.
    EXPECT_FALSE(requestFromJsonLine(
        "{\"v\":1,\"op\":\"replicate\",\"pull\":1,\"since\":-3}", back,
        &err));
}

TEST(RpcProtocol, ReplicateDigestRoundTrip)
{
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.repl_digest = true;
    req.repl_for = 1;
    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(req), back, &err))
        << err;
    EXPECT_TRUE(back.repl_digest);
    EXPECT_FALSE(back.repl_pull);
    EXPECT_EQ(back.repl_for, 1);

    // Digest response: count + 16-hex fingerprint, high bit intact.
    RpcResponse resp;
    resp.ok = true;
    resp.op = RpcOp::Replicate;
    resp.repl_has_digest = true;
    resp.repl_digest_count = 7;
    resp.repl_digest_fp = 0xdeadbeefcafef00dull;
    RpcResponse resp_back;
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(resp),
                                     resp_back, &err))
        << err;
    EXPECT_TRUE(resp_back.repl_has_digest);
    EXPECT_EQ(resp_back.repl_digest_count, 7);
    EXPECT_EQ(resp_back.repl_digest_fp, 0xdeadbeefcafef00dull);
}

TEST(RpcProtocol, ReplicateRecordSequenceRoundTrips)
{
    // A real solve gives the record substance; the sequence rides it.
    SolutionCache cache;
    Server server(tiny(), fastOpts(), &cache);
    const RpcResponse solved = server.handle(solveRequest(smallProblem()));
    ASSERT_TRUE(solved.ok) << solved.error;

    RpcRequest push;
    push.op = RpcOp::Replicate;
    push.has_record = true;
    push.repl_record = {solved.solve.key, solved.solve.sol, 99};
    RpcRequest back;
    std::string err;
    ASSERT_TRUE(requestFromJsonLine(requestToJsonLine(push), back, &err))
        << err;
    ASSERT_TRUE(back.has_record);
    EXPECT_EQ(back.repl_record.key, push.repl_record.key);
    EXPECT_EQ(back.repl_record.sol, push.repl_record.sol);
    EXPECT_EQ(back.repl_record.seq, 99);

    // Pull responses carry per-record sequences the same way; a PR 9
    // record without one reads as seq 0 (never newer than anything).
    RpcResponse pull;
    pull.ok = true;
    pull.op = RpcOp::Replicate;
    pull.repl_is_pull = true;
    pull.repl_records.push_back(
        SolutionCacheRecord{solved.solve.key, solved.solve.sol, 7});
    RpcResponse pull_back;
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(pull),
                                     pull_back, &err))
        << err;
    ASSERT_EQ(pull_back.repl_records.size(), 1u);
    EXPECT_EQ(pull_back.repl_records[0].seq, 7);

    std::string legacy = responseToJsonLine(pull);
    const auto pos = legacy.find(",\"seq\":7");
    ASSERT_NE(pos, std::string::npos);
    legacy.erase(pos, std::string(",\"seq\":7").size());
    ASSERT_TRUE(responseFromJsonLine(legacy, pull_back, &err)) << err;
    ASSERT_EQ(pull_back.repl_records.size(), 1u);
    EXPECT_EQ(pull_back.repl_records[0].seq, 0);
}

TEST(RpcProtocol, StatsCarryFabricGauges)
{
    SolutionCache cache;
    Server server(tiny(), fastOpts(), &cache);
    ASSERT_TRUE(server.handle(solveRequest(smallProblem())).ok);

    RpcRequest req;
    req.op = RpcOp::Stats;
    const RpcResponse stats = server.handle(req);
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.repl_queue_depth, 0); // No peers: nothing queued.
    EXPECT_EQ(stats.journal_seq, 1);      // One insert, sequence 1.

    RpcResponse back;
    std::string err;
    ASSERT_TRUE(responseFromJsonLine(responseToJsonLine(stats), back,
                                     &err))
        << err;
    EXPECT_EQ(back.repl_queue_depth, 0);
    EXPECT_EQ(back.journal_seq, 1);

    // A pre-fabric stats line (no gauges) parses as 0 — rolling-fleet
    // back-compat, same contract as every other optional stats field.
    std::string legacy = responseToJsonLine(stats);
    for (const std::string field : {"repl_queue_depth", "journal_seq"}) {
        const auto pos = legacy.find(",\"" + field + "\":");
        ASSERT_NE(pos, std::string::npos) << field;
        const auto next = legacy.find(",\"", pos + 1);
        ASSERT_NE(next, std::string::npos) << field;
        legacy.erase(pos, next - pos);
    }
    ASSERT_TRUE(responseFromJsonLine(legacy, back, &err)) << err;
    EXPECT_EQ(back.repl_queue_depth, 0);
    EXPECT_EQ(back.journal_seq, 0);
}

} // namespace
} // namespace mopt
