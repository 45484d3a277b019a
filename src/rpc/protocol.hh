/**
 * @file
 * The moptd wire protocol: newline-delimited JSON, one object per
 * request and one per response, over a plain TCP stream.
 *
 * Requests (the "op" member selects the operation):
 *
 *   {"v":1,"op":"solve", "machine":"<fp>", "settings":"<fp>",
 *    "n":1,"k":64,"c":3,"r":7,"s":7,"h":112,"w":112,
 *    "stride":2,"dilation":1,"groups":8}
 *   {"v":1,"op":"solve_network", "machine":"<fp>", "settings":"<fp>",
 *    "net":"resnet18", "batch":8}
 *   {"v":1,"op":"solve_network", "machine":"<fp>", "settings":"<fp>",
 *    "ir":{"name":"tiny","layers":[...]}, "batch":4}
 *   {"v":1,"op":"stats"}
 *   {"v":1,"op":"shutdown"}
 *   {"v":1,"op":"replicate", "machine":"<fp>", "settings":"<fp>",
 *    "record":{...journal record...}}            (warm-entry push)
 *   {"v":1,"op":"replicate", "machine":"<fp>", "settings":"<fp>",
 *    "pull":1, "since":412, "for":2}             (join-time prefetch)
 *   {"v":1,"op":"replicate", "machine":"<fp>", "settings":"<fp>",
 *    "digest":1, "for":2}                        (anti-entropy digest)
 *   {"v":1,"op":"ping"}
 *
 * "replicate" is the optional fleet-internal warm-entry op (PR 9): a
 * node that just finished a cold solve *pushes* the journal record to
 * its peers, and a node joining the fleet *pulls* every entry its
 * peers hold. It stays inside v1 because it is a new op, and the
 * protocol's standing rule is that an unknown op is answered with an
 * error while the connection stays usable — an old server simply
 * refuses the push and the fleet degrades to cold-start behavior.
 * Push response: {"ok":true,"op":"replicate","applied":0|1} (0 = the
 * entry was already present). Pull response:
 * {"ok":true,"op":"replicate","records":[{...},...]}.
 *
 * The self-healing extensions (PR 10) stay inside v1 the same way —
 * every new field is optional with the old semantics as the default.
 * A record may carry "seq", the origin's journal sequence; a pull may
 * carry "since" (only records with seq > since are returned; absent =
 * everything, the old full pull) and "for" (a fleet ring slot: only
 * records whose static replica set contains that slot are returned;
 * absent = no filter). "digest":1 asks for a summary instead of
 * records — {"ok":true,"op":"replicate","count":N,"fp":"<hex16>"},
 * the count and XOR-of-mixed-key-hashes of the entries the responder
 * would return for the same "for" filter — which anti-entropy
 * compares against its own before paying for a pull. "ping" is a
 * liveness probe: {"ok":true,"op":"ping"}, answered without identity
 * checks (probing asks "are you there", not "are you me").
 *
 * Any request may carry an optional "deadline_ms": the client's
 * remaining per-request budget in milliseconds at send time. The
 * server refuses work it cannot finish in time (an expired deadline is
 * answered immediately) and bounds its own solve wait by it, so a
 * slow solve is answered with an explicit deadline_exceeded error
 * instead of a response the client already gave up on. Absent = no
 * deadline (the pre-deadline semantics), which keeps this inside v1.
 *
 * "v" is the protocol major version. This build speaks exactly v1; a
 * request carrying any other version is refused with a clear error
 * *before* its fields are interpreted (a future v2 may rename them),
 * and an absent "v" is treated as 1 so pre-versioning clients keep
 * working. The groups/batch/ir extensions stay inside v1 because
 * every one of them is optional with today's semantics as the
 * default: an absent "groups" is a dense conv, an absent "batch" is
 * 1, and "ir" (an inline frontend NetworkDef, networkDefToJson's
 * format) is an *alternative* to "net" — exactly one of the two must
 * be present, and old clients only ever send "net".
 *
 * "machine" and "settings" are the client's CacheKey fingerprints
 * (16-digit hex, the journal's encoding). The server compares them
 * against its own machine spec and search settings and rejects a
 * mismatch — a client configured for the wrong machine gets a loud
 * error instead of silently wrong tilings. Either may be omitted to
 * skip the check (fleet tooling that just drains a queue).
 *
 * Responses always carry "ok". Failures: {"ok":false,"error":"..."},
 * optionally with a machine-readable "code" naming *why* — today
 * "overloaded" (the server shed the request under admission control;
 * retrying after backoff is correct) or "deadline_exceeded" (the
 * request's own budget ran out; retrying with the same budget will
 * likely fail again). An absent or unrecognized code reads as a plain
 * refusal, so old clients keep treating every failure as fatal and a
 * v1 client talking to a newer server degrades safely.
 * Successful solves embed the solution in the journal's record format
 * (solutionToJsonLine) under "record", plus cache provenance:
 *
 *   {"ok":true,"op":"solve","cache":"hit"|"miss",
 *    "solve_s":0.31,"record":{...journal record...}}
 *   {"ok":true,"op":"solve_network","plan":"<rendered table>",
 *    "layers":[{"cache":"hit","record":{...}}, ...],
 *    "unique":11,"hits":11,"misses":0,"solve_s":0.0,"evals":0}
 *   {"ok":true,"op":"stats","machine":"<fp>","settings":"<fp>",
 *    "machine_name":"i7-9700K","entries":11,"shards":8,
 *    "lookups_hit":20,"lookups_miss":11,"inserts":11,"evictions":0,
 *    "journal_loaded":0,"journal_skipped":0,
 *    "sched_solves":11,"sched_coalesced":3,"sched_inflight":0,
 *    "sched_peak":2,"sched_budget":2,
 *    "srv_shed_overload":0,"srv_shed_client":0,"srv_shed_deadline":0,
 *    "calib_samples":0,"calib_active":0,
 *    "repl_queue_depth":0,"journal_seq":412,
 *    "entry_hits":[{"key":"...","hits":3}, ...]}
 *   {"ok":true,"op":"shutdown"}
 *
 * The "sched_*" members are the server's single-flight solve
 * scheduler counters (service/solve_scheduler.hh): solver
 * invocations, requests coalesced onto an in-flight solve, solves
 * executing right now, the peak observed concurrency, and the
 * configured --solve-concurrency budget. The "srv_shed_*" members are
 * the admission-control shed counters (requests refused for pending
 * budget, per-client cap, or an already-expired deadline). The
 * "calib_*" members report the machine calibration the server was
 * started with (sample count behind the fit, and whether it is
 * non-identity). Clients parse all of these as optional (absent reads
 * as 0) so a new client can still drain stats from an older server.
 *
 * Framing rules: a request larger than the server's limit (default
 * 1 MiB) is answered with an error and the connection is dropped;
 * malformed JSON or an unknown op is answered with an error and the
 * connection stays usable (the next line re-synchronizes, because
 * frames are lines).
 */

#ifndef MOPT_RPC_PROTOCOL_HH
#define MOPT_RPC_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "conv/problem.hh"
#include "frontend/network_def.hh"
#include "service/solution_cache.hh"

namespace mopt {

/** Operations a server understands. */
enum class RpcOp { Solve, SolveNetwork, Stats, Shutdown, Replicate, Ping };

/** Printable op name (the wire spelling). */
std::string rpcOpName(RpcOp op);

/**
 * Machine-readable failure cause on an error response. None covers
 * both "no code sent" and "code we don't recognize" — either way the
 * failure is a plain refusal, fatal to the caller. The distinction
 * matters to the retry policy: Overloaded is explicitly retryable
 * (after backoff, or on another shard), DeadlineExceeded means the
 * budget itself ran out.
 */
enum class RpcErrorCode { None, Overloaded, DeadlineExceeded };

/** Wire spelling of @p code ("" for None — the field is omitted). */
std::string rpcErrorCodeName(RpcErrorCode code);

/** The protocol major version this build speaks. */
constexpr std::int64_t kRpcProtocolVersion = 1;

/** One parsed request. */
struct RpcRequest
{
    /** Protocol major version; absent on the wire parses as 1. */
    std::int64_t v = kRpcProtocolVersion;

    RpcOp op = RpcOp::Solve;

    /** Solve: the shape to optimize (canonical; name ignored). */
    ConvProblem problem;

    /** SolveNetwork: registered network name; empty when @ref ir is
     *  carried instead. */
    std::string net;

    /** SolveNetwork: inline network IR (when @ref has_ir). */
    NetworkDef ir;
    bool has_ir = false;

    /** SolveNetwork: batch size applied to the network (absent on the
     *  wire parses as 1, the pre-batch semantics). */
    std::int64_t batch = 1;

    /** Client-side CacheKey fingerprints (0 = skip the check). */
    std::uint64_t machine_fp = 0;
    std::uint64_t settings_fp = 0;

    /** Remaining client budget in ms at send time; 0 = no deadline
     *  (absent on the wire). The server refuses work it cannot finish
     *  in time. */
    std::int64_t deadline_ms = 0;

    /** Replicate (push form): the journal record being replicated,
     *  with the origin's journal sequence for it (0 = none carried). */
    SolutionCacheRecord repl_record;
    bool has_record = false;

    /** Replicate (pull form): ask the peer for its entries. */
    bool repl_pull = false;

    /** Replicate (pull/digest): only entries with seq > since; -1 =
     *  absent on the wire = everything (the old full pull). */
    std::int64_t repl_since = -1;

    /** Replicate (pull/digest): only entries whose static replica set
     *  contains this fleet ring slot; -1 = absent = no filter. */
    std::int64_t repl_for = -1;

    /** Replicate (digest form): ask for (count, fingerprint) instead
     *  of the records themselves. */
    bool repl_digest = false;
};

std::string requestToJsonLine(const RpcRequest &req);

/** False + @p err on malformed input (bad JSON, unknown op, bad
 *  shape); @p out is untouched on failure. */
bool requestFromJsonLine(const std::string &line, RpcRequest &out,
                         std::string *err);

/** One solved layer as it travels over the wire. */
struct RpcSolveResult
{
    CacheKey key;       //!< Identity the server solved (cross-check).
    CachedSolution sol; //!< Winning configuration.
    bool cache_hit = false;
};

/** Per-entry telemetry row of a stats response. */
struct RpcEntryHits
{
    std::string key; //!< CacheKey::str() of the entry.
    std::int64_t hits = 0;
};

/** One parsed response (fields populated per op; see file header). */
struct RpcResponse
{
    bool ok = false;
    std::string error;

    /** Why the call failed (None unless the server sent a code the
     *  client recognizes). Only meaningful when !ok. */
    RpcErrorCode code = RpcErrorCode::None;

    RpcOp op = RpcOp::Solve;

    // Solve.
    RpcSolveResult solve;
    double solve_seconds = 0;

    // SolveNetwork.
    std::vector<RpcSolveResult> layers; //!< One per input layer.
    std::string plan_text; //!< NetworkPlan::str() rendering.
    std::int64_t unique_shapes = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
    std::int64_t solver_evals = 0;

    // Stats.
    SolutionCacheStats cache;
    std::int64_t entries = 0;
    std::int64_t shards = 0;
    std::uint64_t machine_fp = 0;
    std::uint64_t settings_fp = 0;
    std::string machine_name;
    std::vector<RpcEntryHits> entry_hits;

    // Stats: solve-scheduler counters (optional on the wire; absent
    // parses as 0 — see the file header).
    std::int64_t sched_solves = 0;
    std::int64_t sched_coalesced = 0;
    std::int64_t sched_inflight = 0;
    std::int64_t sched_peak = 0;
    std::int64_t sched_budget = 0;

    // Stats: admission-control counters (optional on the wire; absent
    // parses as 0 — a pre-admission server simply never shed).
    std::int64_t srv_shed_overload = 0; //!< Refused: pending budget.
    std::int64_t srv_shed_client = 0;   //!< Refused: per-client cap.
    std::int64_t srv_shed_deadline = 0; //!< Refused: budget expired.

    // Stats: calibration provenance (optional on the wire; absent
    // parses as 0 — an uncalibrated server).
    std::int64_t calib_samples = 0; //!< Samples behind the correction.
    std::int64_t calib_active = 0;  //!< 1 when a non-identity fit applies.

    // Stats: warm-entry replication counters (optional on the wire;
    // absent parses as 0 — a server without --replicate never pushes).
    std::int64_t srv_repl_pushed = 0;      //!< Records pushed to peers.
    std::int64_t srv_repl_push_failed = 0; //!< Pushes dropped (peer down).
    std::int64_t srv_repl_applied = 0;     //!< Pushed records accepted.
    std::int64_t srv_repl_prefetched = 0;  //!< Entries pulled at join.

    // Stats: replication-fabric gauges (optional on the wire; absent
    // parses as 0 — an older server has no queue and no sequence).
    std::int64_t repl_queue_depth = 0; //!< Records awaiting push.
    std::int64_t journal_seq = 0;      //!< Journal high-water sequence.

    // Replicate.
    std::int64_t repl_applied = 0; //!< Push form: 1 = newly inserted.
    bool repl_is_pull = false;     //!< Response carries records[].
    std::vector<SolutionCacheRecord> repl_records; //!< Pull payload.

    // Replicate (digest form).
    bool repl_has_digest = false;
    std::int64_t repl_digest_count = 0;  //!< Entries behind the digest.
    std::uint64_t repl_digest_fp = 0;    //!< XOR of mixed key hashes.
};

/** An error response for @p msg (op-independent). */
RpcResponse rpcErrorResponse(const std::string &msg,
                             RpcErrorCode code = RpcErrorCode::None);

std::string responseToJsonLine(const RpcResponse &resp);

/** False + @p err on malformed input; @p out untouched on failure. */
bool responseFromJsonLine(const std::string &line, RpcResponse &out,
                          std::string *err);

} // namespace mopt

#endif // MOPT_RPC_PROTOCOL_HH
