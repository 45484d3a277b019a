#include "rpc/protocol.hh"

#include <algorithm>
#include <span>
#include <string_view>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

namespace {

/** Wire spellings, indexed by RpcOp and by RpcErrorCode ("" for None:
 *  the member is omitted). */
constexpr std::string_view kOpNames[] = {
    "solve", "solve_network", "stats", "shutdown", "replicate", "ping"};
constexpr std::string_view kErrorCodeNames[] = {"", "overloaded",
                                                "deadline_exceeded"};

/** The index of @p name in @p names; N when it is not there. */
template <std::size_t N>
std::size_t
nameIndex(const std::string_view (&names)[N], std::string_view name)
{
    return static_cast<std::size_t>(std::find(names, names + N, name) -
                                    names);
}

/** A response counter: its wire name and its member, on RpcResponse
 *  itself or, for the cache's counters, on RpcResponse::cache. */
struct Counter
{
    const char *name;
    std::int64_t RpcResponse::*member;
    std::int64_t SolutionCacheStats::*cache_member = nullptr;

    /** The member this names in @p resp (const when @p resp is). */
    auto &in(auto &resp) const
    {
        return member ? resp.*member : resp.cache.*cache_member;
    }
};

/** The stats response's required counters, in wire order. */
constexpr Counter kStatsCounters[] = {
    {"entries", &RpcResponse::entries},
    {"shards", &RpcResponse::shards},
    {"lookups_hit", nullptr, &SolutionCacheStats::hits},
    {"lookups_miss", nullptr, &SolutionCacheStats::misses},
    {"inserts", nullptr, &SolutionCacheStats::inserts},
    {"evictions", nullptr, &SolutionCacheStats::evictions},
    {"journal_loaded", nullptr, &SolutionCacheStats::journal_loaded},
    {"journal_skipped", nullptr, &SolutionCacheStats::journal_skipped}};

/** The stats response's optional counters, in wire order. An older
 *  server omits them, and 0 is then the honest reading. */
constexpr Counter kOptionalStats[] = {
    {"sched_solves", &RpcResponse::sched_solves},
    {"sched_coalesced", &RpcResponse::sched_coalesced},
    {"sched_inflight", &RpcResponse::sched_inflight},
    {"sched_peak", &RpcResponse::sched_peak},
    {"sched_budget", &RpcResponse::sched_budget},
    {"srv_shed_overload", &RpcResponse::srv_shed_overload},
    {"srv_shed_client", &RpcResponse::srv_shed_client},
    {"srv_shed_deadline", &RpcResponse::srv_shed_deadline},
    {"calib_samples", &RpcResponse::calib_samples},
    {"calib_active", &RpcResponse::calib_active},
    {"srv_repl_pushed", &RpcResponse::srv_repl_pushed},
    {"srv_repl_push_failed", &RpcResponse::srv_repl_push_failed},
    {"srv_repl_applied", &RpcResponse::srv_repl_applied},
    {"srv_repl_prefetched", &RpcResponse::srv_repl_prefetched},
    {"repl_queue_depth", &RpcResponse::repl_queue_depth},
    {"journal_seq", &RpcResponse::journal_seq}};

/** The solve_network response's summary counts, in wire order. */
constexpr Counter kNetworkCounts[] = {
    {"unique", &RpcResponse::unique_shapes},
    {"hits", &RpcResponse::cache_hits},
    {"misses", &RpcResponse::cache_misses},
    {"evals", &RpcResponse::solver_evals}};

/** An optional integer of a request: left off the wire while it holds
 *  @p unset (what an absent member parses as), refused below @p min. */
struct OptionalInt
{
    const char *name;
    std::int64_t RpcRequest::*member;
    std::int64_t unset;
    std::int64_t min;
    const char *refusal;
};

constexpr OptionalInt kDeadline{
    "deadline_ms", &RpcRequest::deadline_ms, 0, 0,
    "\"deadline_ms\": expected a non-negative integer"};
constexpr OptionalInt kBatch{
    "batch", &RpcRequest::batch, 1, 1,
    "solve_network: \"batch\" must be a positive integer"};
constexpr OptionalInt kSince{
    "since", &RpcRequest::repl_since, -1, 0,
    "replicate: \"since\" must be a non-negative integer"};
constexpr OptionalInt kFor{
    "for", &RpcRequest::repl_for, -1, 0,
    "replicate: \"for\" must be a non-negative integer"};

/** Store @p msg in @p err (when non-null); always false, so a decoder
 *  refuses with `return fail(err, ...)`. */
bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Optional hex-fingerprint member; absent parses as 0 (skip check). */
bool
fingerprintFromJson(JsonView root, const char *key, std::uint64_t &out,
                    std::string *err)
{
    const JsonView v = root.find(key);
    std::string scratch;
    out = 0;
    if (v && !jsonParseHex16(v.strView(scratch), out))
        return fail(err, std::string(key) + ": expected 16 hex digits");
    return true;
}

/** ,"<name>":<v> */
void
appendIntField(std::string &out, std::string_view name, std::int64_t v)
{
    out += ",\"";
    out += name;
    appendInt(out, "\":", v);
}

/** ,"<name>":"<16 hex digits>" */
void
appendHexField(std::string &out, std::string_view name, std::uint64_t v)
{
    out += ",\"";
    out += name;
    out += "\":\"";
    jsonAppendHex16(out, v);
    out += '"';
}

/** ,"<name>":"<escaped s>" */
void
appendStringField(std::string &out, std::string_view name,
                  std::string_view s)
{
    out += ",\"";
    out += name;
    out += "\":\"";
    jsonAppendEscaped(out, s);
    out += '"';
}

void
appendCounters(std::string &out, const RpcResponse &resp,
               std::span<const Counter> table)
{
    for (const Counter &c : table)
        appendIntField(out, c.name, c.in(resp));
}

/** Read @p table's counters into @p resp. Returns the name of the
 *  first one that is not an integer, or absent when @p required;
 *  nullptr when all read. */
const char *
readCounters(JsonView root, RpcResponse &resp,
             std::span<const Counter> table, bool required)
{
    for (const Counter &c : table) {
        const JsonView v = root.find(c.name);
        if ((v || required) && !v.getInt(c.in(resp)))
            return c.name;
    }
    return nullptr;
}

void
appendOptional(std::string &out, const RpcRequest &req,
               const OptionalInt &f)
{
    if (req.*f.member != f.unset)
        appendIntField(out, f.name, req.*f.member);
}

bool
readOptional(JsonView root, RpcRequest &req, const OptionalInt &f,
             std::string *err)
{
    const JsonView v = root.find(f.name);
    if (v && (!v.getInt(req.*f.member) || req.*f.member < f.min))
        return fail(err, f.refusal);
    return true;
}

/** One solved layer: {"cache":"hit","record":{...}}. */
void
appendSolveResult(std::string &out, const RpcSolveResult &r)
{
    out += r.cache_hit ? "{\"cache\":\"hit\",\"record\":"
                       : "{\"cache\":\"miss\",\"record\":";
    solutionAppendJson(out, r.key, r.sol);
    out += '}';
}

/** One solved layer into @p out (partly written on failure: callers
 *  decode into a response they then drop). */
bool
solveResultFromJson(JsonView v, RpcSolveResult &out, std::string *err)
{
    std::string scratch;
    const std::string_view cache = v.find("cache").strView(scratch);
    if (cache != "hit" && cache != "miss")
        return fail(err, "solve result: missing cache provenance");
    if (!solutionFromJson(v.find("record"), out.key, out.sol))
        return fail(err, "solve result: bad record");
    out.cache_hit = cache == "hit";
    return true;
}

/** The members of @p req's op, past the header every request shares. */
bool
readRequestOp(JsonView root, RpcRequest &req, std::string *err)
{
    switch (req.op) {
    case RpcOp::Solve: {
        // The journal's shape fields, then validated.
        std::string why;
        if (!shapeFromJson(root, req.problem, &why))
            return fail(err, "solve: " + why);
        try {
            req.problem.validate();
        } catch (const FatalError &e) {
            return fail(err, std::string("solve: invalid shape: ") +
                                 e.what());
        }
        return true;
    }
    case RpcOp::SolveNetwork: {
        if (const JsonView ir = root.find("ir")) {
            if (root.find("net"))
                return fail(err, "solve_network: \"net\" and \"ir\" are "
                                 "mutually exclusive");
            std::string ir_err;
            if (!networkDefFromJson(ir, req.ir, &ir_err))
                return fail(err, "solve_network: bad \"ir\": " + ir_err);
            req.has_ir = true;
        } else if (!root.find("net").getString(req.net) ||
                   req.net.empty()) {
            return fail(err, "solve_network: missing \"net\" or \"ir\"");
        }
        return readOptional(root, req, kBatch, err);
    }
    case RpcOp::Replicate: {
        for (const auto &[name, flag] :
             {std::pair{"pull", &req.repl_pull},
              {"digest", &req.repl_digest}}) {
            std::int64_t v = 0;
            const JsonView member = root.find(name);
            if (member && !member.getInt(v))
                return fail(err, std::string("replicate: non-integer \"") +
                                     name + '"');
            *flag = v != 0;
        }
        if (!readOptional(root, req, kSince, err) ||
            !readOptional(root, req, kFor, err))
            return false;
        if (const JsonView rec = root.find("record")) {
            if (!solutionFromJson(rec, req.repl_record.key,
                                  req.repl_record.sol, nullptr,
                                  &req.repl_record.seq))
                return fail(err, "replicate: bad \"record\"");
            req.has_record = true;
        }
        if (!req.repl_pull && !req.repl_digest && !req.has_record)
            return fail(err, "replicate: missing \"record\", \"pull\", "
                             "or \"digest\"");
        return true;
    }
    case RpcOp::Stats:
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
    return true;
}

/** The members of a successful @p resp's op, past "ok" and "op". */
bool
readResponseOp(JsonView root, RpcResponse &resp, std::string *err)
{
    std::string scratch;
    const JsonView solve_s = root.find("solve_s");
    const bool solve_s_ok = solve_s.isNumber() && solve_s.num() >= 0;
    if (solve_s_ok)
        resp.solve_seconds = solve_s.num();
    switch (resp.op) {
    case RpcOp::Solve:
        // Same shape as one solve_network layer, flattened.
        if (!solveResultFromJson(root, resp.solve, err))
            return false;
        if (!solve_s_ok)
            return fail(err, "solve: missing solve_s");
        return true;
    case RpcOp::SolveNetwork: {
        if (!root.find("plan").getString(resp.plan_text) ||
            readCounters(root, resp, kNetworkCounts, true))
            return fail(err, "solve_network: missing summary fields");
        if (!solve_s_ok)
            return fail(err, "solve_network: missing solve_s");
        const JsonView layers = root.find("layers");
        if (!layers.isArray())
            return fail(err, "solve_network: missing layers");
        resp.layers.resize(layers.size());
        auto dst = resp.layers.begin();
        for (const JsonView v : layers)
            if (!solveResultFromJson(v, *dst++, err))
                return false;
        return true;
    }
    case RpcOp::Stats: {
        if (!fingerprintFromJson(root, "machine", resp.machine_fp, err) ||
            !fingerprintFromJson(root, "settings", resp.settings_fp, err))
            return false;
        root.find("machine_name").getString(resp.machine_name);
        if (readCounters(root, resp, kStatsCounters, true))
            return fail(err, "stats: missing counter fields");
        if (const char *bad =
                readCounters(root, resp, kOptionalStats, false))
            return fail(err, std::string("stats: bad ") + bad);
        const JsonView eh = root.find("entry_hits");
        if (!eh.isArray())
            return fail(err, "stats: missing entry_hits");
        for (const JsonView v : eh) {
            RpcEntryHits row;
            if (!v.find("key").getString(row.key) ||
                !v.find("hits").getInt(row.hits))
                return fail(err, "stats: bad entry_hits row");
            resp.entry_hits.push_back(std::move(row));
        }
        return true;
    }
    case RpcOp::Replicate: {
        if (const JsonView fp = root.find("fp")) {
            if (!jsonParseHex16(fp.strView(scratch), resp.repl_digest_fp) ||
                !root.find("count").getInt(resp.repl_digest_count) ||
                resp.repl_digest_count < 0)
                return fail(err, "replicate: bad digest");
            resp.repl_has_digest = true;
        } else if (const JsonView recs = root.find("records")) {
            if (!recs.isArray())
                return fail(err, "replicate: bad records");
            resp.repl_is_pull = true;
            resp.repl_records.resize(recs.size());
            auto dst = resp.repl_records.begin();
            for (const JsonView v : recs) {
                if (!solutionFromJson(v, dst->key, dst->sol, nullptr,
                                      &dst->seq))
                    return fail(err, "replicate: bad record in records");
                ++dst;
            }
        } else if (const JsonView applied = root.find("applied");
                   applied && !applied.getInt(resp.repl_applied)) {
            return fail(err, "replicate: bad applied");
        }
        return true;
    }
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
    return true;
}

} // namespace

std::string
rpcOpName(RpcOp op)
{
    const auto i = static_cast<std::size_t>(op);
    checkInvariant(i < std::size(kOpNames), "rpcOpName: bad op");
    return std::string(kOpNames[i]);
}

std::string
rpcErrorCodeName(RpcErrorCode code)
{
    const auto i = static_cast<std::size_t>(code);
    checkInvariant(i < std::size(kErrorCodeNames),
                   "rpcErrorCodeName: bad code");
    return std::string(kErrorCodeNames[i]);
}

std::string
requestToJsonLine(const RpcRequest &req)
{
    std::string out;
    out.reserve(256);
    appendInt(out, "{\"v\":", req.v);
    out += ",\"op\":\"";
    out += rpcOpName(req.op);
    out += '"';
    if (req.machine_fp)
        appendHexField(out, "machine", req.machine_fp);
    if (req.settings_fp)
        appendHexField(out, "settings", req.settings_fp);
    // Optional members are left off at their defaults, so a request
    // that does not use one stays byte-identical to the wire format
    // from before it existed.
    appendOptional(out, req, kDeadline);
    switch (req.op) {
    case RpcOp::Solve:
        shapeAppendJson(out, req.problem);
        break;
    case RpcOp::SolveNetwork:
        if (req.has_ir) {
            out += ",\"ir\":";
            out += networkDefToJson(req.ir);
        } else {
            appendStringField(out, "net", req.net);
        }
        appendOptional(out, req, kBatch);
        break;
    case RpcOp::Replicate:
        if (req.repl_digest) {
            out += ",\"digest\":1";
        } else if (req.repl_pull) {
            out += ",\"pull\":1";
        } else {
            out += ",\"record\":";
            solutionAppendJson(out, req.repl_record.key,
                               req.repl_record.sol, 0, req.repl_record.seq);
        }
        if (req.repl_digest || req.repl_pull) {
            appendOptional(out, req, kSince);
            appendOptional(out, req, kFor);
        }
        break;
    case RpcOp::Stats:
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
    out += '}';
    return out;
}

bool
requestFromJsonLine(const std::string &line, RpcRequest &out,
                    std::string *err)
{
    JsonReader reader;
    const JsonView root = reader.read(line) ? reader.root() : JsonView();
    if (!root.isObject())
        return fail(err, "request is not a JSON object");
    RpcRequest req;
    // Version gate first: a future major version may rename every
    // other field, so nothing else is interpreted until the request
    // is known to speak our dialect. Absent = 1 (pre-versioning
    // clients).
    const JsonView v = root.find("v");
    if (v && !v.getInt(req.v))
        return fail(err, "\"v\": expected an integer protocol version");
    if (req.v != kRpcProtocolVersion)
        return fail(err, "unsupported protocol version v=" +
                             std::to_string(req.v) +
                             " (this server speaks v=" +
                             std::to_string(kRpcProtocolVersion) + ")");
    std::string op_name;
    if (!root.find("op").getString(op_name))
        return fail(err, "request has no \"op\"");
    const std::size_t op = nameIndex(kOpNames, op_name);
    if (op == std::size(kOpNames))
        return fail(err, "unknown op \"" + op_name + "\"");
    req.op = static_cast<RpcOp>(op);
    if (!fingerprintFromJson(root, "machine", req.machine_fp, err) ||
        !fingerprintFromJson(root, "settings", req.settings_fp, err) ||
        !readOptional(root, req, kDeadline, err) ||
        !readRequestOp(root, req, err))
        return false;
    out = std::move(req);
    return true;
}

RpcResponse
rpcErrorResponse(const std::string &msg, RpcErrorCode code)
{
    RpcResponse resp;
    resp.ok = false;
    resp.error = msg;
    resp.code = code;
    return resp;
}

std::string
responseToJsonLine(const RpcResponse &resp)
{
    std::string out;
    if (!resp.ok) {
        out = "{\"ok\":false";
        appendStringField(out, "error", resp.error);
        if (resp.code != RpcErrorCode::None)
            appendStringField(out, "code", rpcErrorCodeName(resp.code));
        out += '}';
        return out;
    }
    // One record is about 350 bytes; escaping the plan text adds a
    // byte per line.
    out.reserve(128 + resp.plan_text.size() * 9 / 8 +
                400 * (resp.layers.size() + resp.repl_records.size()));
    out += "{\"ok\":true,\"op\":\"";
    out += rpcOpName(resp.op);
    out += '"';
    switch (resp.op) {
    case RpcOp::Solve:
        out += resp.solve.cache_hit ? ",\"cache\":\"hit\""
                                    : ",\"cache\":\"miss\"";
        out += ",\"solve_s\":";
        jsonAppendDouble(out, resp.solve_seconds);
        out += ",\"record\":";
        solutionAppendJson(out, resp.solve.key, resp.solve.sol);
        break;
    case RpcOp::SolveNetwork:
        appendStringField(out, "plan", resp.plan_text);
        appendCounters(out, resp, kNetworkCounts);
        out += ",\"solve_s\":";
        jsonAppendDouble(out, resp.solve_seconds);
        out += ",\"layers\":[";
        for (std::size_t i = 0; i < resp.layers.size(); ++i) {
            if (i)
                out += ',';
            appendSolveResult(out, resp.layers[i]);
        }
        out += ']';
        break;
    case RpcOp::Stats:
        appendHexField(out, "machine", resp.machine_fp);
        appendHexField(out, "settings", resp.settings_fp);
        appendStringField(out, "machine_name", resp.machine_name);
        appendCounters(out, resp, kStatsCounters);
        appendCounters(out, resp, kOptionalStats);
        out += ",\"entry_hits\":[";
        for (std::size_t i = 0; i < resp.entry_hits.size(); ++i) {
            out += i ? ",{\"key\":\"" : "{\"key\":\"";
            jsonAppendEscaped(out, resp.entry_hits[i].key);
            appendInt(out, "\",\"hits\":", resp.entry_hits[i].hits);
            out += '}';
        }
        out += ']';
        break;
    case RpcOp::Replicate:
        if (resp.repl_has_digest) {
            appendIntField(out, "count", resp.repl_digest_count);
            appendHexField(out, "fp", resp.repl_digest_fp);
        } else if (resp.repl_is_pull) {
            out += ",\"records\":[";
            for (std::size_t i = 0; i < resp.repl_records.size(); ++i) {
                if (i)
                    out += ',';
                solutionAppendJson(out, resp.repl_records[i].key,
                                   resp.repl_records[i].sol, 0,
                                   resp.repl_records[i].seq);
            }
            out += ']';
        } else {
            appendIntField(out, "applied", resp.repl_applied);
        }
        break;
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
    out += '}';
    return out;
}

bool
responseFromJsonLine(const std::string &line, RpcResponse &out,
                     std::string *err)
{
    JsonReader reader;
    const JsonView root = reader.read(line) ? reader.root() : JsonView();
    if (!root.isObject())
        return fail(err, "response is not a JSON object");
    const JsonView ok = root.find("ok");
    if (!ok.isBool())
        return fail(err, "response has no \"ok\"");
    RpcResponse resp;
    resp.ok = ok.isTrue();
    std::string scratch;
    if (!resp.ok) {
        root.find("error").getString(resp.error);
        if (resp.error.empty())
            resp.error = "unspecified server error";
        // Unknown codes read as None: a newer server's refinement of
        // "refused" must not change an old client's (fatal) handling.
        const std::size_t code = nameIndex(
            kErrorCodeNames, root.find("code").strView(scratch));
        if (code < std::size(kErrorCodeNames))
            resp.code = static_cast<RpcErrorCode>(code);
        out = std::move(resp);
        return true;
    }
    const std::size_t op =
        nameIndex(kOpNames, root.find("op").strView(scratch));
    if (op == std::size(kOpNames))
        return fail(err, "response has no valid \"op\"");
    resp.op = static_cast<RpcOp>(op);
    if (!readResponseOp(root, resp, err))
        return false;
    out = std::move(resp);
    return true;
}

} // namespace mopt
