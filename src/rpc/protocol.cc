#include "rpc/protocol.hh"

#include <string_view>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

namespace {

/** The stats response's optional counters, in wire order. An older
 *  server omits them, and 0 is then the honest reading. */
constexpr std::pair<const char *, std::int64_t RpcResponse::*>
    kOptionalStats[] = {
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

void
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
}

/** The shape of a solve request: the journal's fields, then
 *  validated. */
bool
problemFromJson(JsonView root, ConvProblem &out, std::string *err)
{
    ConvProblem p;
    std::string why;
    if (!shapeFromJson(root, p, &why)) {
        setError(err, "solve: " + why);
        return false;
    }
    try {
        p.validate();
    } catch (const FatalError &e) {
        setError(err, std::string("solve: invalid shape: ") + e.what());
        return false;
    }
    out = std::move(p);
    return true;
}

/** Optional hex-fingerprint member; absent parses as 0 (skip check). */
bool
fingerprintFromJson(JsonView root, const char *key, std::uint64_t &out,
                    std::string *err)
{
    const JsonView v = root.find(key);
    if (!v) {
        out = 0;
        return true;
    }
    std::string scratch;
    if (!jsonParseHex16(v.strView(scratch), out)) {
        setError(err, std::string(key) + ": expected 16 hex digits");
        return false;
    }
    return true;
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
appendFingerprints(std::string &out, std::uint64_t machine_fp,
                   std::uint64_t settings_fp)
{
    if (machine_fp)
        appendHexField(out, "machine", machine_fp);
    if (settings_fp)
        appendHexField(out, "settings", settings_fp);
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
    if (cache != "hit" && cache != "miss") {
        setError(err, "solve result: missing cache provenance");
        return false;
    }
    if (!solutionFromJson(v.find("record"), out.key, out.sol)) {
        setError(err, "solve result: bad record");
        return false;
    }
    out.cache_hit = cache == "hit";
    return true;
}

RpcErrorCode
errorCodeFromName(std::string_view name)
{
    if (name == "overloaded")
        return RpcErrorCode::Overloaded;
    if (name == "deadline_exceeded")
        return RpcErrorCode::DeadlineExceeded;
    // Unknown codes read as None: a newer server's refinement of
    // "refused" must not change an old client's (fatal) handling.
    return RpcErrorCode::None;
}

bool
opFromName(std::string_view name, RpcOp &out)
{
    if (name == "solve")
        out = RpcOp::Solve;
    else if (name == "solve_network")
        out = RpcOp::SolveNetwork;
    else if (name == "stats")
        out = RpcOp::Stats;
    else if (name == "shutdown")
        out = RpcOp::Shutdown;
    else if (name == "replicate")
        out = RpcOp::Replicate;
    else if (name == "ping")
        out = RpcOp::Ping;
    else
        return false;
    return true;
}

} // namespace

std::string
rpcOpName(RpcOp op)
{
    switch (op) {
    case RpcOp::Solve: return "solve";
    case RpcOp::SolveNetwork: return "solve_network";
    case RpcOp::Stats: return "stats";
    case RpcOp::Shutdown: return "shutdown";
    case RpcOp::Replicate: return "replicate";
    case RpcOp::Ping: return "ping";
    }
    panic("rpcOpName: bad op");
}

std::string
rpcErrorCodeName(RpcErrorCode code)
{
    switch (code) {
    case RpcErrorCode::None: return "";
    case RpcErrorCode::Overloaded: return "overloaded";
    case RpcErrorCode::DeadlineExceeded: return "deadline_exceeded";
    }
    panic("rpcErrorCodeName: bad code");
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
    appendFingerprints(out, req.machine_fp, req.settings_fp);
    // Optional, default 0 = none: deadline-less requests stay
    // byte-identical to the pre-deadline wire format.
    if (req.deadline_ms > 0)
        appendInt(out, ",\"deadline_ms\":", req.deadline_ms);
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
        if (req.batch != 1)
            appendInt(out, ",\"batch\":", req.batch);
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
        // Optional cursors, absent by default: a full unfiltered pull
        // stays byte-identical to the PR 9 wire format.
        if ((req.repl_digest || req.repl_pull) && req.repl_since >= 0)
            appendInt(out, ",\"since\":", req.repl_since);
        if ((req.repl_digest || req.repl_pull) && req.repl_for >= 0)
            appendInt(out, ",\"for\":", req.repl_for);
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
    if (!root.isObject()) {
        setError(err, "request is not a JSON object");
        return false;
    }
    RpcRequest req;
    // Version gate first: a future major version may rename every
    // other field, so nothing else is interpreted until the request
    // is known to speak our dialect. Absent = 1 (pre-versioning
    // clients).
    const JsonView v = root.find("v");
    if (v && !v.getInt(req.v)) {
        setError(err, "\"v\": expected an integer protocol version");
        return false;
    }
    if (req.v != kRpcProtocolVersion) {
        setError(err, "unsupported protocol version v=" +
                          std::to_string(req.v) +
                          " (this server speaks v=" +
                          std::to_string(kRpcProtocolVersion) + ")");
        return false;
    }
    std::string op_name;
    if (!root.find("op").getString(op_name)) {
        setError(err, "request has no \"op\"");
        return false;
    }
    if (!opFromName(op_name, req.op)) {
        setError(err, "unknown op \"" + op_name + "\"");
        return false;
    }
    if (!fingerprintFromJson(root, "machine", req.machine_fp, err) ||
        !fingerprintFromJson(root, "settings", req.settings_fp, err))
        return false;
    const JsonView deadline = root.find("deadline_ms");
    if (deadline && (!deadline.getInt(req.deadline_ms) ||
                     req.deadline_ms < 0)) {
        setError(err, "\"deadline_ms\": expected a non-negative "
                      "integer");
        return false;
    }
    switch (req.op) {
    case RpcOp::Solve:
        if (!problemFromJson(root, req.problem, err))
            return false;
        break;
    case RpcOp::SolveNetwork: {
        const JsonView ir = root.find("ir");
        if (ir) {
            if (root.find("net")) {
                setError(err, "solve_network: \"net\" and \"ir\" are "
                              "mutually exclusive");
                return false;
            }
            std::string ir_err;
            if (!networkDefFromJson(ir, req.ir, &ir_err)) {
                setError(err, "solve_network: bad \"ir\": " + ir_err);
                return false;
            }
            req.has_ir = true;
        } else if (!root.find("net").getString(req.net) ||
                   req.net.empty()) {
            setError(err, "solve_network: missing \"net\" or \"ir\"");
            return false;
        }
        const JsonView batch = root.find("batch");
        if (batch && (!batch.getInt(req.batch) || req.batch < 1)) {
            setError(err, "solve_network: \"batch\" must be a positive "
                          "integer");
            return false;
        }
        break;
    }
    case RpcOp::Replicate: {
        std::int64_t flag = 0;
        const JsonView pull = root.find("pull");
        if (pull) {
            if (!pull.getInt(flag)) {
                setError(err, "replicate: non-integer \"pull\"");
                return false;
            }
            req.repl_pull = flag != 0;
        }
        const JsonView digest = root.find("digest");
        if (digest) {
            if (!digest.getInt(flag)) {
                setError(err, "replicate: non-integer \"digest\"");
                return false;
            }
            req.repl_digest = flag != 0;
        }
        const JsonView since = root.find("since");
        if (since && (!since.getInt(req.repl_since) || req.repl_since < 0)) {
            setError(err, "replicate: \"since\" must be a non-negative "
                          "integer");
            return false;
        }
        const JsonView slot = root.find("for");
        if (slot && (!slot.getInt(req.repl_for) || req.repl_for < 0)) {
            setError(err, "replicate: \"for\" must be a non-negative "
                          "integer");
            return false;
        }
        const JsonView rec = root.find("record");
        if (rec) {
            if (!solutionFromJson(rec, req.repl_record.key,
                                  req.repl_record.sol, nullptr,
                                  &req.repl_record.seq)) {
                setError(err, "replicate: bad \"record\"");
                return false;
            }
            req.has_record = true;
        }
        if (!req.repl_pull && !req.repl_digest && !req.has_record) {
            setError(err, "replicate: missing \"record\", \"pull\", "
                          "or \"digest\"");
            return false;
        }
        break;
    }
    case RpcOp::Stats:
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
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
        appendInt(out, ",\"unique\":", resp.unique_shapes);
        appendInt(out, ",\"hits\":", resp.cache_hits);
        appendInt(out, ",\"misses\":", resp.cache_misses);
        appendInt(out, ",\"evals\":", resp.solver_evals);
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
        for (const auto &[key, v] :
             {std::pair<const char *, std::int64_t>{"entries", resp.entries},
              {"shards", resp.shards},
              {"lookups_hit", resp.cache.hits},
              {"lookups_miss", resp.cache.misses},
              {"inserts", resp.cache.inserts},
              {"evictions", resp.cache.evictions},
              {"journal_loaded", resp.cache.journal_loaded},
              {"journal_skipped", resp.cache.journal_skipped}}) {
            out += ",\"";
            out += key;
            appendInt(out, "\":", v);
        }
        for (const auto &[key, member] : kOptionalStats) {
            out += ",\"";
            out += key;
            appendInt(out, "\":", resp.*member);
        }
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
            appendInt(out, ",\"count\":", resp.repl_digest_count);
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
            appendInt(out, ",\"applied\":", resp.repl_applied);
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
    if (!root.isObject()) {
        setError(err, "response is not a JSON object");
        return false;
    }
    const JsonView ok = root.find("ok");
    if (!ok.isBool()) {
        setError(err, "response has no \"ok\"");
        return false;
    }
    RpcResponse resp;
    resp.ok = ok.isTrue();
    std::string scratch;
    if (!resp.ok) {
        root.find("error").getString(resp.error);
        if (resp.error.empty())
            resp.error = "unspecified server error";
        resp.code = errorCodeFromName(root.find("code").strView(scratch));
        out = std::move(resp);
        return true;
    }
    if (!opFromName(root.find("op").strView(scratch), resp.op)) {
        setError(err, "response has no valid \"op\"");
        return false;
    }
    const JsonView solve_s = root.find("solve_s");
    switch (resp.op) {
    case RpcOp::Solve: {
        // Same shape as one solve_network layer, flattened.
        if (!solveResultFromJson(root, resp.solve, err))
            return false;
        if (!solve_s.isNumber() || solve_s.num() < 0) {
            setError(err, "solve: missing solve_s");
            return false;
        }
        resp.solve_seconds = solve_s.num();
        break;
    }
    case RpcOp::SolveNetwork: {
        if (!root.find("plan").getString(resp.plan_text) ||
            !root.find("unique").getInt(resp.unique_shapes) ||
            !root.find("hits").getInt(resp.cache_hits) ||
            !root.find("misses").getInt(resp.cache_misses) ||
            !root.find("evals").getInt(resp.solver_evals)) {
            setError(err, "solve_network: missing summary fields");
            return false;
        }
        if (!solve_s.isNumber() || solve_s.num() < 0) {
            setError(err, "solve_network: missing solve_s");
            return false;
        }
        resp.solve_seconds = solve_s.num();
        const JsonView layers = root.find("layers");
        if (!layers.isArray()) {
            setError(err, "solve_network: missing layers");
            return false;
        }
        resp.layers.resize(layers.size());
        auto dst = resp.layers.begin();
        for (const JsonView v : layers)
            if (!solveResultFromJson(v, *dst++, err))
                return false;
        break;
    }
    case RpcOp::Stats: {
        if (!fingerprintFromJson(root, "machine", resp.machine_fp,
                                 err) ||
            !fingerprintFromJson(root, "settings", resp.settings_fp, err))
            return false;
        root.find("machine_name").getString(resp.machine_name);
        std::int64_t shards = 0;
        if (!root.find("entries").getInt(resp.entries) ||
            !root.find("shards").getInt(shards) ||
            !root.find("lookups_hit").getInt(resp.cache.hits) ||
            !root.find("lookups_miss").getInt(resp.cache.misses) ||
            !root.find("inserts").getInt(resp.cache.inserts) ||
            !root.find("evictions").getInt(resp.cache.evictions) ||
            !root.find("journal_loaded").getInt(resp.cache.journal_loaded) ||
            !root.find("journal_skipped")
                 .getInt(resp.cache.journal_skipped)) {
            setError(err, "stats: missing counter fields");
            return false;
        }
        resp.shards = static_cast<int>(shards);
        for (const auto &[key, member] : kOptionalStats) {
            const JsonView v = root.find(key);
            if (v && !v.getInt(resp.*member)) {
                setError(err, std::string("stats: bad ") + key);
                return false;
            }
        }
        const JsonView eh = root.find("entry_hits");
        if (!eh.isArray()) {
            setError(err, "stats: missing entry_hits");
            return false;
        }
        for (const JsonView v : eh) {
            RpcEntryHits row;
            if (!v.find("key").getString(row.key) ||
                !v.find("hits").getInt(row.hits)) {
                setError(err, "stats: bad entry_hits row");
                return false;
            }
            resp.entry_hits.push_back(std::move(row));
        }
        break;
    }
    case RpcOp::Replicate: {
        const JsonView recs = root.find("records");
        const JsonView fp = root.find("fp");
        const JsonView applied = root.find("applied");
        if (fp) {
            if (!jsonParseHex16(fp.strView(scratch), resp.repl_digest_fp) ||
                !root.find("count").getInt(resp.repl_digest_count) ||
                resp.repl_digest_count < 0) {
                setError(err, "replicate: bad digest");
                return false;
            }
            resp.repl_has_digest = true;
        } else if (recs) {
            if (!recs.isArray()) {
                setError(err, "replicate: bad records");
                return false;
            }
            resp.repl_is_pull = true;
            resp.repl_records.resize(recs.size());
            auto dst = resp.repl_records.begin();
            for (const JsonView v : recs) {
                if (!solutionFromJson(v, dst->key, dst->sol, nullptr,
                                      &dst->seq)) {
                    setError(err, "replicate: bad record in records");
                    return false;
                }
                ++dst;
            }
        } else if (applied && !applied.getInt(resp.repl_applied)) {
            setError(err, "replicate: bad applied");
            return false;
        }
        break;
    }
    case RpcOp::Shutdown:
    case RpcOp::Ping:
        break;
    }
    out = std::move(resp);
    return true;
}

} // namespace mopt
