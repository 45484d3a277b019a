#include "support/tree_decoders.hh"

#include <cmath>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "frontend/network_def.hh"

namespace mopt {

namespace {

void
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
}

/** Integer member of @p obj: an exact whole number with |value| <=
 *  1e15, JsonView::getInt's rule. */
bool
jsonGetInt(const JsonValue &obj, std::string_view key, std::int64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber() || !(std::abs(v->num) <= 1e15))
        return false;
    const auto whole = static_cast<std::int64_t>(v->num);
    if (static_cast<double>(whole) != v->num)
        return false;
    out = whole;
    return true;
}

bool
treeGetString(const JsonValue &obj, std::string_view key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->type != JsonValue::Type::String)
        return false;
    out = v->str;
    return true;
}

bool
getTiles(const JsonValue &arr, IntTileVec &out)
{
    if (arr.type != JsonValue::Type::Array ||
        arr.arr.size() != static_cast<std::size_t>(NumDims))
        return false;
    for (int d = 0; d < NumDims; ++d) {
        const JsonValue &v = arr.arr[static_cast<std::size_t>(d)];
        if (v.type != JsonValue::Type::Number ||
            v.num != std::floor(v.num) || v.num < 1 || v.num > 1e15)
            return false;
        out[static_cast<std::size_t>(d)] =
            static_cast<std::int64_t>(v.num);
    }
    return true;
}

bool
refShapeFromJson(const JsonValue &root, ConvProblem &out, std::string *err)
{
    ConvProblem p;
    std::int64_t stride = 0, dilation = 0;
    if (!jsonGetInt(root, "n", p.n) || !jsonGetInt(root, "k", p.k) ||
        !jsonGetInt(root, "c", p.c) || !jsonGetInt(root, "r", p.r) ||
        !jsonGetInt(root, "s", p.s) || !jsonGetInt(root, "h", p.h) ||
        !jsonGetInt(root, "w", p.w) ||
        !jsonGetInt(root, "stride", stride) ||
        !jsonGetInt(root, "dilation", dilation)) {
        if (err)
            *err = "missing or non-integer shape field";
        return false;
    }
    p.stride = static_cast<int>(stride);
    p.dilation = static_cast<int>(dilation);
    if (root.find("groups") && !jsonGetInt(root, "groups", p.groups)) {
        if (err)
            *err = "non-integer \"groups\"";
        return false;
    }
    out = std::move(p);
    return true;
}

bool
refRecordPrefixFromJson(const JsonValue &root, CacheKey &key,
                     ExecConfig &config)
{
    if (root.type != JsonValue::Type::Object)
        return false;

    std::int64_t version = 0;
    if (!jsonGetInt(root, "v", version) || version != 1)
        return false;

    CacheKey k;
    if (!refShapeFromJson(root, k.problem, nullptr))
        return false;

    const JsonValue *machine = root.find("machine");
    const JsonValue *settings = root.find("settings");
    if (!machine || machine->type != JsonValue::Type::String ||
        !jsonParseHex16(machine->str, k.machine_fp) || !settings ||
        settings->type != JsonValue::Type::String ||
        !jsonParseHex16(settings->str, k.settings_fp))
        return false;

    ExecConfig c;
    const JsonValue *perm = root.find("perm");
    const JsonValue *tiles = root.find("tiles");
    if (!perm || perm->type != JsonValue::Type::Array ||
        perm->arr.size() != static_cast<std::size_t>(NumMemLevels) ||
        !tiles || tiles->type != JsonValue::Type::Array ||
        tiles->arr.size() != static_cast<std::size_t>(NumMemLevels))
        return false;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        if (perm->arr[sl].type != JsonValue::Type::String)
            return false;
        try {
            c.perm[sl] = Permutation::parse(perm->arr[sl].str);
        } catch (const FatalError &) {
            return false;
        }
        if (!getTiles(tiles->arr[sl], c.tiles[sl]))
            return false;
    }
    const JsonValue *par = root.find("par");
    if (!par || !getTiles(*par, c.par))
        return false;

    try {
        k.problem.validate();
    } catch (const FatalError &) {
        return false;
    }
    key = std::move(k);
    config = c;
    return true;
}

bool
refSolutionFromJson(const JsonValue &root, CacheKey &key,
                 CachedSolution &sol, std::int64_t *hits,
                 std::int64_t *seq)
{
    CacheKey k;
    CachedSolution s;
    if (!refRecordPrefixFromJson(root, k, s.config))
        return false;

    const JsonValue *pred = root.find("pred_s");
    if (!pred || pred->type != JsonValue::Type::Number || pred->num < 0)
        return false;
    s.predicted_seconds = pred->num;

    const JsonValue *label = root.find("label");
    if (!label || label->type != JsonValue::Type::String)
        return false;
    s.perm_label = label->str;

    // "hits" is optional telemetry: absent in journals written before
    // the field existed, present after any compaction since.
    std::int64_t entry_hits = 0;
    const JsonValue *hv = root.find("hits");
    if (hv && (!jsonGetInt(root, "hits", entry_hits) || entry_hits < 0))
        return false;

    // "seq" is likewise optional: absent in journals written before
    // the replication sequence existed, and in records that were
    // never journaled.
    std::int64_t entry_seq = 0;
    const JsonValue *qv = root.find("seq");
    if (qv && (!jsonGetInt(root, "seq", entry_seq) || entry_seq < 0))
        return false;

    key = std::move(k);
    sol = std::move(s);
    if (hits)
        *hits = entry_hits;
    if (seq)
        *seq = entry_seq;
    return true;
}

/** The shape of a solve request: the journal's fields, then
 *  validated. */
bool
problemFromJson(const JsonValue &root, ConvProblem &out, std::string *err)
{
    ConvProblem p;
    std::string why;
    if (!refShapeFromJson(root, p, &why)) {
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
fingerprintFromJson(const JsonValue &root, const char *key,
                    std::uint64_t &out, std::string *err)
{
    const JsonValue *v = root.find(key);
    if (!v) {
        out = 0;
        return true;
    }
    if (!v->isString() || !jsonParseHex16(v->str, out)) {
        setError(err, std::string(key) + ": expected 16 hex digits");
        return false;
    }
    return true;
}

bool
solveResultFromJson(const JsonValue &v, RpcSolveResult &out,
                    std::string *err)
{
    std::string cache;
    if (!v.isObject() || !treeGetString(v, "cache", cache) ||
        (cache != "hit" && cache != "miss")) {
        setError(err, "solve result: missing cache provenance");
        return false;
    }
    const JsonValue *rec = v.find("record");
    RpcSolveResult r;
    if (!rec || !refSolutionFromJson(*rec, r.key, r.sol, nullptr, nullptr)) {
        setError(err, "solve result: bad record");
        return false;
    }
    r.cache_hit = cache == "hit";
    out = std::move(r);
    return true;
}

RpcErrorCode
errorCodeFromName(const std::string &name)
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
opFromName(const std::string &name, RpcOp &out)
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

bool
netFail(std::string *err, const std::string &msg)
{
    setError(err, msg);
    return false;
}

/** networkDefFromJson over a JsonValue tree. */
bool
refNetworkDefFromJson(const JsonValue &v, NetworkDef &def,
                      std::string *err)
{
    if (v.type != JsonValue::Type::Object)
        return netFail(err, "network IR: expected a JSON object");
    NetworkDef out;
    const JsonValue *name = v.find("name");
    if (name && name->type == JsonValue::Type::String)
        out.name = name->str;
    const JsonValue *layers = v.find("layers");
    if (!layers || layers->type != JsonValue::Type::Array)
        return netFail(err, "network IR: missing \"layers\" array");
    for (std::size_t i = 0; i < layers->arr.size(); ++i) {
        const JsonValue &jl = layers->arr[i];
        const std::string where =
            "network IR layer " + std::to_string(i);
        if (jl.type != JsonValue::Type::Object)
            return netFail(err, where + ": expected an object");
        LayerDef l;
        const JsonValue *lname = jl.find("name");
        if (lname && lname->type == JsonValue::Type::String)
            l.name = lname->str;
        const JsonValue *kind = jl.find("kind");
        if (kind) {
            if (kind->type != JsonValue::Type::String ||
                !layerKindFromName(kind->str, l.kind))
                return netFail(err, where + ": bad \"kind\"");
        }
        std::int64_t stride = 1, dilation = 1, pad = -1;
        if (!jsonGetInt(jl, "k", l.filters) ||
            !jsonGetInt(jl, "c", l.in_c) ||
            !jsonGetInt(jl, "h", l.in_h) ||
            !jsonGetInt(jl, "w", l.in_w) || !jsonGetInt(jl, "size", l.size))
            return netFail(err, where + ": missing k/c/h/w/size");
        if (jl.find("stride") && !jsonGetInt(jl, "stride", stride))
            return netFail(err, where + ": bad \"stride\"");
        if (jl.find("dilation") && !jsonGetInt(jl, "dilation", dilation))
            return netFail(err, where + ": bad \"dilation\"");
        if (jl.find("groups") && !jsonGetInt(jl, "groups", l.groups))
            return netFail(err, where + ": bad \"groups\"");
        if (jl.find("pad") && !jsonGetInt(jl, "pad", pad))
            return netFail(err, where + ": bad \"pad\"");
        l.stride = static_cast<int>(stride);
        l.dilation = static_cast<int>(dilation);
        l.pad = pad < 0 ? l.samePad() : static_cast<int>(pad);
        out.layers.push_back(l);
    }
    try {
        out.validate();
    } catch (const FatalError &e) {
        return netFail(err, e.what());
    }
    def = std::move(out);
    return true;
}

} // namespace

bool
treeRequestFromJsonLine(const std::string &line, RpcRequest &out,
                    std::string *err)
{
    JsonValue root;
    if (!jsonParse(line, root) || !root.isObject()) {
        setError(err, "request is not a JSON object");
        return false;
    }
    RpcRequest req;
    // Version gate first: a future major version may rename every
    // other field, so nothing else is interpreted until the request
    // is known to speak our dialect. Absent = 1 (pre-versioning
    // clients).
    if (root.find("v") && !jsonGetInt(root, "v", req.v)) {
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
    if (!treeGetString(root, "op", op_name)) {
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
    if (root.find("deadline_ms") &&
        (!jsonGetInt(root, "deadline_ms", req.deadline_ms) ||
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
        const JsonValue *ir = root.find("ir");
        if (ir) {
            if (root.find("net")) {
                setError(err, "solve_network: \"net\" and \"ir\" are "
                              "mutually exclusive");
                return false;
            }
            std::string ir_err;
            if (!refNetworkDefFromJson(*ir, req.ir, &ir_err)) {
                setError(err, "solve_network: bad \"ir\": " + ir_err);
                return false;
            }
            req.has_ir = true;
        } else if (!treeGetString(root, "net", req.net) ||
                   req.net.empty()) {
            setError(err, "solve_network: missing \"net\" or \"ir\"");
            return false;
        }
        if (root.find("batch") &&
            (!jsonGetInt(root, "batch", req.batch) || req.batch < 1)) {
            setError(err, "solve_network: \"batch\" must be a positive "
                          "integer");
            return false;
        }
        break;
    }
    case RpcOp::Replicate: {
        if (root.find("pull")) {
            std::int64_t pull = 0;
            if (!jsonGetInt(root, "pull", pull)) {
                setError(err, "replicate: non-integer \"pull\"");
                return false;
            }
            req.repl_pull = pull != 0;
        }
        if (root.find("digest")) {
            std::int64_t digest = 0;
            if (!jsonGetInt(root, "digest", digest)) {
                setError(err, "replicate: non-integer \"digest\"");
                return false;
            }
            req.repl_digest = digest != 0;
        }
        if (root.find("since") &&
            (!jsonGetInt(root, "since", req.repl_since) ||
             req.repl_since < 0)) {
            setError(err, "replicate: \"since\" must be a non-negative "
                          "integer");
            return false;
        }
        if (root.find("for") &&
            (!jsonGetInt(root, "for", req.repl_for) ||
             req.repl_for < 0)) {
            setError(err, "replicate: \"for\" must be a non-negative "
                          "integer");
            return false;
        }
        const JsonValue *rec = root.find("record");
        if (rec) {
            if (!refSolutionFromJson(*rec, req.repl_record.key,
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

bool
treeResponseFromJsonLine(const std::string &line, RpcResponse &out,
                     std::string *err)
{
    JsonValue root;
    if (!jsonParse(line, root) || !root.isObject()) {
        setError(err, "response is not a JSON object");
        return false;
    }
    const JsonValue *ok = root.find("ok");
    if (!ok || ok->type != JsonValue::Type::Bool) {
        setError(err, "response has no \"ok\"");
        return false;
    }
    RpcResponse resp;
    resp.ok = ok->b;
    if (!resp.ok) {
        treeGetString(root, "error", resp.error);
        if (resp.error.empty())
            resp.error = "unspecified server error";
        std::string code;
        if (treeGetString(root, "code", code))
            resp.code = errorCodeFromName(code);
        out = std::move(resp);
        return true;
    }
    std::string op_name;
    if (!treeGetString(root, "op", op_name) ||
        !opFromName(op_name, resp.op)) {
        setError(err, "response has no valid \"op\"");
        return false;
    }
    switch (resp.op) {
    case RpcOp::Solve: {
        // Same shape as one solve_network layer, flattened.
        if (!solveResultFromJson(root, resp.solve, err))
            return false;
        const JsonValue *s = root.find("solve_s");
        if (!s || !s->isNumber() || s->num < 0) {
            setError(err, "solve: missing solve_s");
            return false;
        }
        resp.solve_seconds = s->num;
        break;
    }
    case RpcOp::SolveNetwork: {
        if (!treeGetString(root, "plan", resp.plan_text) ||
            !jsonGetInt(root, "unique", resp.unique_shapes) ||
            !jsonGetInt(root, "hits", resp.cache_hits) ||
            !jsonGetInt(root, "misses", resp.cache_misses) ||
            !jsonGetInt(root, "evals", resp.solver_evals)) {
            setError(err, "solve_network: missing summary fields");
            return false;
        }
        const JsonValue *s = root.find("solve_s");
        if (!s || !s->isNumber() || s->num < 0) {
            setError(err, "solve_network: missing solve_s");
            return false;
        }
        resp.solve_seconds = s->num;
        const JsonValue *layers = root.find("layers");
        if (!layers || !layers->isArray()) {
            setError(err, "solve_network: missing layers");
            return false;
        }
        resp.layers.reserve(layers->arr.size());
        for (const JsonValue &v : layers->arr) {
            RpcSolveResult r;
            if (!solveResultFromJson(v, r, err))
                return false;
            resp.layers.push_back(std::move(r));
        }
        break;
    }
    case RpcOp::Stats: {
        if (!fingerprintFromJson(root, "machine", resp.machine_fp,
                                 err) ||
            !fingerprintFromJson(root, "settings", resp.settings_fp, err))
            return false;
        treeGetString(root, "machine_name", resp.machine_name);
        std::int64_t shards = 0;
        if (!jsonGetInt(root, "entries", resp.entries) ||
            !jsonGetInt(root, "shards", shards) ||
            !jsonGetInt(root, "lookups_hit", resp.cache.hits) ||
            !jsonGetInt(root, "lookups_miss", resp.cache.misses) ||
            !jsonGetInt(root, "inserts", resp.cache.inserts) ||
            !jsonGetInt(root, "evictions", resp.cache.evictions) ||
            !jsonGetInt(root, "journal_loaded",
                        resp.cache.journal_loaded) ||
            !jsonGetInt(root, "journal_skipped",
                        resp.cache.journal_skipped)) {
            setError(err, "stats: missing counter fields");
            return false;
        }
        resp.shards = static_cast<int>(shards);
        // Scheduler and admission counters are optional: an older
        // server simply doesn't send them, and 0 is the honest
        // reading.
        for (const auto &[key, dst] :
             {std::pair<const char *, std::int64_t *>{
                  "sched_solves", &resp.sched_solves},
              {"sched_coalesced", &resp.sched_coalesced},
              {"sched_inflight", &resp.sched_inflight},
              {"sched_peak", &resp.sched_peak},
              {"sched_budget", &resp.sched_budget},
              {"srv_shed_overload", &resp.srv_shed_overload},
              {"srv_shed_client", &resp.srv_shed_client},
              {"srv_shed_deadline", &resp.srv_shed_deadline},
              {"calib_samples", &resp.calib_samples},
              {"calib_active", &resp.calib_active},
              {"srv_repl_pushed", &resp.srv_repl_pushed},
              {"srv_repl_push_failed", &resp.srv_repl_push_failed},
              {"srv_repl_applied", &resp.srv_repl_applied},
              {"srv_repl_prefetched", &resp.srv_repl_prefetched},
              {"repl_queue_depth", &resp.repl_queue_depth},
              {"journal_seq", &resp.journal_seq}}) {
            if (root.find(key) && !jsonGetInt(root, key, *dst)) {
                setError(err, std::string("stats: bad ") + key);
                return false;
            }
        }
        const JsonValue *eh = root.find("entry_hits");
        if (!eh || !eh->isArray()) {
            setError(err, "stats: missing entry_hits");
            return false;
        }
        for (const JsonValue &v : eh->arr) {
            RpcEntryHits row;
            if (!v.isObject() || !treeGetString(v, "key", row.key) ||
                !jsonGetInt(v, "hits", row.hits)) {
                setError(err, "stats: bad entry_hits row");
                return false;
            }
            resp.entry_hits.push_back(std::move(row));
        }
        break;
    }
    case RpcOp::Replicate: {
        const JsonValue *recs = root.find("records");
        const JsonValue *fp = root.find("fp");
        if (fp) {
            if (!fp->isString() ||
                !jsonParseHex16(fp->str, resp.repl_digest_fp) ||
                !jsonGetInt(root, "count", resp.repl_digest_count) ||
                resp.repl_digest_count < 0) {
                setError(err, "replicate: bad digest");
                return false;
            }
            resp.repl_has_digest = true;
        } else if (recs) {
            if (!recs->isArray()) {
                setError(err, "replicate: bad records");
                return false;
            }
            resp.repl_is_pull = true;
            resp.repl_records.reserve(recs->arr.size());
            for (const JsonValue &v : recs->arr) {
                SolutionCacheRecord r;
                if (!refSolutionFromJson(v, r.key, r.sol, nullptr,
                                      &r.seq)) {
                    setError(err, "replicate: bad record in records");
                    return false;
                }
                resp.repl_records.push_back(std::move(r));
            }
        } else if (root.find("applied") &&
                   !jsonGetInt(root, "applied", resp.repl_applied)) {
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

bool
treeSolutionFromJsonLine(const std::string &line, CacheKey &key,
                         CachedSolution &sol, std::int64_t *hits,
                         std::int64_t *seq)
{
    JsonValue root;
    if (!jsonParse(line, root))
        return false;
    return refSolutionFromJson(root, key, sol, hits, seq);
}

bool
treeTuneSampleFromJsonLine(const std::string &line, TuneSample &s)
{
    JsonValue root;
    TuneSample t;
    if (!jsonParse(line, root) ||
        !refRecordPrefixFromJson(root, t.key, t.config))
        return false;

    const auto nonNegative = [&root](const char *key, double &out) {
        const JsonValue *v = root.find(key);
        if (!v || v->type != JsonValue::Type::Number || v->num < 0)
            return false;
        out = v->num;
        return true;
    };
    if (!nonNegative("measured_s", t.measured_seconds) ||
        !nonNegative("pred_s", t.predicted_seconds) ||
        !nonNegative("pred_compute_s", t.pred_compute_seconds))
        return false;
    const JsonValue *lvl = root.find("pred_level_s");
    if (!lvl || lvl->type != JsonValue::Type::Array ||
        lvl->arr.size() != static_cast<std::size_t>(NumMemLevels))
        return false;
    for (int l = 0; l < NumMemLevels; ++l) {
        const JsonValue &v = lvl->arr[static_cast<std::size_t>(l)];
        if (v.type != JsonValue::Type::Number || v.num < 0)
            return false;
        t.pred_level_seconds[static_cast<std::size_t>(l)] = v.num;
    }

    const JsonValue *runner = root.find("runner");
    if (!runner || runner->type != JsonValue::Type::String)
        return false;
    t.runner = runner->str;

    s = std::move(t);
    return true;
}

} // namespace mopt
