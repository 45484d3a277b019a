#include "service/solution_cache.hh"

#include <algorithm>
#include <bit>

#include "common/journal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

namespace {

/** Exactly NumDims whole numbers in [1, 1e15]. */
bool
getTiles(JsonView arr, IntTileVec &out)
{
    std::size_t d = 0;
    for (const JsonView v : arr) {
        if (d == out.size() || !v.getInt(out[d]) || out[d] < 1)
            return false;
        ++d;
    }
    return d == out.size();
}

void
appendTiles(std::string &out, const IntTileVec &t)
{
    for (int d = 0; d < NumDims; ++d)
        appendInt(out, d ? "," : "[", t[static_cast<std::size_t>(d)]);
    out += ']';
}

} // namespace

void
shapeAppendJson(std::string &out, const ConvProblem &p)
{
    appendInt(out, ",\"n\":", p.n);
    appendInt(out, ",\"k\":", p.k);
    appendInt(out, ",\"c\":", p.c);
    appendInt(out, ",\"r\":", p.r);
    appendInt(out, ",\"s\":", p.s);
    appendInt(out, ",\"h\":", p.h);
    appendInt(out, ",\"w\":", p.w);
    appendInt(out, ",\"stride\":", p.stride);
    appendInt(out, ",\"dilation\":", p.dilation);
    // Written only when != 1 so dense-conv lines stay byte-identical
    // to the pre-groups format; absent parses as 1.
    if (p.groups != 1)
        appendInt(out, ",\"groups\":", p.groups);
}

bool
shapeFromJson(JsonView root, ConvProblem &out, std::string *err)
{
    ConvProblem p;
    std::int64_t stride = 0, dilation = 0;
    if (!root.find("n").getInt(p.n) || !root.find("k").getInt(p.k) ||
        !root.find("c").getInt(p.c) || !root.find("r").getInt(p.r) ||
        !root.find("s").getInt(p.s) || !root.find("h").getInt(p.h) ||
        !root.find("w").getInt(p.w) ||
        !root.find("stride").getInt(stride) ||
        !root.find("dilation").getInt(dilation)) {
        if (err)
            *err = "missing or non-integer shape field";
        return false;
    }
    p.stride = static_cast<int>(stride);
    p.dilation = static_cast<int>(dilation);
    const JsonView groups = root.find("groups");
    if (groups && !groups.getInt(p.groups)) {
        if (err)
            *err = "non-integer \"groups\"";
        return false;
    }
    out = std::move(p);
    return true;
}

std::string
solutionToJsonLine(const CacheKey &key, const CachedSolution &sol,
                   std::int64_t hits, std::int64_t seq)
{
    std::string out;
    out.reserve(512); // Room for one record.
    solutionAppendJson(out, key, sol, hits, seq);
    return out;
}

void
recordPrefixAppendJson(std::string &out, const CacheKey &key,
                       const ExecConfig &config)
{
    out += "{\"v\":1";
    shapeAppendJson(out, key.problem);
    out += ",\"machine\":\"";
    jsonAppendHex16(out, key.machine_fp);
    out += "\",\"settings\":\"";
    jsonAppendHex16(out, key.settings_fp);
    out += "\",\"perm\":[";
    for (int l = 0; l < NumMemLevels; ++l) {
        out += l ? ",\"" : "\"";
        out += config.perm[static_cast<std::size_t>(l)].str();
        out += '"';
    }
    out += "],\"tiles\":[";
    for (int l = 0; l < NumMemLevels; ++l) {
        if (l)
            out += ',';
        appendTiles(out, config.tiles[static_cast<std::size_t>(l)]);
    }
    out += "],\"par\":";
    appendTiles(out, config.par);
}

bool
recordPrefixFromJson(JsonView root, CacheKey &key, ExecConfig &config)
{
    std::int64_t version = 0;
    if (!root.find("v").getInt(version) || version != 1)
        return false;

    CacheKey k;
    if (!shapeFromJson(root, k.problem, nullptr))
        return false;

    std::string scratch;
    if (!jsonParseHex16(root.find("machine").strView(scratch),
                        k.machine_fp) ||
        !jsonParseHex16(root.find("settings").strView(scratch),
                        k.settings_fp))
        return false;

    ExecConfig c;
    const JsonView perm = root.find("perm");
    const JsonView tiles = root.find("tiles");
    if (perm.size() != static_cast<std::size_t>(NumMemLevels) ||
        tiles.size() != static_cast<std::size_t>(NumMemLevels))
        return false;
    auto level_tiles = tiles.begin();
    std::size_t l = 0;
    for (const JsonView p : perm) {
        if (!p.isString())
            return false;
        try {
            c.perm[l] = Permutation::parse(p.strView(scratch));
        } catch (const FatalError &) {
            return false;
        }
        if (!getTiles(*level_tiles, c.tiles[l]))
            return false;
        ++level_tiles;
        ++l;
    }
    if (!getTiles(root.find("par"), c.par))
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

void
solutionAppendJson(std::string &out, const CacheKey &key,
                   const CachedSolution &sol, std::int64_t hits,
                   std::int64_t seq)
{
    recordPrefixAppendJson(out, key, sol.config);
    out += ",\"pred_s\":";
    jsonAppendDouble(out, sol.predicted_seconds);
    out += ",\"label\":\"";
    jsonAppendEscaped(out, sol.perm_label);
    out += '"';
    if (hits > 0)
        appendInt(out, ",\"hits\":", hits);
    if (seq > 0)
        appendInt(out, ",\"seq\":", seq);
    out += '}';
}

bool
solutionFromJsonLine(const std::string &line, CacheKey &key,
                     CachedSolution &sol, std::int64_t *hits,
                     std::int64_t *seq)
{
    JsonReader reader;
    return reader.read(line) &&
           solutionFromJson(reader.root(), key, sol, hits, seq);
}

bool
solutionFromJson(JsonView root, CacheKey &key, CachedSolution &sol,
                 std::int64_t *hits, std::int64_t *seq)
{
    CacheKey k;
    CachedSolution s;
    if (!recordPrefixFromJson(root, k, s.config))
        return false;

    const JsonView pred = root.find("pred_s");
    if (!pred.isNumber() || pred.num() < 0)
        return false;
    s.predicted_seconds = pred.num();

    if (!root.find("label").getString(s.perm_label))
        return false;

    // "hits" is optional telemetry: absent in journals written before
    // the field existed, present after any compaction since.
    std::int64_t entry_hits = 0;
    const JsonView hv = root.find("hits");
    if (hv && (!hv.getInt(entry_hits) || entry_hits < 0))
        return false;

    // "seq" is likewise optional: absent in journals written before
    // the replication sequence existed, and in records that were
    // never journaled.
    std::int64_t entry_seq = 0;
    const JsonView qv = root.find("seq");
    if (qv && (!qv.getInt(entry_seq) || entry_seq < 0))
        return false;

    key = std::move(k);
    sol = std::move(s);
    if (hits)
        *hits = entry_hits;
    if (seq)
        *seq = entry_seq;
    return true;
}

SolutionCache::SolutionCache(SolutionCacheOptions opts)
    : opts_(std::move(opts))
{
    opts_.capacity = std::max<std::size_t>(1, opts_.capacity);
    // Power of two so shardOf can mask; halved (staying a power of
    // two) until every shard holds at least one entry.
    std::size_t shards =
        std::bit_ceil(static_cast<std::size_t>(std::max(1, opts_.shards)));
    while (shards > opts_.capacity)
        shards >>= 1;
    per_shard_capacity_ = std::max<std::size_t>(1, opts_.capacity / shards);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    if (!opts_.journal_path.empty())
        loadJournal();
}

SolutionCache::~SolutionCache()
{
    // Compact on the way out when the journal is oversized — or when
    // any lookup hit an entry, because per-entry hit counters reach
    // the file only through compaction and a warm, insert-free run
    // (the steady state of a serving fleet) would otherwise lose its
    // telemetry on every clean shutdown.
    if (journal_.is_open() &&
        (journalNeedsCompaction() ||
         hits_.load(std::memory_order_relaxed) > 0))
        compact();
}

int
SolutionCache::shardOf(const CacheKey &key) const
{
    // shards_.size() is a power of two; the low hash bits pick a shard
    // and the full hash indexes the shard's map.
    return static_cast<int>(key.hash() &
                            (shards_.size() - 1));
}

bool
SolutionCache::lookup(const CacheKey &key, CachedSolution *out)
{
    Shard &sh = *shards_[static_cast<std::size_t>(shardOf(key))];
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(sh.mu);
        const auto it = sh.map.find(key);
        if (it != sh.map.end()) {
            sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
            ++it->second->hits;
            if (out)
                *out = it->second->sol;
            hit = true;
        }
    }
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
}

bool
SolutionCache::insertInMemory(const CacheKey &key, const CachedSolution &sol,
                              std::int64_t hits, std::int64_t seq)
{
    Shard &sh = *shards_[static_cast<std::size_t>(shardOf(key))];
    std::lock_guard<std::mutex> lock(sh.mu);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    const auto [it, fresh] = sh.map.try_emplace(key);
    if (!fresh) {
        Entry &e = *it->second;
        e.sol = sol;
        // Hit counts only grow, so max() both preserves a live entry's
        // count across a re-insert and takes the newest count when
        // journal replay sees the same key twice.
        e.hits = std::max(e.hits, hits);
        e.seq = std::max(e.seq, seq);
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        return false;
    }
    sh.lru.push_front(Entry{key, sol, hits, seq,
                            compact_epoch_.load(std::memory_order_relaxed)});
    it->second = sh.lru.begin();
    if (sh.lru.size() > per_shard_capacity_) {
        checkInvariant(sh.map.erase(sh.lru.back().key) == 1,
                       "SolutionCache: victim missing from map");
        sh.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
        live_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

std::int64_t
SolutionCache::insert(const CacheKey &key, const CachedSolution &sol)
{
    const std::int64_t seq =
        journal_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    // The high-water mark already covers seq, so applyReplica's absorb
    // leaves it be and only stores and journals the entry.
    applyReplica(key, sol, seq);
    return seq;
}

void
SolutionCache::applyReplica(const CacheKey &key, const CachedSolution &sol,
                            std::int64_t seq)
{
    // Lamport absorb: after seeing a peer's sequence, everything this
    // node assigns is larger, keeping the fleet's `since` cursors
    // loosely comparable across origins.
    std::int64_t hw = journal_seq_.load(std::memory_order_relaxed);
    while (seq > hw &&
           !journal_seq_.compare_exchange_weak(hw, seq,
                                               std::memory_order_relaxed))
        ;
    insertInMemory(key, sol, 0, seq);
    if (!opts_.journal_path.empty()) {
        appendJournalLine(Entry{key, sol, 0, seq});
        if (journalNeedsCompaction())
            compact();
    }
}

std::size_t
SolutionCache::size() const
{
    std::size_t n = 0;
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        n += sh->lru.size();
    }
    return n;
}

SolutionCacheStats
SolutionCache::stats() const
{
    SolutionCacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.inserts = inserts_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.journal_loaded = journal_loaded_;
    st.journal_skipped = journal_skipped_;
    return st;
}

std::vector<SolutionCacheEntryStats>
SolutionCache::entryStats() const
{
    std::vector<SolutionCacheEntryStats> out;
    out.reserve(static_cast<std::size_t>(
        std::max<std::int64_t>(0, live_.load(std::memory_order_relaxed))));
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        for (const Entry &e : sh->lru)
            out.push_back(SolutionCacheEntryStats{e.key, e.hits});
    }
    return out;
}

std::vector<SolutionCacheRecord>
SolutionCache::exportEntries(std::int64_t since) const
{
    std::vector<SolutionCacheRecord> out;
    out.reserve(static_cast<std::size_t>(
        std::max<std::int64_t>(0, live_.load(std::memory_order_relaxed))));
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mu);
        for (const Entry &e : sh->lru)
            if (e.seq > since)
                out.push_back(SolutionCacheRecord{e.key, e.sol, e.seq});
    }
    return out;
}

bool
SolutionCache::contains(const CacheKey &key) const
{
    const Shard &sh = *shards_[static_cast<std::size_t>(shardOf(key))];
    std::lock_guard<std::mutex> lock(sh.mu);
    return sh.map.contains(key);
}

void
SolutionCache::loadJournal()
{
    const std::int64_t evictions_before =
        evictions_.load(std::memory_order_relaxed);
    JournalLoad counts;
    {
        std::lock_guard<std::mutex> lock(journal_mu_);
        counts = journalLoad(
            opts_.journal_path, "SolutionCache",
            [this](const std::string &line) {
                CacheKey key;
                CachedSolution sol;
                std::int64_t entry_hits = 0;
                std::int64_t entry_seq = 0;
                if (!solutionFromJsonLine(line, key, sol, &entry_hits,
                                          &entry_seq))
                    return false;
                insertInMemory(key, sol, entry_hits, entry_seq);
                if (entry_seq >
                    journal_seq_.load(std::memory_order_relaxed))
                    journal_seq_.store(entry_seq,
                                       std::memory_order_relaxed);
                return true;
            },
            journal_);
        journal_lines_ = counts.loaded + counts.skipped;
    }
    journal_loaded_ += counts.loaded;
    journal_skipped_ += counts.skipped;
    // Replay is bookkeeping, not traffic: only live lookup/insert
    // calls should show up in the insert/eviction counters.
    inserts_.fetch_sub(counts.loaded, std::memory_order_relaxed);
    evictions_.store(evictions_before, std::memory_order_relaxed);
    if (counts.skipped > 0 || journalNeedsCompaction())
        compact();
}

void
SolutionCache::appendJournalLine(const Entry &e)
{
    std::lock_guard<std::mutex> lock(journal_mu_);
    if (journalAppend(journal_, solutionToJsonLine(e.key, e.sol, 0, e.seq)))
        ++journal_lines_;
}

bool
SolutionCache::journalNeedsCompaction() const
{
    if (opts_.journal_path.empty())
        return false;
    const auto lines = static_cast<double>(
        journal_lines_.load(std::memory_order_relaxed));
    const auto live = static_cast<double>(
        live_.load(std::memory_order_relaxed));
    return lines > 2.0 * live + 16.0;
}

void
SolutionCache::compact()
{
    if (opts_.journal_path.empty())
        return;
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    std::int64_t written = 0;
    std::int64_t shed_count = 0;
    // Telemetry-driven shedding: a *capacity-limited* cache (at its
    // entry budget, so every insert is about to evict something)
    // drops never-hit entries at compaction, keeping the slots — and
    // the journal — for entries that earn their keep. An unpressured
    // cache keeps everything, and entries inserted since the previous
    // compaction (epoch == the current one) are exempt either way: a
    // cold burst's fresh solutions must not be thrashed away by the
    // very compaction their inserts trigger. The epoch bump below
    // starts the next cycle, so this run's survivors become
    // sheddable the next time pressure persists.
    const bool shed = static_cast<std::size_t>(std::max<std::int64_t>(
                          0, live_.load(std::memory_order_relaxed))) >=
                      opts_.capacity;
    const std::int64_t epoch =
        compact_epoch_.fetch_add(1, std::memory_order_relaxed);
    const bool renamed = journalRewrite(
        opts_.journal_path, "SolutionCache",
        [&](std::ostream &out) {
            for (const auto &sh : shards_) {
                std::lock_guard<std::mutex> lock(sh->mu);
                // Least recent first, so replay restores the LRU order.
                for (auto it = sh->lru.end(); it != sh->lru.begin();) {
                    --it;
                    if (shed && it->hits == 0 && it->epoch < epoch) {
                        checkInvariant(sh->map.erase(it->key) == 1,
                                       "SolutionCache: shed victim "
                                       "missing from map");
                        it = sh->lru.erase(it);
                        ++shed_count;
                        continue;
                    }
                    out << solutionToJsonLine(it->key, it->sol, it->hits,
                                              it->seq)
                        << "\n";
                    ++written;
                }
            }
        },
        journal_);
    if (shed_count > 0) {
        live_.fetch_sub(shed_count, std::memory_order_relaxed);
        evictions_.fetch_add(shed_count, std::memory_order_relaxed);
    }
    if (renamed)
        journal_lines_ = written;
}

} // namespace mopt
