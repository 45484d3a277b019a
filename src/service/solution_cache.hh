/**
 * @file
 * Thread-safe, sharded LRU cache of optimizer solutions, keyed by
 * CacheKey, with optional JSON-lines persistence.
 *
 * Concurrency: the key hash selects one of N shards (a power of two);
 * each shard owns its own mutex, LRU list, and an index from CacheKey
 * to the entry's list node (the same list+map idiom as the cache
 * *simulator* in src/cachesim/lru_cache.hh, which models a hardware
 * cache and is unrelated to this service-level store). Lookups and inserts on different shards never contend;
 * capacity is enforced per shard (total capacity / shards), so an
 * insert takes one shard lock (plus the journal mutex, outside any
 * shard lock, when persistence is on); statistics are relaxed
 * atomics.
 *
 * Persistence: when a journal path is configured, the cache loads the
 * journal on open (replaying inserts in order, so the newest entries
 * are the most-recently-used) and appends one JSON line per insert.
 * Lines that fail to parse — a torn final line after a crash, or
 * hand-edited garbage — are skipped with a warning, never fatal. The
 * journal is compacted (rewritten with only the live entries, in LRU
 * order) when its line count exceeds twice the live entry count plus
 * 16, and can be compacted explicitly.
 *
 * One writing process per journal: thread-safety covers threads
 * inside one process. Concurrent *processes* appending the same
 * journal file are not coordinated — a compaction in one process
 * renames the file out from under the others' append streams, losing
 * their inserts. Share a journal across machines by copying the file,
 * not by concurrent mutation.
 */

#ifndef MOPT_SERVICE_SOLUTION_CACHE_HH
#define MOPT_SERVICE_SOLUTION_CACHE_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "model/tile_config.hh"
#include "service/cache_key.hh"

namespace mopt {

/** The winning configuration of one solve, as stored in the cache. */
struct CachedSolution
{
    ExecConfig config;             //!< Integerized, load-balanced tiling.
    double predicted_seconds = 0;  //!< Model-predicted execution time.
    std::string perm_label;        //!< Pruned-class names per level.

    bool operator==(const CachedSolution &o) const = default;
};

/** Construction-time options of a SolutionCache. */
struct SolutionCacheOptions
{
    /** Total entry capacity across all shards. */
    std::size_t capacity = 4096;

    /** Shard count; rounded up to a power of two, then halved while
     *  it exceeds capacity (so every shard holds >= 1 entry and the
     *  count stays maskable). */
    int shards = 8;

    /** Journal file path; empty = in-memory only. */
    std::string journal_path;
};

/** One exported live entry: key, solution, and the journal sequence
 *  it was inserted under (0 for entries from pre-sequence journals). */
struct SolutionCacheRecord
{
    CacheKey key;
    CachedSolution sol;
    std::int64_t seq = 0;
};

/** Monotonic operation counters (snapshot via stats()). */
struct SolutionCacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t evictions = 0;
    std::int64_t journal_loaded = 0;  //!< Entries replayed on open.
    std::int64_t journal_skipped = 0; //!< Corrupt lines ignored on open.
};

/**
 * Per-entry telemetry (snapshot via entryStats()): how often each
 * live entry has been served since it was inserted (hit counts
 * survive journal round-trips, so a warm fleet can shed entries that
 * no longer earn their keep).
 */
struct SolutionCacheEntryStats
{
    CacheKey key;
    std::int64_t hits = 0; //!< lookup() hits on this entry.
};

/**
 * Sharded LRU solution cache. All public member functions are safe to
 * call concurrently from any number of threads.
 */
class SolutionCache
{
  public:
    explicit SolutionCache(SolutionCacheOptions opts = {});

    /** Inserts are journaled eagerly, so no data flush is needed;
     *  compacts the journal when it exceeds the compaction threshold
     *  or when any entry's hit counter changed (hit counts reach the
     *  file only through compaction). */
    ~SolutionCache();

    SolutionCache(const SolutionCache &) = delete;
    SolutionCache &operator=(const SolutionCache &) = delete;

    /**
     * Look up @p key; on hit, promote the entry to most-recently-used,
     * copy the solution into @p out (when non-null) and return true.
     */
    bool lookup(const CacheKey &key, CachedSolution *out);

    /**
     * Insert (or overwrite) the solution for @p key, evicting the
     * shard's least-recently-used entry when the shard is full. When a
     * journal is configured the entry is appended before the call
     * returns. Returns the journal sequence number assigned to the
     * insert (the node's high-water mark after it).
     */
    std::int64_t insert(const CacheKey &key, const CachedSolution &sol);

    /**
     * Insert an entry received from a *peer* (replication push,
     * prefetch, or anti-entropy pull), preserving the sequence number
     * it carries instead of assigning a fresh one. The node's
     * high-water mark absorbs @p seq Lamport-style (max), so sequence
     * numbers a node assigns after hearing from a peer always exceed
     * everything it has already seen — which is what makes the
     * `since` delta cursor effective across nodes.
     */
    void applyReplica(const CacheKey &key, const CachedSolution &sol,
                      std::int64_t seq);

    /** The node's journal high-water sequence: the largest sequence
     *  assigned locally or absorbed from a peer (0 = nothing yet). */
    std::int64_t journalSeq() const
    {
        return journal_seq_.load(std::memory_order_relaxed);
    }

    /** Live entries across all shards. */
    std::size_t size() const;

    /** Actual shard count (power of two). */
    int shardCount() const
    {
        return static_cast<int>(shards_.size());
    }

    /** Shard index of @p key (exposed for shard-independence tests). */
    int shardOf(const CacheKey &key) const;

    /** Snapshot of the operation counters. */
    SolutionCacheStats stats() const;

    /**
     * Snapshot of every live entry's key and hit count, most recently
     * used first within each shard, shards in index order. O(entries);
     * takes each shard lock once.
     */
    std::vector<SolutionCacheEntryStats> entryStats() const;

    /**
     * Snapshot of every live entry (key, solution, sequence) whose
     * sequence exceeds @p since, same traversal order as entryStats.
     * The default (-1) exports everything, including pre-sequence
     * entries carrying seq 0. Feeds warm-entry replication: a joining
     * peer pulls this — with its own high-water mark as the cursor —
     * and inserts what it is missing.
     */
    std::vector<SolutionCacheRecord>
    exportEntries(std::int64_t since = -1) const;

    /** lookup() without the hit accounting or LRU touch: true when
     *  @p key is present. Lets the replication path answer "do I
     *  already hold this?" without skewing telemetry. */
    bool contains(const CacheKey &key) const;

    /**
     * Rewrite the journal with exactly the live entries, least recent
     * first (so a reload reproduces the LRU order). No-op without a
     * journal.
     *
     * Telemetry-driven shedding: when the cache is capacity-limited
     * (live entries at the configured capacity), compaction drops
     * entries whose hit counter is still zero *and* that have already
     * survived a previous compaction — they had a full compaction
     * cycle to be served and never were, so under pressure the slots
     * and the journal go to entries that earn their keep. Entries
     * inserted since the last compaction are exempt (a cold burst's
     * fresh solutions must not be thrashed away by the compaction its
     * own inserts trigger). Shed entries count as evictions. An
     * unpressured cache never sheds, and the journal format is
     * unchanged either way.
     */
    void compact();

  private:
    struct Entry
    {
        CacheKey key;
        CachedSolution sol;
        std::int64_t hits = 0; //!< lookup() hits on this entry.
        std::int64_t seq = 0;  //!< Journal sequence (0 = pre-sequence).

        /** Value of compact_epoch_ when the entry was inserted; an
         *  entry is "young" (exempt from zero-hit shedding) until a
         *  compaction has passed since. */
        std::int64_t epoch = 0;
    };

    /** One lock's share of the cache. The index is keyed by CacheKey
     *  itself (std::hash<CacheKey>), so a lookup is one find with no
     *  collision chain to walk. */
    struct Shard
    {
        mutable std::mutex mu;
        std::list<Entry> lru; //!< Front = most recently used.
        std::unordered_map<CacheKey, std::list<Entry>::iterator>
            map; //!< Key -> its node in lru.
    };

    /** Insert into the in-memory structure only; returns false when
     *  @p key was already present (value overwritten, no journal
     *  append needed by the loader). @p hits seeds the entry's hit
     *  counter (journal replay restores the persisted count) and
     *  @p seq its journal sequence (an overwrite keeps the larger). */
    bool insertInMemory(const CacheKey &key, const CachedSolution &sol,
                        std::int64_t hits = 0, std::int64_t seq = 0);

    void loadJournal();
    void appendJournalLine(const Entry &e);
    bool journalNeedsCompaction() const;

    SolutionCacheOptions opts_;
    std::size_t per_shard_capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Operation counters and the live-entry count are atomics so the
     *  hot lookup/insert path touches only its shard's mutex. */
    std::atomic<std::int64_t> hits_{0};
    std::atomic<std::int64_t> misses_{0};
    std::atomic<std::int64_t> inserts_{0};
    std::atomic<std::int64_t> evictions_{0};
    std::atomic<std::int64_t> live_{0};
    std::int64_t journal_loaded_ = 0;  //!< Written only during open.
    std::int64_t journal_skipped_ = 0; //!< Written only during open.

    mutable std::mutex journal_mu_;
    std::ofstream journal_;
    std::atomic<std::int64_t> journal_lines_{0}; //!< Lines in the file.

    /** Bumped at each compact(); see Entry::epoch. */
    std::atomic<std::int64_t> compact_epoch_{0};

    /** Journal high-water sequence; see journalSeq(). */
    std::atomic<std::int64_t> journal_seq_{0};
};

/**
 * Append the nine shape members of @p p as JSON fields, each with a
 * leading comma (`,"n":1,"k":64,...,"dilation":1`), plus `"groups"`
 * when it is not 1. The journal record and the solve request share
 * this encoding.
 */
void shapeAppendJson(std::string &out, const ConvProblem &p);

/**
 * Read the members shapeAppendJson writes from object @p root (an
 * absent "groups" is 1). False + @p err on a missing or non-integer
 * member, leaving @p out untouched. Does not validate the shape.
 */
bool shapeFromJson(JsonView root, ConvProblem &out, std::string *err);

/**
 * Append the prefix every journal record starts with: `{"v":1`, the
 * shape (shapeAppendJson), then "machine" and "settings" from @p key
 * and "perm", "tiles" and "par" from @p config. The object is left
 * open for the record's own fields. Solution records and calibration
 * samples (autotune/calibration.hh) share this encoding.
 */
void recordPrefixAppendJson(std::string &out, const CacheKey &key,
                            const ExecConfig &config);

/**
 * Read the prefix recordPrefixAppendJson writes from @p root and
 * validate the shape. False on a non-object, a version other than 1,
 * or any missing, mistyped or invalid field, leaving the outputs
 * untouched.
 */
bool recordPrefixFromJson(JsonView root, CacheKey &key,
                          ExecConfig &config);

/**
 * Serialize one (key, solution) pair as a single JSON line. @p hits
 * > 0 adds a "hits" telemetry field and @p seq > 0 a "seq" journal-
 * sequence field (absent fields read back as 0, so journals written
 * before either field existed stay loadable). This is also the RPC
 * wire encoding of a solution record (src/rpc/).
 */
std::string solutionToJsonLine(const CacheKey &key,
                               const CachedSolution &sol,
                               std::int64_t hits = 0,
                               std::int64_t seq = 0);

/** Append solutionToJsonLine(@p key, @p sol, @p hits, @p seq) to
 *  @p out (the RPC encoder embeds records without a copy). */
void solutionAppendJson(std::string &out, const CacheKey &key,
                        const CachedSolution &sol, std::int64_t hits = 0,
                        std::int64_t seq = 0);

/**
 * Parse a journal line produced by solutionToJsonLine. Returns false
 * (leaving outputs untouched) on malformed input of any kind.
 * @p hits / @p seq, when non-null, receive the entry's persisted hit
 * count and journal sequence (0 when the field is absent).
 */
bool solutionFromJsonLine(const std::string &line, CacheKey &key,
                          CachedSolution &sol,
                          std::int64_t *hits = nullptr,
                          std::int64_t *seq = nullptr);

/**
 * Read a record in the journal's format from an already-read value
 * (the RPC protocol embeds records as nested objects). Same contract
 * as solutionFromJsonLine.
 */
bool solutionFromJson(JsonView root, CacheKey &key, CachedSolution &sol,
                      std::int64_t *hits = nullptr,
                      std::int64_t *seq = nullptr);

} // namespace mopt

#endif // MOPT_SERVICE_SOLUTION_CACHE_HH
