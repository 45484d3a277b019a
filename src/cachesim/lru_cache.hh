/**
 * @file
 * Fully-associative LRU cache simulator with configurable line size —
 * exactly the idealized cache the paper's analytical model assumes
 * (Sec. 2.2). Used to validate the model against "hardware counter"
 * style per-level miss counts (Sec. 9 reproduction).
 */

#ifndef MOPT_CACHESIM_LRU_CACHE_HH
#define MOPT_CACHESIM_LRU_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace mopt {

/** Outcome of a single cache access. */
enum class AccessResult { Hit, Miss };

/**
 * Fully associative LRU cache. Addresses are word indices; lines hold
 * line_words consecutive words. Write-back, write-allocate: a dirty
 * line evicted (or flushed) counts one writeback.
 */
class LruCache
{
  public:
    /**
     * @param capacity_words  total capacity in words (>= line_words)
     * @param line_words      line size in words (1 = the paper's
     *                        unit-line model)
     */
    LruCache(std::int64_t capacity_words, std::int64_t line_words = 1);

    /**
     * Access one word; promotes/fills its line. If a dirty line is
     * evicted to make room and @p dirty_victim_word is non-null, the
     * victim's first-word address is stored there (-1 otherwise) so
     * the caller can cascade the writeback into the next outer level.
     */
    AccessResult access(std::int64_t word_addr, bool is_write,
                        std::int64_t *dirty_victim_word = nullptr);

    /**
     * Land a writeback arriving from the inner level: mark the line
     * dirty if resident, else allocate it dirty. Does not count as a
     * demand access or miss (the data comes from below, not from the
     * outer level). Returns the evicted dirty victim's first-word
     * address, or -1 when nothing dirty was displaced.
     */
    std::int64_t installWriteback(std::int64_t word_addr);

    /** Evict everything, counting dirty writebacks. */
    void flush();

    /**
     * Flush, appending the first-word address of every dirty line to
     * @p dirty_words (in LRU order) so the hierarchy can cascade them
     * into the next outer level. Writebacks are counted as in flush().
     */
    void flush(std::vector<std::int64_t> &dirty_words);

    std::int64_t hits() const { return hits_; }
    std::int64_t misses() const { return misses_; }
    std::int64_t writebacks() const { return writebacks_; }
    std::int64_t accesses() const { return hits_ + misses_; }

    /** Current number of resident lines. */
    std::int64_t residentLines() const
    {
        return static_cast<std::int64_t>(map_.size());
    }

    std::int64_t capacityLines() const { return capacity_lines_; }
    std::int64_t lineWords() const { return line_words_; }

  private:
    struct Line
    {
        std::int64_t tag;
        bool dirty;
    };

    std::int64_t capacity_lines_;
    std::int64_t line_words_;
    std::list<Line> lru_; //!< Front = most recent.
    std::unordered_map<std::int64_t, std::list<Line>::iterator> map_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t writebacks_ = 0;
};

} // namespace mopt

#endif // MOPT_CACHESIM_LRU_CACHE_HH
