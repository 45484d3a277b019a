/**
 * @file
 * A multi-level cache hierarchy of fully-associative LRU caches.
 * Accesses hit the innermost cache first and cascade outward on
 * misses. Per-level traffic (misses + writebacks) is the simulated
 * counterpart of the model's DV_l data volumes.
 */

#ifndef MOPT_CACHESIM_HIERARCHY_HH
#define MOPT_CACHESIM_HIERARCHY_HH

#include <string>
#include <vector>

#include "cachesim/lru_cache.hh"

namespace mopt {

/** Per-level traffic summary. */
struct LevelTraffic
{
    std::int64_t accesses = 0;   //!< References arriving at this level.
    std::int64_t misses = 0;     //!< Fills from the next outer level.
    std::int64_t writebacks = 0; //!< Dirty evictions to the outer level.

    /** Total words crossing the boundary to the outer level. */
    std::int64_t trafficWords(std::int64_t line_words) const
    {
        return (misses + writebacks) * line_words;
    }
};

/** An inclusive-on-access multi-level hierarchy (L1, L2, L3). */
class Hierarchy
{
  public:
    /**
     * Build from capacities in words, innermost first.
     * @param line_words shared line size (1 = unit-line model).
     */
    explicit Hierarchy(const std::vector<std::int64_t> &capacities_words,
                       std::int64_t line_words = 1);

    /** Access a word; cascades through the levels on misses. */
    void access(std::int64_t word_addr, bool is_write);

    /** Number of cache levels. */
    int numLevels() const { return static_cast<int>(caches_.size()); }

    /** Traffic summary of level @p i (0 = innermost). */
    LevelTraffic traffic(int i) const;

    /** Total references issued (register-to-L1 traffic proxy). */
    std::int64_t totalAccesses() const { return total_accesses_; }

    /** Flush all levels (counts writebacks). */
    void flushAll();

    /** Line size in words. */
    std::int64_t lineWords() const { return line_words_; }

  private:
    /** Cascade a dirty victim from level-1 into @p level and beyond. */
    void writebackInto(std::size_t level, std::int64_t word_addr);

    std::vector<LruCache> caches_;
    std::int64_t line_words_;
    std::int64_t total_accesses_ = 0;
};

} // namespace mopt

#endif // MOPT_CACHESIM_HIERARCHY_HH
