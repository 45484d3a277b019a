#include "cachesim/hierarchy.hh"

#include "common/logging.hh"

namespace mopt {

Hierarchy::Hierarchy(const std::vector<std::int64_t> &capacities_words,
                     std::int64_t line_words)
    : line_words_(line_words)
{
    checkUser(!capacities_words.empty(), "Hierarchy: need >= 1 level");
    std::int64_t prev = 0;
    for (std::int64_t cap : capacities_words) {
        checkUser(cap > prev, "Hierarchy: capacities must grow outward");
        caches_.emplace_back(cap, line_words);
        prev = cap;
    }
}

void
Hierarchy::access(std::int64_t word_addr, bool is_write)
{
    ++total_accesses_;
    for (std::size_t i = 0; i < caches_.size(); ++i) {
        std::int64_t dirty_victim = -1;
        const AccessResult res =
            caches_[i].access(word_addr, is_write, &dirty_victim);
        if (dirty_victim >= 0)
            writebackInto(i + 1, dirty_victim);
        if (res == AccessResult::Hit)
            return;
        // Miss: the line is filled into this level; the fill request
        // propagates outward as a read access.
        is_write = false;
    }
}

void
Hierarchy::writebackInto(std::size_t level, std::int64_t word_addr)
{
    // A dirty victim leaving level-1 lands in `level` (marked dirty,
    // allocated if absent); if that in turn displaces a dirty line,
    // the cascade continues outward. Falling off the last level means
    // the data reached memory.
    for (std::size_t j = level; j < caches_.size(); ++j) {
        word_addr = caches_[j].installWriteback(word_addr);
        if (word_addr < 0)
            return;
    }
}

LevelTraffic
Hierarchy::traffic(int i) const
{
    checkUser(i >= 0 && i < numLevels(), "Hierarchy::traffic: bad level");
    const LruCache &c = caches_[static_cast<std::size_t>(i)];
    LevelTraffic t;
    t.accesses = c.accesses();
    t.misses = c.misses();
    t.writebacks = c.writebacks();
    return t;
}

void
Hierarchy::flushAll()
{
    // Flush inner to outer so every dirty line drains through each
    // boundary it must cross on the way to memory.
    for (std::size_t i = 0; i < caches_.size(); ++i) {
        std::vector<std::int64_t> dirty;
        caches_[i].flush(dirty);
        for (const std::int64_t w : dirty)
            writebackInto(i + 1, w);
    }
}

} // namespace mopt
