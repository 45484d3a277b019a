#include "cachesim/lru_cache.hh"

#include "common/logging.hh"

namespace mopt {

LruCache::LruCache(std::int64_t capacity_words, std::int64_t line_words)
    : capacity_lines_(capacity_words / line_words), line_words_(line_words)
{
    checkUser(line_words >= 1, "LruCache: line size must be >= 1 word");
    checkUser(capacity_lines_ >= 1,
              "LruCache: capacity must hold at least one line");
    map_.reserve(static_cast<std::size_t>(capacity_lines_ * 2));
}

AccessResult
LruCache::access(std::int64_t word_addr, bool is_write,
                 std::int64_t *dirty_victim_word)
{
    if (dirty_victim_word)
        *dirty_victim_word = -1;
    const std::int64_t tag = word_addr / line_words_;
    const auto it = map_.find(tag);
    if (it != map_.end()) {
        ++hits_;
        it->second->dirty |= is_write;
        lru_.splice(lru_.begin(), lru_, it->second);
        return AccessResult::Hit;
    }

    ++misses_;
    if (static_cast<std::int64_t>(lru_.size()) >= capacity_lines_) {
        const Line &victim = lru_.back();
        if (victim.dirty) {
            ++writebacks_;
            if (dirty_victim_word)
                *dirty_victim_word = victim.tag * line_words_;
        }
        map_.erase(victim.tag);
        lru_.pop_back();
    }
    lru_.push_front(Line{tag, is_write});
    map_[tag] = lru_.begin();
    return AccessResult::Miss;
}

std::int64_t
LruCache::installWriteback(std::int64_t word_addr)
{
    const std::int64_t tag = word_addr / line_words_;
    const auto it = map_.find(tag);
    if (it != map_.end()) {
        it->second->dirty = true;
        lru_.splice(lru_.begin(), lru_, it->second);
        return -1;
    }

    std::int64_t dirty_victim = -1;
    if (static_cast<std::int64_t>(lru_.size()) >= capacity_lines_) {
        const Line &victim = lru_.back();
        if (victim.dirty) {
            ++writebacks_;
            dirty_victim = victim.tag * line_words_;
        }
        map_.erase(victim.tag);
        lru_.pop_back();
    }
    lru_.push_front(Line{tag, true});
    map_[tag] = lru_.begin();
    return dirty_victim;
}

void
LruCache::flush()
{
    for (const Line &line : lru_)
        if (line.dirty)
            ++writebacks_;
    lru_.clear();
    map_.clear();
}

void
LruCache::flush(std::vector<std::int64_t> &dirty_words)
{
    for (const Line &line : lru_)
        if (line.dirty)
            dirty_words.push_back(line.tag * line_words_);
    flush();
}

} // namespace mopt
