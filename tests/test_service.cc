/**
 * @file
 * Tests of the service layer: cache-key canonicalization and stable
 * hashing, the sharded LRU solution cache (eviction order, shard
 * independence under concurrency, journal persistence round-trips,
 * corrupted-journal recovery, compaction), and NetworkOptimizer
 * determinism with cold vs. warm caches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "common/timer.hh"
#include "conv/workloads.hh"
#include "frontend/registry.hh"
#include "machine/machine.hh"
#include "service/cache_key.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "support/golden_records.hh"

namespace mopt {
namespace {

ConvProblem
smallProblem(std::int64_t k = 32, std::int64_t c = 16, std::int64_t hw = 14)
{
    ConvProblem p;
    p.name = "svc";
    p.n = 1;
    p.k = k;
    p.c = c;
    p.r = 3;
    p.s = 3;
    p.h = hw;
    p.w = hw;
    return p;
}

OptimizerOptions
fastOpts()
{
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = true;
    o.threads = 4;
    return o;
}

/** A distinct, valid key: shapes vary in k so hashes differ. */
CacheKey
keyNumber(int i)
{
    return CacheKey::make(smallProblem(8 + i), i7_9700k(), fastOpts());
}

/** A recognizable solution whose payload encodes @p tag. */
CachedSolution
solutionNumber(int tag)
{
    CachedSolution s;
    s.config.perm = {Permutation::parse("nhwkcrs"),
                     Permutation::parse("kcrsnhw"),
                     Permutation::parse("kcrsnhw"),
                     Permutation::parse("kcrsnhw")};
    s.config.tiles = {IntTileVec{1, 16, 1, 1, 1, 1, 6},
                      IntTileVec{1, 16, 4, 1, 1, 2, 6},
                      IntTileVec{1, 32, 8, 3, 3, 4, 12},
                      IntTileVec{1, 32, 16, 3, 3, 14, 14}};
    s.config.par = {1, 2, 1, 1, 1, 2, 2};
    s.config.tiles[LvlL1][DimC] = 1 + tag;
    s.predicted_seconds = 1e-3 * (1 + tag);
    s.perm_label = "cls-" + std::to_string(tag);
    return s;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "mopt_" + name + "_" +
           std::to_string(::getpid()) + ".json";
}

TEST(CacheKey, LayerNameIsStripped)
{
    ConvProblem a = smallProblem();
    ConvProblem b = smallProblem();
    a.name = "R2";
    b.name = "layer1.0.conv1";
    const MachineSpec m = i7_9700k();
    const CacheKey ka = CacheKey::make(a, m, fastOpts());
    const CacheKey kb = CacheKey::make(b, m, fastOpts());
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(ka.hash(), kb.hash());
}

TEST(CacheKey, ShapeChangesHash)
{
    const MachineSpec m = i7_9700k();
    const CacheKey base = CacheKey::make(smallProblem(), m, fastOpts());
    ConvProblem other = smallProblem();
    other.stride = 2;
    const CacheKey changed = CacheKey::make(other, m, fastOpts());
    EXPECT_NE(base, changed);
    EXPECT_NE(base.hash(), changed.hash());
}

TEST(CacheKey, MachineFingerprintCoversModelFields)
{
    EXPECT_NE(CacheKey::machineFingerprint(i7_9700k()),
              CacheKey::machineFingerprint(i9_10980xe()));

    // The preset name is cosmetic and must not affect the fingerprint.
    MachineSpec renamed = i7_9700k();
    renamed.name = "some-fleet-host";
    EXPECT_EQ(CacheKey::machineFingerprint(i7_9700k()),
              CacheKey::machineFingerprint(renamed));

    MachineSpec tweaked = i7_9700k();
    tweaked.levels[LvlL2].capacity_bytes += 4096;
    EXPECT_NE(CacheKey::machineFingerprint(i7_9700k()),
              CacheKey::machineFingerprint(tweaked));
}

TEST(CacheKey, OverheadConstantsChangeTheKey)
{
    // Plans solved under other overhead constants (or none, as before
    // the model charged them) must be cache misses.
    const MachineSpec m = i7_9700k();
    const CacheKey base = CacheKey::make(smallProblem(), m, fastOpts());
    MachineSpec call = m;
    call.t_call *= 2.0;
    MachineSpec sync = m;
    sync.t_sync = 0.0;
    for (const MachineSpec &other : {call, sync}) {
        const CacheKey changed =
            CacheKey::make(smallProblem(), other, fastOpts());
        EXPECT_NE(base, changed);
        EXPECT_NE(base.hash(), changed.hash());
    }
}

TEST(CacheKey, SettingsFingerprintSelectsResultRelevantFields)
{
    OptimizerOptions a = fastOpts();
    OptimizerOptions b = fastOpts();

    // top_k and threads never change the winning configuration.
    b.top_k = 1;
    b.threads = 1;
    EXPECT_EQ(CacheKey::settingsFingerprint(a),
              CacheKey::settingsFingerprint(b));

    b = fastOpts();
    b.effort = OptimizerOptions::Effort::Thorough;
    EXPECT_NE(CacheKey::settingsFingerprint(a),
              CacheKey::settingsFingerprint(b));

    b = fastOpts();
    b.seed = a.seed + 1;
    EXPECT_NE(CacheKey::settingsFingerprint(a),
              CacheKey::settingsFingerprint(b));

    b = fastOpts();
    b.parallel = false;
    EXPECT_NE(CacheKey::settingsFingerprint(a),
              CacheKey::settingsFingerprint(b));
}

TEST(SolutionJson, RoundTrip)
{
    const CacheKey key = keyNumber(3);
    const CachedSolution sol = solutionNumber(7);
    const std::string line = solutionToJsonLine(key, sol);

    CacheKey key2;
    CachedSolution sol2;
    ASSERT_TRUE(solutionFromJsonLine(line, key2, sol2));
    EXPECT_EQ(key, key2);
    EXPECT_EQ(sol, sol2);
}

TEST(SolutionJson, RejectsMalformedLines)
{
    CacheKey key;
    CachedSolution sol;
    EXPECT_FALSE(solutionFromJsonLine("", key, sol));
    EXPECT_FALSE(solutionFromJsonLine("garbage", key, sol));
    EXPECT_FALSE(solutionFromJsonLine("{\"v\":2}", key, sol));
    const std::string good =
        solutionToJsonLine(keyNumber(0), solutionNumber(0));
    // A torn write: every strict prefix must be rejected, not crash.
    for (std::size_t cut = 0; cut + 1 < good.size(); cut += 7)
        EXPECT_FALSE(
            solutionFromJsonLine(good.substr(0, cut), key, sol));
    // Trailing garbage after a valid object is corruption too.
    EXPECT_FALSE(solutionFromJsonLine(good + "}", key, sol));
}

TEST(SolutionJson, HitsFieldRoundTripsAndDefaultsToZero)
{
    const CacheKey key = keyNumber(1);
    const CachedSolution sol = solutionNumber(1);

    // Absent field (pre-telemetry journals) reads back as 0.
    CacheKey k2;
    CachedSolution s2;
    std::int64_t hits = -1;
    ASSERT_TRUE(solutionFromJsonLine(solutionToJsonLine(key, sol), k2,
                                     s2, &hits));
    EXPECT_EQ(hits, 0);

    const std::string line = solutionToJsonLine(key, sol, 42);
    EXPECT_NE(line.find("\"hits\":42"), std::string::npos);
    ASSERT_TRUE(solutionFromJsonLine(line, k2, s2, &hits));
    EXPECT_EQ(hits, 42);
    EXPECT_EQ(k2, key);
    EXPECT_EQ(s2, sol);

    // A negative count is corruption, not data.
    std::string bad = line;
    bad.replace(bad.find("\"hits\":42"), 9, "\"hits\":-7");
    EXPECT_FALSE(solutionFromJsonLine(bad, k2, s2, &hits));
}

// Byte pins: the journal line and the plan text are compared with
// committed strings, so a formatting change that moves a single byte
// fails here before it reaches a journal or a plan file.
const char *const kGoldenSolutionLine =
    "{\"v\":1,\"n\":2,\"k\":32,\"c\":32,\"r\":3,\"s\":3,\"h\":56,\"w\":"
    "56,\"stride\":1,\"dilation\":1,\"groups\":32,\"machine\":\"0123456"
    "789abcdef\",\"settings\":\"fedcba9876543210\",\"perm\":[\"nkhwcrs"
    "\",\"nhwkcrs\",\"knchwrs\",\"wkhncrs\"],\"tiles\":[[1,8,1,1,1,1,6]"
    ",[1,16,6,3,3,2,12],[1,32,16,3,3,14,28],[2,64,32,3,3,14,56]],\"par"
    "\":[1,2,1,1,1,4,1],\"pred_s\":0.33333333333333331,\"label\":\"kc|h"
    "w \\\"q\\\" \\\\ \\t\\u0001\",\"hits\":42,\"seq\":7}";

const char *const kGoldenPlanText =
    "Layer   shape                    class   L1 tile                  "
    "        L2 tile                            L3 tile                "
    "            par                            pred ms  pred GFLOPS\n"
    "------------------------------------------------------------------"
    "------------------------------------------------------------------"
    "---------------------------------------------------------------\n"
    "conv1   N2 K64 C3 H112 R7/2      nk|crs  [n=1 k=16 c=3 r=3 s=3 h=2"
    " w=12]  [n=1 k=32 c=16 r=3 s=3 h=7 w=28]   [n=2 k=64 c=32 r=3 s=3 "
    "h=14 w=56]  [n=1 k=2 c=1 r=1 s=1 h=2 w=1]  0.123    98.8       \n"
    "dw \"2\"  N2 K32 C32 H56 R3 g32    hw|kc   [n=1 k=16 c=6 r=3 s=3 h"
    "=2 w=12]  [n=1 k=32 c=16 r=3 s=3 h=14 w=28]  [n=2 k=64 c=32 r=3 s="
    "3 h=14 w=56]  [n=1 k=2 c=1 r=1 s=1 h=4 w=1]  0.247    49.4       "
    "\n"
    "pw      N2 K128 C64 H28 R1/2 g4  nk|crs  [n=1 k=16 c=9 r=3 s=3 h=2"
    " w=12]  [n=1 k=32 c=16 r=3 s=3 h=21 w=28]  [n=2 k=64 c=32 r=3 s=3 "
    "h=14 w=56]  [n=1 k=2 c=1 r=1 s=1 h=6 w=1]  0.370    32.9       \n";

TEST(SolutionJson, GoldenLineWithHitsAndSeq)
{
    const std::string line =
        solutionToJsonLine(goldenKey(1), goldenSolution(), 42, 7);
    EXPECT_EQ(line, kGoldenSolutionLine);
    CacheKey key;
    CachedSolution sol;
    std::int64_t hits = 0, seq = 0;
    ASSERT_TRUE(solutionFromJsonLine(line, key, sol, &hits, &seq));
    EXPECT_EQ(key, goldenKey(1));
    EXPECT_EQ(sol, goldenSolution());
    EXPECT_EQ(hits, 42);
    EXPECT_EQ(seq, 7);
}

TEST(NetworkPlan, GoldenText)
{
    EXPECT_EQ(goldenPlan().str(), kGoldenPlanText);
}

TEST(SolutionCache, EntryStatsCountPerEntryHits)
{
    SolutionCache cache;
    cache.insert(keyNumber(0), solutionNumber(0));
    cache.insert(keyNumber(1), solutionNumber(1));
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(cache.lookup(keyNumber(0), nullptr));
    EXPECT_TRUE(cache.lookup(keyNumber(1), nullptr));
    EXPECT_FALSE(cache.lookup(keyNumber(9), nullptr)); // Miss: no entry.

    std::int64_t hits0 = -1, hits1 = -1;
    for (const SolutionCacheEntryStats &e : cache.entryStats()) {
        if (e.key == keyNumber(0))
            hits0 = e.hits;
        else if (e.key == keyNumber(1))
            hits1 = e.hits;
    }
    EXPECT_EQ(hits0, 3);
    EXPECT_EQ(hits1, 1);
    EXPECT_EQ(cache.entryStats().size(), 2u);
}

TEST(SolutionCache, HitCountsSurviveJournalRoundTrip)
{
    const std::string path = tempPath("hits");
    std::remove(path.c_str());
    {
        SolutionCacheOptions co;
        co.journal_path = path;
        SolutionCache cache(co);
        cache.insert(keyNumber(0), solutionNumber(0));
        cache.insert(keyNumber(1), solutionNumber(1));
        for (int i = 0; i < 5; ++i)
            cache.lookup(keyNumber(0), nullptr);
        // No explicit compact(): counts reach the journal through
        // compaction, and the destructor must compact when any entry
        // served a hit — a warm, insert-free run is exactly the case
        // the telemetry exists for.
    }
    {
        SolutionCacheOptions co;
        co.journal_path = path;
        SolutionCache reloaded(co);
        ASSERT_EQ(reloaded.size(), 2u);
        std::int64_t hits0 = -1, hits1 = -1;
        for (const SolutionCacheEntryStats &e : reloaded.entryStats()) {
            if (e.key == keyNumber(0))
                hits0 = e.hits;
            else if (e.key == keyNumber(1))
                hits1 = e.hits;
        }
        EXPECT_EQ(hits0, 5);
        EXPECT_EQ(hits1, 0);
        // Warm pass with zero inserts: more hits accumulate...
        for (int i = 0; i < 2; ++i)
            reloaded.lookup(keyNumber(1), nullptr);
    }
    // ...and survive the next clean shutdown too.
    SolutionCacheOptions co;
    co.journal_path = path;
    SolutionCache again(co);
    std::int64_t hits1 = -1;
    for (const SolutionCacheEntryStats &e : again.entryStats())
        if (e.key == keyNumber(1))
            hits1 = e.hits;
    EXPECT_EQ(hits1, 2);
    std::remove(path.c_str());
}

TEST(SolutionCache, LruEvictionOrder)
{
    SolutionCacheOptions co;
    co.capacity = 3;
    co.shards = 1;
    SolutionCache cache(co);

    cache.insert(keyNumber(1), solutionNumber(1));
    cache.insert(keyNumber(2), solutionNumber(2));
    cache.insert(keyNumber(3), solutionNumber(3));

    // Promote 1: the LRU entry is now 2.
    ASSERT_TRUE(cache.lookup(keyNumber(1), nullptr));

    cache.insert(keyNumber(4), solutionNumber(4));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.lookup(keyNumber(2), nullptr));
    EXPECT_TRUE(cache.lookup(keyNumber(1), nullptr));
    EXPECT_TRUE(cache.lookup(keyNumber(3), nullptr));
    EXPECT_TRUE(cache.lookup(keyNumber(4), nullptr));
    EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SolutionCache, ShardCountStaysMaskablePowerOfTwo)
{
    // A capacity below the requested shard count must not produce a
    // non-power-of-two shard count (shardOf masks with count - 1).
    SolutionCacheOptions co;
    co.capacity = 6;
    co.shards = 8;
    SolutionCache cache(co);
    const int n = cache.shardCount();
    EXPECT_EQ(n & (n - 1), 0);
    EXPECT_LE(n, 6);

    // Every shard must be reachable: with a maskable count, inserting
    // many keys leaves no shard permanently empty by construction.
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (int i = 0; i < 256; ++i)
        seen[static_cast<std::size_t>(cache.shardOf(keyNumber(i)))] =
            true;
    for (int s = 0; s < n; ++s)
        EXPECT_TRUE(seen[static_cast<std::size_t>(s)]) << s;
}

TEST(SolutionCache, OverwriteDoesNotGrow)
{
    SolutionCacheOptions co;
    co.capacity = 4;
    co.shards = 1;
    SolutionCache cache(co);

    cache.insert(keyNumber(1), solutionNumber(1));
    cache.insert(keyNumber(1), solutionNumber(9));
    EXPECT_EQ(cache.size(), 1u);

    CachedSolution out;
    ASSERT_TRUE(cache.lookup(keyNumber(1), &out));
    EXPECT_EQ(out, solutionNumber(9));
}

TEST(SolutionCache, ShardedConcurrentInsertLookup)
{
    SolutionCacheOptions co;
    co.capacity = 4096;
    co.shards = 8;
    SolutionCache cache(co);
    EXPECT_EQ(cache.shardCount(), 8);

    constexpr int kThreads = 8;
    constexpr int kKeysPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < kKeysPerThread; ++i) {
                const int id = t * kKeysPerThread + i;
                cache.insert(keyNumber(id), solutionNumber(id));
                CachedSolution out;
                ASSERT_TRUE(cache.lookup(keyNumber(id), &out));
                EXPECT_EQ(out, solutionNumber(id));
                // Probe other threads' keys too: either a miss (not
                // inserted yet) or the correct value, never garbage.
                const int other = ((id + 37) * 13) %
                                  (kThreads * kKeysPerThread);
                if (cache.lookup(keyNumber(other), &out)) {
                    EXPECT_EQ(out, solutionNumber(other));
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(cache.size(),
              static_cast<std::size_t>(kThreads * kKeysPerThread));
    const SolutionCacheStats st = cache.stats();
    EXPECT_EQ(st.inserts, kThreads * kKeysPerThread);
    EXPECT_EQ(st.evictions, 0);

    // The keys must actually spread across shards for the concurrency
    // above to exercise independence.
    int shard_seen[8] = {};
    for (int id = 0; id < kThreads * kKeysPerThread; ++id)
        shard_seen[cache.shardOf(keyNumber(id))]++;
    int nonempty = 0;
    for (const int n : shard_seen)
        nonempty += n > 0;
    EXPECT_GE(nonempty, 4);
}

TEST(SolutionCache, PersistenceRoundTrip)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());

    {
        SolutionCacheOptions co;
        co.journal_path = path;
        SolutionCache cache(co);
        for (int i = 0; i < 5; ++i)
            cache.insert(keyNumber(i), solutionNumber(i));
    }

    SolutionCacheOptions co;
    co.journal_path = path;
    SolutionCache reloaded(co);
    EXPECT_EQ(reloaded.stats().journal_loaded, 5);
    EXPECT_EQ(reloaded.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        CachedSolution out;
        ASSERT_TRUE(reloaded.lookup(keyNumber(i), &out)) << i;
        EXPECT_EQ(out, solutionNumber(i));
    }

    // Replay is bookkeeping: reopening with a smaller capacity evicts
    // during replay, but the traffic counters must stay clean.
    SolutionCacheOptions small;
    small.capacity = 2;
    small.shards = 1;
    small.journal_path = path;
    SolutionCache tight(small);
    EXPECT_EQ(tight.stats().journal_loaded, 5);
    EXPECT_EQ(tight.size(), 2u);
    EXPECT_EQ(tight.stats().inserts, 0);
    EXPECT_EQ(tight.stats().evictions, 0);
    std::remove(path.c_str());
}

TEST(SolutionCache, CorruptedJournalRecovery)
{
    const std::string path = tempPath("corrupt");
    std::remove(path.c_str());

    const std::string good0 =
        solutionToJsonLine(keyNumber(0), solutionNumber(0));
    const std::string good1 =
        solutionToJsonLine(keyNumber(1), solutionNumber(1));
    {
        std::ofstream f(path);
        f << good0 << "\n";
        f << "{\"v\":1,\"n\":not-json\n";
        f << good1 << "\n";
        // A torn final line, as left by a crash mid-append.
        f << good1.substr(0, good1.size() / 2);
    }

    SolutionCacheOptions co;
    co.journal_path = path;
    SolutionCache cache(co);
    EXPECT_EQ(cache.stats().journal_loaded, 2);
    EXPECT_EQ(cache.stats().journal_skipped, 2);
    EXPECT_TRUE(cache.lookup(keyNumber(0), nullptr));
    EXPECT_TRUE(cache.lookup(keyNumber(1), nullptr));

    // Recovery rewrites the journal; a second open sees only the
    // surviving entries and no corruption.
    SolutionCacheOptions co2;
    co2.journal_path = path;
    SolutionCache cache2(co2);
    EXPECT_EQ(cache2.stats().journal_loaded, 2);
    EXPECT_EQ(cache2.stats().journal_skipped, 0);
    std::remove(path.c_str());
}

TEST(SolutionCache, CompactionBoundsJournalAndKeepsLruOrder)
{
    const std::string path = tempPath("compact");
    std::remove(path.c_str());

    {
        SolutionCacheOptions co;
        co.capacity = 3;
        co.shards = 1;
        co.journal_path = path;
        SolutionCache cache(co);
        // 40 inserts into a 3-entry cache: the journal would hold 40
        // lines without compaction (threshold: 2*3 + 16).
        for (int i = 0; i < 40; ++i)
            cache.insert(keyNumber(i), solutionNumber(i));
        // Touch every survivor (38 last, promoting it): a full cache
        // sheds cycle-old zero-hit entries at compaction, and this
        // test is about journal bounding + LRU order, not shedding.
        ASSERT_TRUE(cache.lookup(keyNumber(37), nullptr));
        ASSERT_TRUE(cache.lookup(keyNumber(39), nullptr));
        ASSERT_TRUE(cache.lookup(keyNumber(38), nullptr)); // Promote.
        cache.compact();
    }

    std::int64_t lines = 0;
    {
        std::ifstream f(path);
        for (std::string line; std::getline(f, line);)
            ++lines;
    }
    EXPECT_EQ(lines, 3);

    SolutionCacheOptions co;
    co.capacity = 3;
    co.shards = 1;
    co.journal_path = path;
    SolutionCache reloaded(co);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_TRUE(reloaded.lookup(keyNumber(37), nullptr));
    EXPECT_TRUE(reloaded.lookup(keyNumber(38), nullptr));
    EXPECT_TRUE(reloaded.lookup(keyNumber(39), nullptr));

    // The promote before compaction survived the reload: 37 (not 38)
    // is the LRU victim of the next insert.
    reloaded.insert(keyNumber(40), solutionNumber(40));
    EXPECT_TRUE(reloaded.lookup(keyNumber(38), nullptr));
    EXPECT_FALSE(reloaded.lookup(keyNumber(37), nullptr));
    std::remove(path.c_str());
}

TEST(SolutionCache, CapacityLimitedCompactionShedsZeroHitEntries)
{
    const std::string path = tempPath("shed");
    std::remove(path.c_str());

    SolutionCacheOptions co;
    co.capacity = 4;
    co.shards = 1;
    co.journal_path = path;
    {
        SolutionCache cache(co);
        for (int i = 0; i < 4; ++i)
            cache.insert(keyNumber(i), solutionNumber(i));
        ASSERT_EQ(cache.size(), 4u); // Full: capacity-limited.
        ASSERT_TRUE(cache.lookup(keyNumber(1), nullptr));
        ASSERT_TRUE(cache.lookup(keyNumber(3), nullptr));

        const std::int64_t evictions_before = cache.stats().evictions;
        // Young entries (inserted since the last compaction) are
        // exempt — the first compaction under pressure sheds nothing,
        // it only ends their grace cycle.
        cache.compact();
        EXPECT_EQ(cache.size(), 4u);

        // Still full at the *next* compaction: the entries that went
        // a whole cycle without a hit stopped earning their keep; the
        // hot ones survive, in memory and in the journal.
        cache.compact();
        EXPECT_EQ(cache.size(), 2u);
        EXPECT_EQ(cache.stats().evictions, evictions_before + 2);
        EXPECT_FALSE(cache.lookup(keyNumber(0), nullptr));
        EXPECT_FALSE(cache.lookup(keyNumber(2), nullptr));
        EXPECT_TRUE(cache.lookup(keyNumber(1), nullptr));
        EXPECT_TRUE(cache.lookup(keyNumber(3), nullptr));
    }

    // Same journal format: a reload sees exactly the earners, hit
    // counts intact.
    SolutionCache reloaded(co);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_TRUE(reloaded.lookup(keyNumber(1), nullptr));
    EXPECT_TRUE(reloaded.lookup(keyNumber(3), nullptr));
    std::remove(path.c_str());
}

TEST(SolutionCache, UnpressuredCompactionKeepsZeroHitEntries)
{
    const std::string path = tempPath("noshed");
    std::remove(path.c_str());

    SolutionCacheOptions co;
    co.capacity = 16;
    co.shards = 1;
    co.journal_path = path;
    SolutionCache cache(co);
    for (int i = 0; i < 4; ++i)
        cache.insert(keyNumber(i), solutionNumber(i));
    ASSERT_TRUE(cache.lookup(keyNumber(0), nullptr));

    cache.compact();

    // Plenty of headroom: a zero-hit entry may simply be young, so
    // nothing is shed.
    EXPECT_EQ(cache.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(cache.lookup(keyNumber(i), nullptr));
    std::remove(path.c_str());
}

TEST(NetworkOptimizer, DedupesRepeatedShapes)
{
    ConvProblem a = smallProblem();
    a.name = "block0";
    ConvProblem b = smallProblem(16, 8);
    b.name = "block1";
    ConvProblem a2 = smallProblem();
    a2.name = "block2"; // Same shape as block0, different name.

    const NetworkOptimizer nopt(tinyTestMachine(), fastOpts());
    const NetworkPlan plan = nopt.optimize({a, b, a2});

    ASSERT_EQ(plan.layers.size(), 3u);
    EXPECT_EQ(plan.stats.layers, 3u);
    EXPECT_EQ(plan.stats.unique_shapes, 2u);
    EXPECT_EQ(plan.stats.cache_misses, 2u);
    EXPECT_FALSE(plan.layers[0].dedup_hit);
    EXPECT_TRUE(plan.layers[2].dedup_hit);
    EXPECT_EQ(plan.layers[0].best.config, plan.layers[2].best.config);
    // Names survive dedup: each plan row describes its own layer.
    EXPECT_EQ(plan.layers[2].problem.name, "block2");
}

TEST(NetworkOptimizer, GroupByKeyKeepsFirstSeenOrder)
{
    ConvProblem a = smallProblem();
    a.name = "first";
    ConvProblem b = smallProblem(16, 8);
    ConvProblem a2 = smallProblem();
    a2.name = "renamed"; // Names never split a group.
    ConvProblem grouped = smallProblem();
    grouped.groups = 2;
    ConvProblem batched = smallProblem();
    batched.n = 2;
    ConvProblem strided = smallProblem();
    strided.stride = 2;

    const std::vector<LayerGroup> groups =
        groupByKey({b, a, grouped, a2, batched, strided, grouped},
                   CacheKey::machineFingerprint(tinyTestMachine()),
                   CacheKey::settingsFingerprint(fastOpts()));
    ASSERT_EQ(groups.size(), 5u);
    EXPECT_EQ(groups[0].layers, (std::vector<std::size_t>{0}));
    EXPECT_EQ(groups[1].layers, (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(groups[2].layers, (std::vector<std::size_t>{2, 6}));
    EXPECT_EQ(groups[3].layers, (std::vector<std::size_t>{4}));
    EXPECT_EQ(groups[4].layers, (std::vector<std::size_t>{5}));
    EXPECT_EQ(groups[2].key.problem.groups, 2);
    EXPECT_EQ(groups[3].key.problem.n, 2);
    EXPECT_EQ(groups[4].key.problem.stride, 2);
}

TEST(NetworkOptimizer, DeadlineInterruptsARunningSolve)
{
    // Three distinct cold shapes, each a solve of measurable length.
    const std::vector<ConvProblem> net = {smallProblem(64, 64, 28),
                                          smallProblem(48, 64, 28),
                                          smallProblem(64, 48, 28)};
    const MachineSpec m = tinyTestMachine();
    Timer one_solve;
    optimizeConv(net.front(), m, fastOpts());
    const double solve_seconds = one_solve.seconds();

    // No scheduler passed and no cache: the optimizer's own budget-1
    // scheduler runs the misses. A solve cannot be interrupted, so a
    // deadline checked only between solves would overshoot by a whole
    // one; waiting on the scheduler gives up on time instead. The
    // deadline is a tenth of a solve, so it is still live when the
    // first solve starts.
    const long deadline_ms =
        std::max(2L, static_cast<long>(solve_seconds * 100.0));
    const NetworkOptimizer nopt(m, fastOpts());
    Timer t;
    EXPECT_THROW(nopt.optimize(net, Deadline::in(deadline_ms)),
                 DeadlineExceeded);
    EXPECT_LT(t.seconds(), 0.5 * solve_seconds)
        << "one solve takes " << solve_seconds << " s, deadline "
        << deadline_ms << " ms";
}

TEST(NetworkOptimizer, ColdAndWarmPlansAreIdentical)
{
    const std::string path = tempPath("netopt");
    std::remove(path.c_str());

    const std::vector<ConvProblem> net = {smallProblem(), smallProblem(16, 8),
                                          smallProblem()};
    const MachineSpec m = tinyTestMachine();

    std::string cold_plan, warm_plan;
    {
        SolutionCacheOptions co;
        co.journal_path = path;
        SolutionCache cache(co);
        const NetworkOptimizer nopt(m, fastOpts(), &cache);
        const NetworkPlan cold = nopt.optimize(net);
        EXPECT_EQ(cold.stats.cache_hits, 0u);
        cold_plan = cold.str();
    }
    {
        // A fresh process would reload the journal the same way.
        SolutionCacheOptions co;
        co.journal_path = path;
        SolutionCache cache(co);
        const NetworkOptimizer nopt(m, fastOpts(), &cache);
        const NetworkPlan warm = nopt.optimize(net);
        EXPECT_EQ(warm.stats.cache_hits, warm.stats.unique_shapes);
        EXPECT_EQ(warm.stats.cache_misses, 0u);
        EXPECT_DOUBLE_EQ(warm.stats.hitRate(), 1.0);
        warm_plan = warm.str();
    }
    EXPECT_EQ(cold_plan, warm_plan);
    std::remove(path.c_str());
}

TEST(NetworkOptimizer, NetworkBuildersAreWellFormed)
{
    const std::vector<ConvProblem> resnet =
        networkDefByName("resnet18").lower();
    const std::vector<ConvProblem> vgg = networkDefByName("vgg16").lower();
    const std::vector<ConvProblem> yolo =
        networkDefByName("yolov3").lower();
    EXPECT_EQ(resnet.size(), 20u);
    EXPECT_EQ(vgg.size(), 13u);
    EXPECT_EQ(yolo.size(), 52u);
    for (const auto *net : {&resnet, &vgg, &yolo})
        for (const ConvProblem &p : *net)
            EXPECT_NO_THROW(p.validate());

    // Spot-check derived extents: resnet conv1 is 7x7/2 on 224 -> 112.
    EXPECT_EQ(resnet.front().h, 112);
    EXPECT_EQ(resnet.front().k, 64);
    // Darknet-53's last stage works on 13x13.
    EXPECT_EQ(yolo.back().h, 13);
    EXPECT_EQ(yolo.back().k, 1024);

    EXPECT_EQ(networkDefByName("ResNet18").lower().size(), resnet.size());
    EXPECT_THROW(networkDefByName("alexnet"), FatalError);

    // The dedup ratios documented in conv/workloads.hh.
    const OptimizerOptions opts = fastOpts();
    const MachineSpec m = i7_9700k();
    auto countUnique = [&](const std::vector<ConvProblem> &net) {
        std::vector<CacheKey> keys;
        for (const ConvProblem &p : net) {
            const CacheKey k = CacheKey::make(p, m, opts);
            bool seen = false;
            for (const CacheKey &other : keys)
                seen = seen || other == k;
            if (!seen)
                keys.push_back(k);
        }
        return keys.size();
    };
    EXPECT_EQ(countUnique(resnet), 11u);
    EXPECT_EQ(countUnique(vgg), 9u);
    EXPECT_EQ(countUnique(yolo), 16u);
}

} // namespace
} // namespace mopt
