/**
 * @file
 * Unit tests for the common utilities: stats, RNG, strings, tables,
 * flags, and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/string_util.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace mopt {
namespace {

TEST(Stats, MeanStddevBasics)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, GeomeanAndMedian)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_THROW(geomean({1.0, -1.0}), FatalError);
}

TEST(Stats, Confidence95)
{
    std::vector<double> xs(100, 5.0);
    EXPECT_DOUBLE_EQ(confidence95(xs), 0.0);
    xs[0] = 6.0;
    EXPECT_GT(confidence95(xs), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> neg{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, SpearmanIsRankBased)
{
    // Monotone but nonlinear: Spearman 1, Pearson < 1.
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{1, 8, 27, 64, 125};
    EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
    EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Stats, RanksHandleTies)
{
    const auto r = ranks({10.0, 20.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, ArgminArgmaxSmallestK)
{
    const std::vector<double> xs{3.0, 1.0, 2.0, 5.0};
    EXPECT_EQ(argmin(xs), 1u);
    EXPECT_EQ(argmax(xs), 3u);
    const auto k = smallestK(xs, 2);
    ASSERT_EQ(k.size(), 2u);
    EXPECT_EQ(k[0], 1u);
    EXPECT_EQ(k[1], 2u);
    EXPECT_EQ(smallestK(xs, 10).size(), 4u);
}

TEST(Rng, DeterministicAndInRange)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
        const double u = r.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, SplitStreamsDiffer)
{
    Rng a(42);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntIsRoughlyUniform)
{
    Rng r(123);
    std::array<int, 4> counts{};
    for (int i = 0; i < 4000; ++i)
        counts[static_cast<std::size_t>(r.uniformInt(0, 3))]++;
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto copy = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, copy);
}

TEST(StringUtil, SplitJoinTrim)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
    EXPECT_EQ(trim("  hi \n"), "hi");
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
}

TEST(StringUtil, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(formatEng(1536.0), "1.54K");
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.row().add("a").add(1.5, 1);
    t.row().add("longer").add(22.25, 2);
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("22.25"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, RejectsOverfullRows)
{
    Table t({"only"});
    t.row().add("x");
    EXPECT_THROW(t.add("y"), FatalError);
}

TEST(Flags, ParsesAndDefaults)
{
    const char *argv[] = {"prog", "--count=7", "--name=foo", "--on"};
    Flags f(4, const_cast<char **>(argv));
    EXPECT_EQ(f.getInt("count", 0), 7);
    EXPECT_EQ(f.getString("name", ""), "foo");
    EXPECT_TRUE(f.getBool("on", false));
    EXPECT_EQ(f.getInt("missing", 42), 42);
    EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, RejectsPositional)
{
    const char *argv[] = {"prog", "positional"};
    EXPECT_THROW(Flags(2, const_cast<char **>(argv)), FatalError);
}

TEST(Flags, SpaceSeparatedValues)
{
    const char *argv[] = {"prog", "--net", "resnet18", "--count", "7",
                          "--on", "--last"};
    Flags f(7, const_cast<char **>(argv));
    EXPECT_EQ(f.getString("net", ""), "resnet18");
    EXPECT_EQ(f.getInt("count", 0), 7);
    // "--on" is followed by another flag, "--last" ends the line:
    // both parse as bare booleans.
    EXPECT_TRUE(f.getBool("on", false));
    EXPECT_TRUE(f.getBool("last", false));
}

TEST(Flags, BoolRejectsStrayToken)
{
    // "--verify tiled" swallows the stray token as verify's value;
    // reading it as a boolean must fail loudly, not return false.
    const char *argv[] = {"prog", "--verify", "tiled", "--off", "0"};
    Flags f(5, const_cast<char **>(argv));
    EXPECT_THROW(f.getBool("verify", false), FatalError);
    EXPECT_FALSE(f.getBool("off", true));
}

TEST(Flags, RejectsDuplicates)
{
    // Both spellings of a repeat are editing accidents; neither value
    // may silently win.
    const char *eq[] = {"prog", "--machine=i7", "--machine=i9"};
    EXPECT_THROW(Flags(3, const_cast<char **>(eq)), FatalError);
    const char *mixed[] = {"prog", "--machine", "i7", "--machine=i9"};
    EXPECT_THROW(Flags(4, const_cast<char **>(mixed)), FatalError);
    const char *bare[] = {"prog", "--verify", "--verify"};
    EXPECT_THROW(Flags(3, const_cast<char **>(bare)), FatalError);
}

TEST(Flags, RejectUnknownCatchesTypos)
{
    const char *argv[] = {"prog", "--effort=fast", "--top-k=3"};
    const Flags f(3, const_cast<char **>(argv));
    f.rejectUnknown({"effort", "top-k", "machine"}); // No throw.
    EXPECT_THROW(f.rejectUnknown({"effort", "machine"}), FatalError);
    EXPECT_THROW(f.rejectUnknown({}), FatalError);
}

TEST(Flags, RejectUnknownIgnoresEnvironment)
{
    // MOPT_* environment defaults are shared across tools with
    // different flag vocabularies; only CLI flags are vetted.
    ::setenv("MOPT_SOME_SHARED_DEFAULT", "42", 1);
    const char *argv[] = {"prog", "--effort=fast"};
    const Flags f(2, const_cast<char **>(argv));
    EXPECT_TRUE(f.has("some-shared-default")); // Visible as a value...
    f.rejectUnknown({"effort"});               // ...but not rejected.
    ::unsetenv("MOPT_SOME_SHARED_DEFAULT");
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.subWidth(5).parallelFor(257, [&](std::size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    ThreadPool::SubWidth all = pool.subWidth(3);
    EXPECT_THROW(all.parallelFor(8, [&](std::size_t i) {
        if (i == 3)
            throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    EXPECT_THROW(all.parallelForIndexed(
                     8, 2,
                     [&](std::size_t, std::size_t b, std::size_t) {
                         if (b == 4)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(ThreadPool, SubWidthCoversAllIndicesWithBoundedWorkerIds)
{
    ThreadPool pool(4);
    ThreadPool::SubWidth half = pool.subWidth(2);
    EXPECT_EQ(half.width(), 2u);
    EXPECT_EQ(half.size(), 1u); // One helper; the caller is the other.

    std::vector<std::atomic<int>> hits(101);
    std::atomic<std::size_t> max_worker{0};
    half.parallelForIndexed(
        101, 1, [&](std::size_t w, std::size_t b, std::size_t e) {
            std::size_t seen = max_worker.load();
            while (w > seen && !max_worker.compare_exchange_weak(seen, w))
                ;
            for (std::size_t i = b; i < e; ++i)
                hits[i]++;
        });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // Worker ids stay inside the handle's width: scratch sized
    // size() + 1 is enough, exactly as on the full pool.
    EXPECT_LE(max_worker.load(), half.size());

    std::atomic<int> count{0};
    half.parallelFor(57, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 57);
}

TEST(ThreadPool, SubWidthClampsAndWidthOneRunsInline)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.subWidth(0).width(), 1u);
    EXPECT_EQ(pool.subWidth(99).width(), pool.size() + 1);

    // Width 1 recruits no helpers: the body runs on the caller only.
    ThreadPool::SubWidth solo = pool.subWidth(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    solo.parallelForIndexed(
        16, 1, [&](std::size_t w, std::size_t b, std::size_t e) {
            if (std::this_thread::get_id() != caller || w != 0)
                off_thread++;
            (void)b;
            (void)e;
        });
    EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ThreadsOrHardwareSizesTheGlobalPool)
{
    EXPECT_EQ(threadsOrHardware(3), 3u);
    EXPECT_GE(threadsOrHardware(0), 1u);
    EXPECT_EQ(threadsOrHardware(-1), threadsOrHardware(0));
    EXPECT_EQ(globalPool().size(), threadsOrHardware(0));
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("nope"), FatalError);
    EXPECT_THROW(checkUser(false, "bad"), FatalError);
    checkUser(true, "fine");
}

} // namespace
} // namespace mopt
