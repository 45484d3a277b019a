/**
 * @file
 * Unit tests for the common utilities: stats, RNG, strings, tables,
 * flags, the thread pool, and the JSON parser's accept/refuse table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/json.hh"
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

TEST(Stats, SmallestK)
{
    const std::vector<double> xs{3.0, 1.0, 2.0, 5.0};
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

/** n nested arrays around one number. */
std::string
nestedArrays(int n)
{
    return std::string(static_cast<std::size_t>(n), '[') + "1" +
           std::string(static_cast<std::size_t>(n), ']');
}

TEST(Json, NumberAcceptRefuseTable)
{
    // strtod's grammar over [-+.0-9eE] and its range (see json.hh).
    constexpr double kMin = std::numeric_limits<double>::min();
    constexpr double kMax = std::numeric_limits<double>::max();
    const struct
    {
        const char *text;
        bool ok;
        double value;
    } rows[] = {
        {"1", true, 1},
        {"+1", true, 1},
        {"1.", true, 1},
        {".5", true, 0.5},
        {"+.5", true, 0.5},
        {"-.5", true, -0.5},
        {"-0", true, 0},
        {"01", true, 1},
        {"1.e5", true, 1e5},
        {"1E+5", true, 1e5},
        {"-1.5e-3", true, -1.5e-3},
        {"9007199254740993", true, 9007199254740992.0},
        {"0e-400", true, 0},
        {"2.2250738585072014e-308", true, kMin},
        {"1.7976931348623157e308", true, kMax},
        {" 7 ", true, 7},
        {"1e", false, 0},
        {"1.e", false, 0},
        {"--1", false, 0},
        {"+-1", false, 0},
        {"-+1", false, 0},
        {"++1", false, 0},
        {"1e400", false, 0},
        {"1.7976931348623159e308", false, 0},
        {"1e-400", false, 0},
        {"-1e-400", false, 0},
        {"1e-310", false, 0},                  // subnormal: ERANGE
        {"2.2250738585072012e-308", false, 0}, // rounds up to kMin
        {"-", false, 0},
        {".", false, 0},
        {".e1", false, 0},
        {"0x10", false, 0},
        {"1-", false, 0},
        {"1e5.5", false, 0},
        {"1.5.5", false, 0},
        {"nan", false, 0},
        {"inf", false, 0},
        {"-Infinity", false, 0},
    };
    for (const auto &row : rows) {
        JsonValue v;
        ASSERT_EQ(jsonParse(row.text, v), row.ok) << row.text;
        if (!row.ok)
            continue;
        EXPECT_TRUE(v.isNumber()) << row.text;
        EXPECT_EQ(v.num, row.value) << row.text;
    }
    JsonValue neg_zero;
    ASSERT_TRUE(jsonParse("-0", neg_zero));
    EXPECT_TRUE(std::signbit(neg_zero.num));
}

TEST(Json, StringAndStructureAcceptRefuseTable)
{
    const struct
    {
        const char *text;
        bool ok;
        std::string value;
    } rows[] = {
        {R"("a\"b\/c")", true, "a\"b/c"},
        {R"("\b\f\n\r\t")", true, "\b\f\n\r\t"},
        {"\"raw\ttab\"", true, "raw\ttab"},
        {R"("\u0041")", true, "A"},
        {R"("\u0000")", true, std::string(1, '\0')},
        // \u escapes decode to UTF-8; surrogates must pair.
        {R"("\u00e9")", true, "\xc3\xa9"},
        {R"("\u0141")", true, "\xc5\x81"},
        {R"("\u20AC")", true, "\xe2\x82\xac"},
        {R"("\ud83d\ude00")", true, "\xf0\x9f\x98\x80"},
        {R"("\ud83d")", false, ""},
        {R"("\ude00")", false, ""},
        {R"("\ud83dx")", false, ""},
        {R"("\ud83d\u0041")", false, ""},
        {R"("\u12")", false, ""},
        {R"("\u12zz")", false, ""},
        {R"("\x")", false, ""},
        {R"("abc)", false, ""},
        {R"("abc\)", false, ""},
        {R"("abc\")", false, ""},
        {"", false, ""},
        {" ", false, ""},
        {"1 x", false, ""},
        {"{} {}", false, ""},
        {"truex", false, ""},
        {"nul", false, ""},
        {"[1,]", false, ""},
        {"[,1]", false, ""},
        {"[1 2]", false, ""},
        {R"({"a":1,})", false, ""},
        {R"({"a"})", false, ""},
        {"{1:2}", false, ""},
    };
    for (const auto &row : rows) {
        JsonValue v;
        ASSERT_EQ(jsonParse(row.text, v), row.ok) << row.text;
        if (row.ok) {
            EXPECT_TRUE(v.isString()) << row.text;
            EXPECT_EQ(v.str, row.value) << row.text;
        }
    }

    // Depth: 64 nested containers parse, 65 do not.
    JsonValue v;
    EXPECT_TRUE(jsonParse(nestedArrays(64), v));
    EXPECT_FALSE(jsonParse(nestedArrays(65), v));
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    // The encoder writes \u00XX only below 0x20, so what it escapes
    // reads back byte for byte.
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    const std::string quoted = "\"" + jsonEscape(all) + "\"";
    JsonValue v;
    ASSERT_TRUE(jsonParse(quoted, v));
    EXPECT_EQ(v.str, all);
    EXPECT_EQ(jsonEscape("a\"b\\c\n\t\r\x01"),
              "a\\\"b\\\\c\\n\\t\\r\\u0001");
}

} // namespace
} // namespace mopt
