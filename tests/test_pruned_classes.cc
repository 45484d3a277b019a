/**
 * @file
 * Tests of the Sec. 4 pruning theorem: the eight equivalence classes
 * cover cost-identical permutations, and their best member is never
 * worse than ANY of the 5040 permutations at the same tile sizes —
 * the property that justifies shrinking the search space from 5040
 * to 8.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/rng.hh"
#include "conv/problem.hh"
#include "model/pruned_classes.hh"
#include "model/single_level.hh"

namespace mopt {
namespace {

/** Every permutation that @p cls contains. */
std::vector<Permutation>
members(const PrunedClass &cls)
{
    std::vector<Permutation> out;
    for (const Permutation &perm : Permutation::all())
        if (cls.contains(perm))
            out.push_back(perm);
    return out;
}

ConvProblem
randomProblem(Rng &rng)
{
    ConvProblem p;
    p.name = "rand";
    p.n = rng.uniformInt(1, 4);
    p.k = rng.uniformInt(2, 64);
    p.c = rng.uniformInt(2, 64);
    p.r = rng.uniformInt(1, 5);
    p.s = rng.uniformInt(1, 5);
    p.h = rng.uniformInt(2, 32);
    p.w = rng.uniformInt(2, 32);
    p.stride = rng.uniform01() < 0.25 ? 2 : 1;
    // The pruning argument is purely about present/absent index
    // structure, so it must survive dilation too.
    p.dilation = rng.uniform01() < 0.25 ? 2 : 1;
    return p;
}

TileVec
randomTiles(Rng &rng, const ConvProblem &p)
{
    const IntTileVec extents = problemExtents(p);
    TileVec t;
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        t[sd] = static_cast<double>(
            rng.uniformInt(1, extents[sd]));
    }
    return t;
}

TEST(PrunedClasses, ThereAreExactlyEight)
{
    EXPECT_EQ(prunedClasses().size(), 8u);
}

TEST(PrunedClasses, MemberCountsMatchBandFactorials)
{
    const auto &classes = prunedClasses();
    // Classes 1-4: 4!*2!*1! = 48; classes 5-8: 5!*1!*1! = 120.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(classes[static_cast<std::size_t>(i)].memberCount(), 48);
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(classes[static_cast<std::size_t>(i)].memberCount(), 120);
}

TEST(PrunedClasses, MembersEnumerationMatchesContains)
{
    for (const auto &cls : prunedClasses()) {
        const auto perms = members(cls);
        EXPECT_EQ(static_cast<std::int64_t>(perms.size()),
                  cls.memberCount());
        std::set<std::string> unique;
        for (const auto &perm : perms) {
            EXPECT_TRUE(cls.contains(perm)) << cls.name() << " "
                                            << perm.str();
            unique.insert(perm.str());
        }
        EXPECT_EQ(unique.size(), perms.size());
    }
}

TEST(PrunedClasses, ClassesAreDisjoint)
{
    const auto &classes = prunedClasses();
    int total = 0;
    for (const auto &perm : Permutation::all()) {
        int hits = 0;
        for (const auto &cls : classes)
            if (cls.contains(perm))
                ++hits;
        EXPECT_LE(hits, 1) << perm.str();
        total += hits;
    }
    EXPECT_EQ(total, 4 * 48 + 4 * 120);
}

TEST(PrunedClasses, RepresentativesMatchPaperSummary)
{
    const auto reps = prunedRepresentatives();
    EXPECT_EQ(reps[0].str(), "kcrsnhw");
    EXPECT_EQ(reps[1].str(), "kcrsnwh");
    EXPECT_EQ(reps[2].str(), "nkhwcrs");
    EXPECT_EQ(reps[3].str(), "nkhwcsr");
    EXPECT_EQ(reps[4].str(), "nchrswk");
    EXPECT_EQ(reps[5].str(), "ncwrshk");
    EXPECT_EQ(reps[6].str(), "nchwrsk");
    EXPECT_EQ(reps[7].str(), "nchwsrk");
}

/** All members of a class have the same cost expression. */
class IntraClassEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(IntraClassEquivalence, MembersCostIdentical)
{
    Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    const PrunedClass &cls =
        prunedClasses()[static_cast<std::size_t>(GetParam())];
    for (int trial = 0; trial < 5; ++trial) {
        const ConvProblem p = randomProblem(rng);
        const TileVec t = randomTiles(rng, p);
        const double ref =
            totalDataVolume(cls.representative(), t, p);
        for (const auto &perm : members(cls)) {
            const double dv = totalDataVolume(perm, t, p);
            EXPECT_NEAR(dv, ref, 1e-9 * ref)
                << cls.name() << " " << perm.str();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, IntraClassEquivalence,
                         ::testing::Range(0, 8));

/**
 * THE pruning theorem (pointwise form): for any tile sizes, the best
 * of the eight representatives is <= the cost of every one of the
 * 5040 permutations.
 */
class PruningDominance : public ::testing::TestWithParam<int>
{
};

TEST_P(PruningDominance, EightClassesDominateAll5040)
{
    Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
    const ConvProblem p = randomProblem(rng);
    const TileVec t = randomTiles(rng, p);

    double best_pruned = std::numeric_limits<double>::infinity();
    for (const auto &rep : prunedRepresentatives())
        best_pruned = std::min(best_pruned, totalDataVolume(rep, t, p));

    double worst_margin = std::numeric_limits<double>::infinity();
    for (const auto &perm : Permutation::all()) {
        const double dv = totalDataVolume(perm, t, p);
        worst_margin = std::min(worst_margin, dv - best_pruned);
        ASSERT_GE(dv, best_pruned * (1.0 - 1e-12))
            << "permutation " << perm.str() << " beats the pruned set on "
            << p.summary();
    }
    EXPECT_GE(worst_margin, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PruningDominance,
                         ::testing::Range(0, 12));

} // namespace
} // namespace mopt
