/**
 * @file
 * Unit tests for dense tensors and the microkernel packing layout,
 * serial and spread over a thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/packing.hh"
#include "tensor/tensor.hh"

namespace mopt {
namespace {

/** @p pk unpacked back to KCRS through its element accessor. */
Tensor4
unpack(const PackedKernel &pk)
{
    Tensor4 out(pk.numOutChannels(), pk.numChannels(), pk.kernelH(),
                pk.kernelW());
    for (std::int64_t k = 0; k < out.dim(0); ++k)
        for (std::int64_t c = 0; c < out.dim(1); ++c)
            for (std::int64_t r = 0; r < out.dim(2); ++r)
                for (std::int64_t s = 0; s < out.dim(3); ++s)
                    out.at(k, c, r, s) = pk.at(k, c, r, s);
    return out;
}

TEST(Tensor4, ShapeAndIndexing)
{
    Tensor4 t(2, 3, 4, 5);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(3), 5);
    EXPECT_EQ(t.size(), 2 * 3 * 4 * 5);
    t.at(1, 2, 3, 4) = 7.0f;
    EXPECT_FLOAT_EQ(t.data()[t.size() - 1], 7.0f);
    t.at(0, 0, 0, 0) = 3.0f;
    EXPECT_FLOAT_EQ(t.data()[0], 3.0f);
}

TEST(Tensor4, RowMajorOffsets)
{
    Tensor4 t(2, 3, 4, 5);
    EXPECT_EQ(t.offset(0, 0, 0, 1), 1);
    EXPECT_EQ(t.offset(0, 0, 1, 0), 5);
    EXPECT_EQ(t.offset(0, 1, 0, 0), 20);
    EXPECT_EQ(t.offset(1, 0, 0, 0), 60);
}

TEST(Tensor4, FillAndDiff)
{
    Tensor4 a(2, 2, 2, 2), b(2, 2, 2, 2);
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(a, b), 0.0);
    b.at(1, 1, 1, 1) = 3.0f;
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(a, b), 2.0);
    Tensor4 c(1, 2, 2, 2);
    EXPECT_FALSE(Tensor4::sameShape(a, c));
    EXPECT_THROW(Tensor4::maxAbsDiff(a, c), FatalError);
}

TEST(Tensor4, FillRandomInRange)
{
    Rng rng(9);
    Tensor4 t(2, 3, 4, 5);
    t.fillRandom(rng);
    bool nonzero = false;
    for (std::int64_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t.data()[i], -1.0f);
        EXPECT_LT(t.data()[i], 1.0f);
        nonzero |= t.data()[i] != 0.0f;
    }
    EXPECT_TRUE(nonzero);
}

TEST(PackedKernel, RoundTripExactK)
{
    Rng rng(11);
    Tensor4 ker(16, 3, 3, 3);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    EXPECT_EQ(pk.numKBlocks(), 2);
    Tensor4 back = unpack(pk);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(ker, back), 0.0);
}

TEST(PackedKernel, RoundTripPaddedK)
{
    Rng rng(12);
    Tensor4 ker(13, 2, 3, 1);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    EXPECT_EQ(pk.numKBlocks(), 2);
    Tensor4 back = unpack(pk);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(ker, back), 0.0);
    // Padding lanes are zero.
    EXPECT_FLOAT_EQ(pk.lanes(1, 0, 0, 0)[7], 0.0f);
}

TEST(PackedKernel, LanesAreContiguousInK)
{
    Rng rng(13);
    Tensor4 ker(8, 1, 1, 1);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    const float *lanes = pk.lanes(0, 0, 0, 0);
    for (int k = 0; k < 8; ++k)
        EXPECT_FLOAT_EQ(lanes[k], ker.at(k, 0, 0, 0));
}

TEST(PackedKernel, ElementAccessor)
{
    Rng rng(14);
    Tensor4 ker(20, 2, 2, 2);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    for (std::int64_t k = 0; k < 20; ++k)
        for (std::int64_t c = 0; c < 2; ++c)
            EXPECT_FLOAT_EQ(pk.at(k, c, 1, 0), ker.at(k, c, 1, 0));
}

/**
 * The [ceil(K/vl)][C][R][S][vl] layout packed one element at a time,
 * with the K-tail lanes 0: the reference the write-order packing must
 * reproduce bit for bit.
 */
std::vector<float>
naivePacking(const Tensor4 &ker, int vl)
{
    const std::int64_t k = ker.dim(0), c = ker.dim(1), r = ker.dim(2),
                       s = ker.dim(3);
    const std::int64_t kb = (k + vl - 1) / vl;
    std::vector<float> out(static_cast<std::size_t>(kb * c * r * s * vl),
                           0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk)
        for (std::int64_t cc = 0; cc < c; ++cc)
            for (std::int64_t rr = 0; rr < r; ++rr)
                for (std::int64_t ss = 0; ss < s; ++ss)
                    out[static_cast<std::size_t>(
                        ((((kk / vl) * c + cc) * r + rr) * s + ss) * vl +
                        kk % vl)] = ker.at(kk, cc, rr, ss);
    return out;
}

/**
 * Leave freed heap blocks of @p floats floats full of NaN, so a packed
 * buffer allocated next cannot pass the tail-lane check by starting
 * out zeroed.
 */
void
dirtyTheHeap(std::int64_t floats)
{
    std::vector<std::unique_ptr<float[]>> blocks;
    for (int i = 0; i < 4; ++i) {
        blocks.emplace_back(new float[static_cast<std::size_t>(floats)]);
        std::fill_n(blocks.back().get(), floats,
                    std::numeric_limits<float>::quiet_NaN());
    }
}

/** Every float of @p pk equals @p want bit for bit. */
void
expectPackedBits(const PackedKernel &pk, const std::vector<float> &want,
                 const std::string &what)
{
    ASSERT_EQ(pk.size(), static_cast<std::int64_t>(want.size())) << what;
    const float *got = pk.lanes(0, 0, 0, 0);
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
        mismatches += std::bit_cast<std::uint32_t>(got[i]) !=
                      std::bit_cast<std::uint32_t>(want[i]);
    EXPECT_EQ(mismatches, 0) << what;
}

TEST(PackedKernel, ParallelPackingMatchesNaivePackingBitForBit)
{
    ThreadPool pool(3);
    // {K, C per group, R x S}: K tails of 0 to 15 lanes at vector
    // lengths 8 and 16; C/G extents of grouped kernels (depthwise C/G =
    // 1 included); C*R*S rows from 1 to 45, with and without a remainder
    // of the 4-row transposes that fill full blocks.
    struct Shape
    {
        std::int64_t k, c, rs;
    };
    const Shape shapes[] = {{8, 3, 3},  {13, 1, 3}, {16, 4, 1},
                            {100, 2, 3}, {100, 7, 1}, {13, 16, 1},
                            {16, 1, 3}, {8, 5, 1},   {40, 5, 3},
                            {33, 4, 1}, {57, 1, 1}, {32, 3, 3}};
    std::uint64_t seed = 40;
    for (const int vl : {8, 16}) {
        for (const Shape &sh : shapes) {
            Rng rng(seed++);
            Tensor4 ker(sh.k, sh.c, sh.rs, sh.rs);
            ker.fillRandom(rng);
            const std::vector<float> want = naivePacking(ker, vl);
            for (std::size_t width : {1u, 2u, 4u}) {
                const std::string what =
                    "vl=" + std::to_string(vl) + " K=" +
                    std::to_string(sh.k) + " C=" + std::to_string(sh.c) +
                    " RS=" + std::to_string(sh.rs) +
                    " width=" + std::to_string(width);
                dirtyTheHeap(static_cast<std::int64_t>(want.size()));
                const PackedKernel pk(ker, vl, pool.subWidth(width));
                expectPackedBits(pk, want, what);
                // The tail lanes of the last block are +0.0f exactly.
                const std::int64_t kb = pk.numKBlocks() - 1;
                for (std::int64_t lane = sh.k - kb * vl; lane < vl; ++lane)
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(
                                  pk.lanes(kb, sh.c - 1, sh.rs - 1,
                                           sh.rs - 1)[lane]),
                              0u)
                        << what << " lane " << lane;
            }
            dirtyTheHeap(static_cast<std::int64_t>(want.size()));
            expectPackedBits(PackedKernel(ker, vl), want,
                             "serial vl=" + std::to_string(vl) + " K=" +
                                 std::to_string(sh.k));
        }
    }
}

} // namespace
} // namespace mopt
