#include "tensor/packing.hh"

#include <algorithm>

#include "common/logging.hh"

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace mopt {

PackedKernel::PackedKernel(const Tensor4 &ker, int vec_len)
{
    allocate(ker, vec_len);
    for (std::int64_t kb = 0; kb < kb_; ++kb)
        packBlock(ker, kb);
}

PackedKernel::PackedKernel(const Tensor4 &ker, int vec_len,
                           ThreadPool::SubWidth pool)
{
    allocate(ker, vec_len);
    pool.parallelFor(static_cast<std::size_t>(kb_), [&](std::size_t kb) {
        packBlock(ker, static_cast<std::int64_t>(kb));
    });
}

void
PackedKernel::allocate(const Tensor4 &ker, int vec_len)
{
    checkUser(vec_len >= 1, "PackedKernel: vec_len must be >= 1");
    vec_len_ = vec_len;
    k_ = ker.dim(0);
    c_ = ker.dim(1);
    r_ = ker.dim(2);
    s_ = ker.dim(3);
    kb_ = (k_ + vec_len_ - 1) / vec_len_;
    size_ = kb_ * c_ * r_ * s_ * vec_len_;
    // Default-initialized: packBlock writes every element exactly once.
    data_.reset(new float[static_cast<std::size_t>(size_)]);
}

void
PackedKernel::packBlock(const Tensor4 &ker, std::int64_t kb)
{
    const std::int64_t crs = c_ * r_ * s_;
    const std::int64_t k0 = kb * vec_len_;
    const std::int64_t live = std::min<std::int64_t>(vec_len_, k_ - k0);
    const float *src = ker.data() + k0 * crs;
    float *dst = data_.get() + k0 * crs;
    std::int64_t j = 0;
#if defined(__SSE__)
    // A full block is a [vl][crs] -> [crs][vl] transpose: move it in
    // 4 x 4 squares (4 lanes' streams in, 4 rows of the block out).
    if (live == vec_len_ && vec_len_ % 4 == 0) {
        for (; j + 4 <= crs; j += 4, dst += 4 * vec_len_) {
            for (std::int64_t lane = 0; lane < vec_len_; lane += 4) {
                const float *sp = src + lane * crs + j;
                __m128 r0 = _mm_loadu_ps(sp);
                __m128 r1 = _mm_loadu_ps(sp + crs);
                __m128 r2 = _mm_loadu_ps(sp + 2 * crs);
                __m128 r3 = _mm_loadu_ps(sp + 3 * crs);
                _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
                _mm_storeu_ps(dst + lane, r0);
                _mm_storeu_ps(dst + vec_len_ + lane, r1);
                _mm_storeu_ps(dst + 2 * vec_len_ + lane, r2);
                _mm_storeu_ps(dst + 3 * vec_len_ + lane, r3);
            }
        }
    }
#endif
    // The rest: the K tail's block, and the last crs % 4 rows.
    for (; j < crs; ++j, dst += vec_len_) {
        for (std::int64_t lane = 0; lane < live; ++lane)
            dst[lane] = src[lane * crs + j];
        for (std::int64_t lane = live; lane < vec_len_; ++lane)
            dst[lane] = 0.0f;
    }
}

} // namespace mopt
