#include "tensor/packing.hh"

#include <algorithm>

#include "common/logging.hh"

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
    for (std::int64_t j = 0; j < crs; ++j, dst += vec_len_) {
        for (std::int64_t lane = 0; lane < live; ++lane)
            dst[lane] = src[lane * crs + j];
        for (std::int64_t lane = live; lane < vec_len_; ++lane)
            dst[lane] = 0.0f;
    }
}

float
PackedKernel::at(std::int64_t k, std::int64_t c, std::int64_t r,
                 std::int64_t s) const
{
    const std::int64_t kb = k / vec_len_;
    const std::int64_t lane = k % vec_len_;
    return lanes(kb, c, r, s)[lane];
}

} // namespace mopt
