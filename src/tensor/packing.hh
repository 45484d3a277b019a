/**
 * @file
 * Kernel packing (Sec. 6 of the paper): the output-channel dimension K
 * is split into vector-length chunks laid out innermost,
 * [K, C, R, S] -> [K/vl, C, R, S, vl], so the microkernel gets stride-1
 * access along the vectorized K dimension. The executor packs with
 * vl = 16 (MicroKernelShape::kVecLen): each 16-channel block is one
 * contiguous 64-byte row per (c, r, s), one zmm load for the AVX-512
 * kernel and two 8-lane halves (+0, +8) for the AVX2 and portable
 * ones. The packing cost is part of every measured execution, as in
 * the paper: runConv packs inside its timed region on every call,
 * spreading the k-blocks over its thread pool, and never caches a
 * packed kernel across calls.
 */

#ifndef MOPT_TENSOR_PACKING_HH
#define MOPT_TENSOR_PACKING_HH

#include <cstdint>
#include <memory>

#include "common/thread_pool.hh"
#include "tensor/tensor.hh"

namespace mopt {

/**
 * Kernel tensor packed as [ceil(K/vl)][C][R][S][vl]. The K tail (when K
 * is not a multiple of vl) is zero-padded, which is safe because the
 * extra lanes multiply into output channels that are never stored.
 *
 * Each k-block is filled in write order: the block's [C][R][S][vl]
 * span is written sequentially from vl strided source streams. A full
 * block (vl a multiple of 4) moves 4 x 4 squares through in-register
 * transposes (SSE, the x86-64 baseline); the K tail's block and the
 * last (C*R*S) % 4 rows take a scalar loop, and only the tail lanes
 * are zeroed. Blocks are independent, so the result is bit-identical
 * however they are spread over threads.
 */
class PackedKernel
{
  public:
    /** Pack @p ker (KCRS layout) with vector length @p vec_len on the
     *  calling thread. */
    PackedKernel(const Tensor4 &ker, int vec_len);

    /** Pack as above, with the k-blocks spread over @p pool. */
    PackedKernel(const Tensor4 &ker, int vec_len, ThreadPool::SubWidth pool);

    int vecLen() const { return vec_len_; }
    std::int64_t numChannels() const { return c_; }
    std::int64_t numOutChannels() const { return k_; }
    std::int64_t kernelH() const { return r_; }
    std::int64_t kernelW() const { return s_; }
    std::int64_t numKBlocks() const { return kb_; }

    /** Pointer to the vl-length lane block for (kb, c, r, s). */
    const float *
    lanes(std::int64_t kb, std::int64_t c, std::int64_t r,
          std::int64_t s) const
    {
        return data_.get() +
               static_cast<std::size_t>(
                   (((kb * c_ + c) * r_ + r) * s_ + s) * vec_len_);
    }

    /** Address of output channel @p k's lane for (c, r, s); k is an
     *  original output-channel index. */
    const float *
    address(std::int64_t k, std::int64_t c, std::int64_t r,
            std::int64_t s) const
    {
        return lanes(k / vec_len_, c, r, s) + k % vec_len_;
    }

    /** Element accessor (k is an original output-channel index). */
    float
    at(std::int64_t k, std::int64_t c, std::int64_t r, std::int64_t s) const
    {
        return *address(k, c, r, s);
    }

    /** Flat size in floats (including padding). */
    std::int64_t size() const { return size_; }

  private:
    /** Record @p ker's shape and allocate the (unfilled) buffer. */
    void allocate(const Tensor4 &ker, int vec_len);

    /** Fill k-block @p kb of the buffer from @p ker. */
    void packBlock(const Tensor4 &ker, std::int64_t kb);

    int vec_len_ = 0;
    std::int64_t k_ = 0, c_ = 0, r_ = 0, s_ = 0, kb_ = 0, size_ = 0;
    std::unique_ptr<float[]> data_; //!< Uninitialized until packed.
};

} // namespace mopt

#endif // MOPT_TENSOR_PACKING_HH
