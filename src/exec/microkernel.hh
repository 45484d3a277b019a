/**
 * @file
 * The register-tiled convolution microkernel (Sec. 6 of the paper):
 * an outer-product scheme holding a block of up to 6 output points x
 * 16 output channels in accumulator registers, reused across the
 * whole (c, r, s) reduction of the enclosing L1 tile. Output channels
 * are vectorized via the packed kernel layout (tensor/packing.hh).
 *
 * Two implementations of the full-size block are always compiled:
 *
 *  - an AVX2/FMA kernel, built with a per-function target attribute
 *    (so the build needs no -m flags and the rest of the library keeps
 *    its floating-point code generation), and
 *  - a portable kernel in plain C++.
 *
 * computeRegisterTile() chooses between them once per process from
 * the CPU's reported features; microkernelIsa() names the choice, so
 * the same binary runs (portably) on hosts without AVX2. Both kernels
 * are templated on the block width WB in 1..6, selected by one switch,
 * so the 2 x WB accumulator vectors stay in registers for the whole
 * reduction. The AVX2 kernel writes back with vectors too: each
 * 8-channel x WB-point accumulator half is transposed in registers,
 * then every output channel gets one contiguous row of WB floats added
 * with a masked load/store whose mask covers only those WB lanes, so
 * no point outside the block is read or written.
 */

#ifndef MOPT_EXEC_MICROKERNEL_HH
#define MOPT_EXEC_MICROKERNEL_HH

#include <cstdint>

#include "conv/problem.hh"
#include "tensor/packing.hh"
#include "tensor/tensor.hh"

namespace mopt {

/** Compile-time shape of the fast-path register block. */
struct MicroKernelShape
{
    static constexpr int kVecLen = 8; //!< fp32 lanes (matches packing).
    static constexpr int kKU = 16;    //!< Output channels per block.
    static constexpr int kWU = 6;     //!< Output points per block.
};

/**
 * Accumulate one register tile:
 *
 *   out[n, k0..k0+kb, h, w0..w0+wb] +=
 *     sum over c in [c0,c1), r in [r0,r1), s in [s0,s1) of
 *       in[n, c_off+c, h*stride+r, (w0+wi)*stride+s] * ker[k, c, r, s]
 *
 * Grouped convolution: @p k0 is a *global* output-channel index (the
 * caller folds in the group's k offset, so both out and the packed
 * kernel — whose k axis is global — index directly), while the
 * reduction range [c0, c1) stays group-local (the kernel tensor's C
 * extent is c/groups) and @p c_off relocates it into the input's
 * global channel axis. Dense convs pass c_off = 0.
 *
 * The aligned full-size block (kb == 16, k0 % 8 == 0, 1 <= wb <= 6)
 * runs the kernel microkernelIsa() names; other shapes — including
 * blocks whose global k0 loses alignment at a group boundary — fall
 * back to a scalar loop, which rounds like that kernel (fused
 * multiply-adds under avx2-fma), so a point's value does not depend on
 * which path computed it. The packed kernel must use vector length 8.
 */
void computeRegisterTile(const ConvProblem &p, const Tensor4 &in,
                         const PackedKernel &pk, Tensor4 &out,
                         std::int64_t n, std::int64_t h, std::int64_t w0,
                         std::int64_t wb, std::int64_t k0, std::int64_t kb,
                         std::int64_t c0, std::int64_t c1, std::int64_t r0,
                         std::int64_t r1, std::int64_t s0, std::int64_t s1,
                         std::int64_t c_off = 0);

/**
 * The instruction set computeRegisterTile() runs full-size blocks on:
 * "avx2-fma" when the CPU reports both AVX2 and FMA, else "portable".
 */
const char *microkernelIsa();

namespace detail {

/**
 * The full-size block kernels behind computeRegisterTile(), one entry
 * point per ISA, with its arguments (kb is implicitly 16). The caller
 * guarantees the fast-path preconditions: k0 % 8 == 0,
 * k0 + 16 <= out.dim(1), 1 <= wb <= 6 and a vector-length-8 packed
 * kernel. registerTileAvx2Fma() may only run on a CPU with AVX2 and
 * FMA (it is the portable kernel on non-x86 targets).
 */
void registerTilePortable(const ConvProblem &p, const Tensor4 &in,
                          const PackedKernel &pk, Tensor4 &out,
                          std::int64_t n, std::int64_t h, std::int64_t w0,
                          std::int64_t wb, std::int64_t k0, std::int64_t c0,
                          std::int64_t c1, std::int64_t r0, std::int64_t r1,
                          std::int64_t s0, std::int64_t s1,
                          std::int64_t c_off);

void registerTileAvx2Fma(const ConvProblem &p, const Tensor4 &in,
                         const PackedKernel &pk, Tensor4 &out,
                         std::int64_t n, std::int64_t h, std::int64_t w0,
                         std::int64_t wb, std::int64_t k0, std::int64_t c0,
                         std::int64_t c1, std::int64_t r0, std::int64_t r1,
                         std::int64_t s0, std::int64_t s1,
                         std::int64_t c_off);

} // namespace detail

} // namespace mopt

#endif // MOPT_EXEC_MICROKERNEL_HH
