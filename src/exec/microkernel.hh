/**
 * @file
 * The register-tiled convolution microkernel (Sec. 6 of the paper):
 * an outer-product scheme holding a block of up to 6 output points x
 * 16 output channels in accumulator registers, reused across the
 * whole (c, r, s) reduction of the enclosing L1 tile. Output channels
 * are vectorized via the packed kernel layout (tensor/packing.hh),
 * vector length 16: [K/16][C][R][S][16], so a block's 16 channels are
 * one contiguous 64-byte row per (c, r, s).
 *
 * Three implementations of the full-size block are always compiled:
 *
 *  - an AVX-512 kernel (one zmm accumulator per output point, one zmm
 *    load per packed row; the block must start at k0 % 16 == 0),
 *  - an AVX2/FMA kernel (two ymm accumulators per point, reading the
 *    row's two 8-lane halves; k0 % 8 == 0, so a block may straddle
 *    two packed rows), and
 *  - a portable kernel in plain C++ (the AVX2 kernel's halves).
 *
 * The two vector kernels carry per-function target attributes, so the
 * build needs no -m flags and the rest of the library keeps its
 * floating-point code generation. computeRegisterTile() picks once per
 * process from the CPU's reported features, in the order avx512, then
 * avx2-fma, then portable; microkernelIsa() names the choice, so the
 * same binary runs (portably) on hosts without AVX2. Under avx512,
 * blocks at k0 % 16 == 8 (a grouped layer's k offset) run the AVX2
 * kernel. Both vector kernels issue, for every output point, the same
 * FMAs in the same (c, r, s) order, so their outputs are bit-identical.
 * All kernels are templated on the block width WB in 1..6, selected by
 * one switch, so the accumulators stay in registers for the whole
 * reduction. The vector kernels write back with vectors too: each
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
    static constexpr int kVecLen = 16; //!< Packing's vector length.
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
 * An aligned tile (kb a multiple of 16, k0 % 8 == 0, 1 <= wb <= 6)
 * runs as kb / 16 full-size blocks on the kernel microkernelIsa()
 * names (the AVX2 kernel for a block at k0 % 16 == 8 under avx512);
 * other shapes — including blocks whose global k0 loses alignment at a
 * group boundary — fall back to a scalar loop, which rounds like those
 * kernels (fused multiply-adds under avx512 and avx2-fma), so a
 * point's value does not depend on which path computed it. The packed
 * kernel must use vector length MicroKernelShape::kVecLen.
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
 * "avx512" when the CPU reports AVX-512F, AVX2 and FMA, "avx2-fma" when
 * it reports AVX2 and FMA, else "portable".
 */
const char *microkernelIsa();

namespace detail {

/**
 * The full-size block kernels behind computeRegisterTile(), one entry
 * point per ISA, with its arguments (kb is implicitly 16). The caller
 * guarantees the fast-path preconditions: k0 % 8 == 0 (k0 % 16 == 0
 * for registerTileAvx512()), k0 + 16 <= out.dim(1), 1 <= wb <= 6 and a
 * packed kernel of vector length 16. registerTileAvx2Fma() may only
 * run on a CPU with AVX2 and FMA, registerTileAvx512() only on one with
 * AVX-512F as well (both are the portable kernel on non-x86 targets).
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

void registerTileAvx512(const ConvProblem &p, const Tensor4 &in,
                        const PackedKernel &pk, Tensor4 &out,
                        std::int64_t n, std::int64_t h, std::int64_t w0,
                        std::int64_t wb, std::int64_t k0, std::int64_t c0,
                        std::int64_t c1, std::int64_t r0, std::int64_t r1,
                        std::int64_t s0, std::int64_t s1,
                        std::int64_t c_off);

} // namespace detail

} // namespace mopt

#endif // MOPT_EXEC_MICROKERNEL_HH
