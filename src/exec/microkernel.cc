#include "exec/microkernel.hh"

#include <cmath>

#include "common/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MOPT_MICROKERNEL_X86 1
#include <immintrin.h>
// Per-function ISA: only the AVX2 and AVX-512 kernels are compiled for
// their ISAs; the rest of the build keeps the baseline target and its
// FP contraction.
#define MOPT_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))
#define MOPT_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma")))
#else
#define MOPT_MICROKERNEL_X86 0
#endif

namespace mopt {

namespace {

constexpr int VL = MicroKernelShape::kVecLen;
constexpr int KU = MicroKernelShape::kKU;
constexpr int WU = MicroKernelShape::kWU;
/** Lanes of one ymm vector: the AVX2 and portable kernels run a block
 *  as two halves of this many channels. */
constexpr int HL = 8;
static_assert(KU == VL && KU == 2 * HL,
              "a block is one packed row of two ymm halves");

/** One register block: the arguments of computeRegisterTile() minus
 *  wb (a template parameter of the block kernels) and kb. */
struct Block
{
    const ConvProblem &p;
    const Tensor4 &in;
    const PackedKernel &pk;
    Tensor4 &out;
    std::int64_t n, h, w0, k0, c0, c1, r0, r1, s0, s1, c_off;
};

/** Run Kernel<WB>::run for the run-time block width @p wb in 1..WU. */
template <template <int> class Kernel>
void
runWidth(std::int64_t wb, const Block &b)
{
    static_assert(WU == 6, "one case per block width");
    switch (wb) {
      case 1: return Kernel<1>::run(b);
      case 2: return Kernel<2>::run(b);
      case 3: return Kernel<3>::run(b);
      case 4: return Kernel<4>::run(b);
      case 5: return Kernel<5>::run(b);
      case 6: return Kernel<6>::run(b);
      default: panic("microkernel: block width out of range");
    }
}

/**
 * Portable kernel: full 16-channel block starting at an 8-aligned k0,
 * WB output points. Accumulators live across the whole (c, r, s)
 * reduction, the outer-product scheme of Fig. 4. The block's two
 * 8-channel halves sit in one packed row (k0 % 16 == 0) or at the end
 * of one and the start of the next (k0 % 16 == 8).
 */
template <int WB>
struct PortableKernel
{
    static void
    run(const Block &b)
    {
        const std::int64_t stride = b.p.stride;
        const std::int64_t dil = b.p.dilation;
        float acc[WB][KU] = {};
        for (std::int64_t c = b.c0; c < b.c1; ++c) {
            for (std::int64_t r = b.r0; r < b.r1; ++r) {
                const float *in_row =
                    b.in.data() + b.in.offset(b.n, b.c_off + c,
                                              b.h * stride + r * dil,
                                              b.w0 * stride);
                for (std::int64_t s = b.s0; s < b.s1; ++s) {
                    const float *ker0 = b.pk.address(b.k0, c, r, s);
                    const float *ker1 = b.pk.address(b.k0 + HL, c, r, s);
                    const float *ip = in_row + s * dil;
                    for (int wi = 0; wi < WB; ++wi) {
                        const float iv = ip[wi * stride];
                        for (int l = 0; l < HL; ++l) {
                            acc[wi][l] += iv * ker0[l];
                            acc[wi][HL + l] += iv * ker1[l];
                        }
                    }
                }
            }
        }
        // Out layout is NKHW: channel k is strided by H*W.
        float *o = b.out.data() + b.out.offset(b.n, b.k0, b.h, b.w0);
        const std::int64_t kstride = b.out.dim(2) * b.out.dim(3);
        for (int wi = 0; wi < WB; ++wi)
            for (int ki = 0; ki < KU; ++ki)
                o[ki * kstride + wi] += acc[wi][ki];
    }
};

#if MOPT_MICROKERNEL_X86

/**
 * Add one accumulator half (8 channels x WB points, one vector per
 * point) into the NKHW output: transpose it in registers to one vector
 * per channel, then add each channel's contiguous row of WB points
 * with a masked load/store that touches exactly those WB floats.
 */
template <int WB>
[[gnu::always_inline]] MOPT_TARGET_AVX2_FMA inline void
addHalfAvx2(const __m256 (&acc)[WB], float *o, std::int64_t kstride)
{
    __m256 row[HL];
    for (int i = 0; i < HL; ++i)
        row[i] = _mm256_setzero_ps();
#pragma GCC unroll 8
    for (int i = 0; i < WB; ++i)
        row[i] = acc[i];

    // 8x8 transpose: unpack pairs, shuffle quads, swap 128-bit halves.
    __m256 t[HL], q[HL];
    for (int i = 0; i < HL; i += 2) {
        t[i] = _mm256_unpacklo_ps(row[i], row[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(row[i], row[i + 1]);
    }
    for (int i = 0; i < HL; i += 4) {
        q[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        q[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    __m256 col[HL];
    for (int i = 0; i < 4; ++i) {
        col[i] = _mm256_permute2f128_ps(q[i], q[i + 4], 0x20);
        col[i + 4] = _mm256_permute2f128_ps(q[i], q[i + 4], 0x31);
    }

    const __m256i mask = _mm256_setr_epi32(
        WB > 0 ? -1 : 0, WB > 1 ? -1 : 0, WB > 2 ? -1 : 0, WB > 3 ? -1 : 0,
        WB > 4 ? -1 : 0, WB > 5 ? -1 : 0, WB > 6 ? -1 : 0, WB > 7 ? -1 : 0);
    for (int ki = 0; ki < HL; ++ki) {
        float *dst = o + ki * kstride;
        const __m256 sum =
            _mm256_add_ps(_mm256_maskload_ps(dst, mask), col[ki]);
        _mm256_maskstore_ps(dst, mask, sum);
    }
}

/** AVX2/FMA kernel: the portable kernel's block with its 2 x WB
 *  accumulators in ymm registers and a vector write-back. */
template <int WB>
struct Avx2FmaKernel
{
    MOPT_TARGET_AVX2_FMA static void
    run(const Block &b)
    {
        // Flat strides, so the reduction runs on local pointers. Every
        // loop over the accumulators is unrolled (#pragma) before the
        // compiler decides what lives in memory, so each accumulator
        // stays in its own register for the whole block.
        const std::int64_t istep = b.p.stride;
        const std::int64_t idil = b.p.dilation;
        const std::int64_t ic = b.in.dim(2) * b.in.dim(3);
        const std::int64_t ir = idil * b.in.dim(3);
        const std::int64_t kr = b.pk.kernelW() * VL;
        const std::int64_t kc = b.pk.kernelH() * kr;
        const float *in0 =
            b.in.data() + b.in.offset(b.n, b.c_off, b.h * istep,
                                      b.w0 * istep);
        const float *ker0 = b.pk.address(b.k0, 0, 0, 0);
        // The upper half: +8 in the same row, or the next row's start.
        const std::int64_t khalf = b.pk.address(b.k0 + HL, 0, 0, 0) - ker0;

        __m256 acc0[WB], acc1[WB];
#pragma GCC unroll 8
        for (int wi = 0; wi < WB; ++wi) {
            acc0[wi] = _mm256_setzero_ps();
            acc1[wi] = _mm256_setzero_ps();
        }
        for (std::int64_t c = b.c0; c < b.c1; ++c) {
            for (std::int64_t r = b.r0; r < b.r1; ++r) {
                const float *ip = in0 + c * ic + r * ir + b.s0 * idil;
                const float *kp = ker0 + c * kc + r * kr + b.s0 * VL;
                for (std::int64_t s = b.s0; s < b.s1;
                     ++s, ip += idil, kp += VL) {
                    const __m256 kv0 = _mm256_loadu_ps(kp);
                    const __m256 kv1 = _mm256_loadu_ps(kp + khalf);
#pragma GCC unroll 8
                    for (int wi = 0; wi < WB; ++wi) {
                        const __m256 iv =
                            _mm256_broadcast_ss(ip + wi * istep);
                        acc0[wi] = _mm256_fmadd_ps(iv, kv0, acc0[wi]);
                        acc1[wi] = _mm256_fmadd_ps(iv, kv1, acc1[wi]);
                    }
                }
            }
        }
        float *o = b.out.data() + b.out.offset(b.n, b.k0, b.h, b.w0);
        const std::int64_t kstride = b.out.dim(2) * b.out.dim(3);
        addHalfAvx2<WB>(acc0, o, kstride);
        addHalfAvx2<WB>(acc1, o + HL * kstride, kstride);
    }
};

/**
 * AVX-512 kernel: the same block (k0 % 16 == 0) with one zmm
 * accumulator per output point, loaded from the packed row in one
 * vector. Each point runs the AVX2 kernel's FMAs in the same (c, r, s)
 * order, so its outputs are bit-identical; the write-back splits every
 * accumulator into its two ymm halves and reuses the AVX2 one.
 */
template <int WB>
struct Avx512Kernel
{
    MOPT_TARGET_AVX512 static void
    run(const Block &b)
    {
        const std::int64_t istep = b.p.stride;
        const std::int64_t idil = b.p.dilation;
        const std::int64_t ic = b.in.dim(2) * b.in.dim(3);
        const std::int64_t ir = idil * b.in.dim(3);
        const std::int64_t kr = b.pk.kernelW() * VL;
        const std::int64_t kc = b.pk.kernelH() * kr;
        const float *in0 =
            b.in.data() + b.in.offset(b.n, b.c_off, b.h * istep,
                                      b.w0 * istep);
        const float *ker0 = b.pk.lanes(b.k0 / VL, 0, 0, 0);

        __m512 acc[WB];
#pragma GCC unroll 8
        for (int wi = 0; wi < WB; ++wi)
            acc[wi] = _mm512_setzero_ps();
        for (std::int64_t c = b.c0; c < b.c1; ++c) {
            for (std::int64_t r = b.r0; r < b.r1; ++r) {
                const float *ip = in0 + c * ic + r * ir + b.s0 * idil;
                const float *kp = ker0 + c * kc + r * kr + b.s0 * VL;
                for (std::int64_t s = b.s0; s < b.s1;
                     ++s, ip += idil, kp += VL) {
                    const __m512 kv = _mm512_loadu_ps(kp);
#pragma GCC unroll 8
                    for (int wi = 0; wi < WB; ++wi)
                        acc[wi] = _mm512_fmadd_ps(
                            _mm512_set1_ps(ip[wi * istep]), kv, acc[wi]);
                }
            }
        }
        // The ymm halves by a plain vector shuffle: GCC 12's bodies of
        // _mm512_castps512_ps256 and _mm512_shuffle_f32x4 read an
        // undefined vector, which -Wuninitialized flags at -O2.
        __m256 lo[WB], hi[WB];
#pragma GCC unroll 8
        for (int wi = 0; wi < WB; ++wi) {
            lo[wi] = __builtin_shufflevector(acc[wi], acc[wi], 0, 1, 2, 3,
                                             4, 5, 6, 7);
            hi[wi] = __builtin_shufflevector(acc[wi], acc[wi], 8, 9, 10,
                                             11, 12, 13, 14, 15);
        }
        float *o = b.out.data() + b.out.offset(b.n, b.k0, b.h, b.w0);
        const std::int64_t kstride = b.out.dim(2) * b.out.dim(3);
        addHalfAvx2<WB>(lo, o, kstride);
        addHalfAvx2<WB>(hi, o + HL * kstride, kstride);
    }
};

#endif // MOPT_MICROKERNEL_X86

/** acc + x * y, fused (one rounding, as the AVX2 and AVX-512 kernels'
 *  FMAs) or as a multiply then an add (as the portable kernel). */
template <bool Fused>
[[gnu::always_inline]] inline float
mulAdd(float acc, float x, float y)
{
    if constexpr (Fused)
        return std::fma(x, y, acc);
    else
        return acc + x * y;
}

/**
 * Scalar fallback for edge blocks (unaligned k0 or short kb/wb). It
 * rounds like the block kernel it stands in for, so an output point's
 * value does not depend on which path computed it (a parallel split
 * can turn one full block into two edge blocks).
 */
template <bool Fused>
[[gnu::always_inline]] inline void
scalarTile(const Block &b, std::int64_t wb, std::int64_t kb)
{
    const std::int64_t stride = b.p.stride;
    const std::int64_t dil = b.p.dilation;
    for (std::int64_t k = b.k0; k < b.k0 + kb; ++k) {
        for (std::int64_t wi = 0; wi < wb; ++wi) {
            float acc = 0.0f;
            for (std::int64_t c = b.c0; c < b.c1; ++c)
                for (std::int64_t r = b.r0; r < b.r1; ++r)
                    for (std::int64_t s = b.s0; s < b.s1; ++s)
                        acc = mulAdd<Fused>(
                            acc,
                            b.in.at(b.n, b.c_off + c, b.h * stride + r * dil,
                                    (b.w0 + wi) * stride + s * dil),
                            b.pk.at(k, c, r, s));
            b.out.at(b.n, k, b.h, b.w0 + wi) += acc;
        }
    }
}

void
scalarTilePortable(const Block &b, std::int64_t wb, std::int64_t kb)
{
    scalarTile<false>(b, wb, kb);
}

#if MOPT_MICROKERNEL_X86
MOPT_TARGET_AVX2_FMA void
scalarTileFma(const Block &b, std::int64_t wb, std::int64_t kb)
{
    scalarTile<true>(b, wb, kb);
}
#endif

/** The kernels this process runs, chosen once from the CPU. */
struct IsaKernels
{
    decltype(&detail::registerTilePortable) block; //!< k0 % 16 == 0.
    decltype(&detail::registerTilePortable) half;  //!< k0 % 16 == 8.
    decltype(&scalarTilePortable) edge;
    const char *name;
};

IsaKernels
selectKernels()
{
#if MOPT_MICROKERNEL_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        if (__builtin_cpu_supports("avx512f"))
            return {&detail::registerTileAvx512, &detail::registerTileAvx2Fma,
                    &scalarTileFma, "avx512"};
        return {&detail::registerTileAvx2Fma, &detail::registerTileAvx2Fma,
                &scalarTileFma, "avx2-fma"};
    }
#endif
    return {&detail::registerTilePortable, &detail::registerTilePortable,
            &scalarTilePortable, "portable"};
}

const IsaKernels &
isaKernels()
{
    static const IsaKernels kernels = selectKernels();
    return kernels;
}

} // namespace

namespace detail {

void
registerTilePortable(const ConvProblem &p, const Tensor4 &in,
                     const PackedKernel &pk, Tensor4 &out, std::int64_t n,
                     std::int64_t h, std::int64_t w0, std::int64_t wb,
                     std::int64_t k0, std::int64_t c0, std::int64_t c1,
                     std::int64_t r0, std::int64_t r1, std::int64_t s0,
                     std::int64_t s1, std::int64_t c_off)
{
    runWidth<PortableKernel>(
        wb, {p, in, pk, out, n, h, w0, k0, c0, c1, r0, r1, s0, s1, c_off});
}

void
registerTileAvx2Fma(const ConvProblem &p, const Tensor4 &in,
                    const PackedKernel &pk, Tensor4 &out, std::int64_t n,
                    std::int64_t h, std::int64_t w0, std::int64_t wb,
                    std::int64_t k0, std::int64_t c0, std::int64_t c1,
                    std::int64_t r0, std::int64_t r1, std::int64_t s0,
                    std::int64_t s1, std::int64_t c_off)
{
#if MOPT_MICROKERNEL_X86
    runWidth<Avx2FmaKernel>(
        wb, {p, in, pk, out, n, h, w0, k0, c0, c1, r0, r1, s0, s1, c_off});
#else
    registerTilePortable(p, in, pk, out, n, h, w0, wb, k0, c0, c1, r0, r1,
                         s0, s1, c_off);
#endif
}

void
registerTileAvx512(const ConvProblem &p, const Tensor4 &in,
                   const PackedKernel &pk, Tensor4 &out, std::int64_t n,
                   std::int64_t h, std::int64_t w0, std::int64_t wb,
                   std::int64_t k0, std::int64_t c0, std::int64_t c1,
                   std::int64_t r0, std::int64_t r1, std::int64_t s0,
                   std::int64_t s1, std::int64_t c_off)
{
#if MOPT_MICROKERNEL_X86
    runWidth<Avx512Kernel>(
        wb, {p, in, pk, out, n, h, w0, k0, c0, c1, r0, r1, s0, s1, c_off});
#else
    registerTilePortable(p, in, pk, out, n, h, w0, wb, k0, c0, c1, r0, r1,
                         s0, s1, c_off);
#endif
}

} // namespace detail

const char *
microkernelIsa()
{
    return isaKernels().name;
}

void
computeRegisterTile(const ConvProblem &p, const Tensor4 &in,
                    const PackedKernel &pk, Tensor4 &out, std::int64_t n,
                    std::int64_t h, std::int64_t w0, std::int64_t wb,
                    std::int64_t k0, std::int64_t kb, std::int64_t c0,
                    std::int64_t c1, std::int64_t r0, std::int64_t r1,
                    std::int64_t s0, std::int64_t s1, std::int64_t c_off)
{
    checkInvariant(pk.vecLen() == VL,
                   "computeRegisterTile: packed kernel vector length");
    const IsaKernels &isa = isaKernels();
    if (kb % KU == 0 && k0 % HL == 0 && wb <= WU && wb >= 1 &&
        k0 + kb <= out.dim(1)) {
        // A wider register tile (i9: 32 channels) runs as 16-channel
        // blocks; each output point keeps its FMA order.
        for (std::int64_t k = k0; k < k0 + kb; k += KU)
            (k % VL == 0 ? isa.block : isa.half)(p, in, pk, out, n, h, w0,
                                                 wb, k, c0, c1, r0, r1, s0,
                                                 s1, c_off);
    } else {
        isa.edge({p, in, pk, out, n, h, w0, k0, c0, c1, r0, r1, s0, s1, c_off},
                 wb, kb);
    }
}

} // namespace mopt
