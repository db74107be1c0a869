// The packed-panel GEMM underneath every matmul/conv in the library, plus
// the register-tiled micro-kernels it dispatches to. One blocked driver
// (serial jc/pc loops, parallel MC row panels — bitwise-independent of the
// thread count) is shared by every backend and by the fp32 / half-storage
// entry points; only the innermost MR×NR tile differs:
//
//   scalar  6×16  plain C, compiled without auto-vectorization — the
//                 always-on parity reference every SIMD tier is tested
//                 against (tolerance, per shape, ragged tails included)
//   avx2    6×16  12 ymm accumulators + broadcast FMA
//   avx512 12×32  24 zmm accumulators + broadcast FMA
//   neon    6×16  24 float32x4 accumulators + lane-broadcast FMA
//
// Short-M fp32 problems (m ≤ kShortMaxM = 36: conv's GEMMs, where m is
// out channels per group or in·k·k) skip the blocked path on the x86 tiers,
// since a few row strips cannot amortize packing B:
//
//   B-direct      untransposed B (conv forward, column gradient Wᵀ·dY): A
//                 packed, op(B) rows streamed from the source with masked
//                 tail loads
//   transposed-B  op(B) = Bᵀ with untransposed A (weight gradient
//                 gW += dY·colᵀ): 16×16 (AVX-512) or 8×8 (AVX2) register
//                 transposes turn rows of B into an L1 strip of op(B) rows,
//                 and A rows are broadcast in place, so only the m real rows
//                 accumulate
//
// Both give every element the bits of the blocked path: one FMA chain from
// zero per KC chunk in ascending k, then c = fma(alpha, acc, c). Scalar and
// NEON keep the blocked path, where a transposed fp32 B is packed through
// 8×8 in-register transposes on the x86 tiers (the bytes match the generic
// pack, which the scalar reference keeps).
//
// Half-precision (f16/bf16) operands are widened to fp32 inside the packing
// routines — the micro-kernels only ever see fp32 panels, so accumulation
// is fp32 regardless of the storage dtype (the mixed-precision contract).

#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if !defined(FEDTRANS_NO_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define FEDTRANS_HAVE_AVX2 1
#endif
#if !defined(FEDTRANS_NO_SIMD) && defined(__AVX512F__)
#define FEDTRANS_HAVE_AVX512 1
#endif
#if !defined(FEDTRANS_NO_SIMD) && defined(__ARM_NEON)
#define FEDTRANS_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace fedtrans {

namespace {

// Cache blocking shared by all backends: MC×KC A-panels and KC×NC B-panels
// sized to stay resident in L2. kMc and kNc are divisible by every tier's
// MR/NR, so strip boundaries never straddle a cache block.
constexpr int kMc = 96;
constexpr int kKc = 256;
constexpr int kNc = 512;
// Below this many MACs the packing overhead dominates; use the plain loop
// (shared by all backends — the backend switch selects the packed
// micro-kernel only).
constexpr std::int64_t kSmallGemm = 32 * 32 * 32;
// fp32 products of at most this many rows take a short-M kernel on the x86
// SIMD tiers (a few row strips cannot amortize packing B): the B-direct one
// for an untransposed B, the transposed-B one otherwise. It covers conv's
// weight gradient (m = output channels per group) and its column gradient
// Wᵀ·dY (m = in·k·k per group, 27 and 36 on the narrow models).
constexpr int kShortMaxM = 36;

// ---- element readers --------------------------------------------------------
// The packing routines are templated over these, which is what fuses the
// half→fp32 widening into the pack (no separate converted copy of A/B).

inline float half_load(std::uint16_t bits, Dtype d) {
  if (d == Dtype::BF16) return bf16_bits_to_f32(bits);
#if defined(FEDTRANS_HAVE_AVX2) && defined(__F16C__)
  return _cvtsh_ss(bits);
#else
  return f16_bits_to_f32(bits);
#endif
}

struct F32ReaderA {
  const float* a;
  int lda;
  bool trans;
  float operator()(int i, int p) const {
    return trans ? a[static_cast<std::size_t>(p) * lda + i]
                 : a[static_cast<std::size_t>(i) * lda + p];
  }
};

struct F32ReaderB {
  const float* b;
  int ldb;
  bool trans;
  float operator()(int p, int j) const {
    return trans ? b[static_cast<std::size_t>(j) * ldb + p]
                 : b[static_cast<std::size_t>(p) * ldb + j];
  }
};

struct HalfReaderA {
  const std::uint16_t* a;
  int lda;
  bool trans;
  Dtype dt;
  float operator()(int i, int p) const {
    return half_load(trans ? a[static_cast<std::size_t>(p) * lda + i]
                           : a[static_cast<std::size_t>(i) * lda + p],
                     dt);
  }
};

struct HalfReaderB {
  const std::uint16_t* b;
  int ldb;
  bool trans;
  Dtype dt;
  float operator()(int p, int j) const {
    return half_load(trans ? b[static_cast<std::size_t>(j) * ldb + p]
                           : b[static_cast<std::size_t>(p) * ldb + j],
                     dt);
  }
};

// ---- packing ----------------------------------------------------------------

// Pack op(A)(ic:ic+mc, pc:pc+kc) into mr_t-row strips, column-major within
// each strip, zero-padding the ragged bottom strip so the micro-kernel
// never branches on the row count.
template <class ElemA>
void pack_a(ElemA ea, int ic, int mc, int pc, int kc, int mr_t, float* ap) {
  for (int ir = 0; ir < mc; ir += mr_t) {
    const int mr = std::min(mr_t, mc - ir);
    for (int p = 0; p < kc; ++p) {
      for (int i = 0; i < mr; ++i) ap[i] = ea(ic + ir + i, pc + p);
      for (int i = mr; i < mr_t; ++i) ap[i] = 0.0f;
      ap += mr_t;
    }
  }
}

// Pack op(B)(pc:pc+kc, jc:jc+nc) into nr_t-column strips, row-major within
// each strip, zero-padding the ragged right strip.
template <class ElemB>
void pack_b(ElemB eb, int pc, int kc, int jc, int nc, int nr_t, float* bp) {
  for (int jr = 0; jr < nc; jr += nr_t) {
    const int nr = std::min(nr_t, nc - jr);
    for (int p = 0; p < kc; ++p) {
      for (int j = 0; j < nr; ++j) bp[j] = eb(pc + p, jc + jr + j);
      for (int j = nr; j < nr_t; ++j) bp[j] = 0.0f;
      bp += nr_t;
    }
  }
}

#ifdef FEDTRANS_HAVE_AVX2
// Transposes the 8×8 block src(0:8, 0:8) (row stride ld) into dst (row
// stride ldd): dst row q holds source column q. Source rows at or past
// `rows` read as zero and are never loaded.
inline void transpose8x8_avx2(const float* src, std::size_t ld, int rows,
                              float* dst, std::size_t ldd) {
  __m256 r[8];
  for (int i = 0; i < 8; ++i)
    r[i] = i < rows ? _mm256_loadu_ps(src + i * ld) : _mm256_setzero_ps();
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst, _mm256_permute2f128_ps(u0, u4, 0x20));
  _mm256_storeu_ps(dst + ldd, _mm256_permute2f128_ps(u1, u5, 0x20));
  _mm256_storeu_ps(dst + 2 * ldd, _mm256_permute2f128_ps(u2, u6, 0x20));
  _mm256_storeu_ps(dst + 3 * ldd, _mm256_permute2f128_ps(u3, u7, 0x20));
  _mm256_storeu_ps(dst + 4 * ldd, _mm256_permute2f128_ps(u0, u4, 0x31));
  _mm256_storeu_ps(dst + 5 * ldd, _mm256_permute2f128_ps(u1, u5, 0x31));
  _mm256_storeu_ps(dst + 6 * ldd, _mm256_permute2f128_ps(u2, u6, 0x31));
  _mm256_storeu_ps(dst + 7 * ldd, _mm256_permute2f128_ps(u3, u7, 0x31));
}

// pack_b for a transposed fp32 B (op(B) = Bᵀ) on the blocked path. A packed
// strip row holds nr_t consecutive op(B) columns, which are rows of the
// stored B, so the generic pack reads each element from a different source
// row. Here 8×8 blocks move through an in-register transpose instead. The
// packed bytes equal pack_b's; the ragged tails (kc % 8 rows, nr % 8
// columns) and the zero padding are written element by element.
void pack_b_trans_avx2(const float* b, int ldb, int pc, int kc, int jc,
                       int nc, int nr_t, float* bp) {
  for (int jr = 0; jr < nc; jr += nr_t) {
    const int nr = std::min(nr_t, nc - jr);
    const int nr8 = nr & ~7;
    // Column j of this strip is row jc + jr + j of the stored B.
    const float* src = b + static_cast<std::size_t>(jc + jr) * ldb + pc;
    auto tail_row = [&](int p) {
      float* dst = bp + static_cast<std::size_t>(p) * nr_t;
      for (int j = nr8; j < nr; ++j)
        dst[j] = src[static_cast<std::size_t>(j) * ldb + p];
      for (int j = nr; j < nr_t; ++j) dst[j] = 0.0f;
    };
    int p = 0;
    for (; p + 8 <= kc; p += 8) {
      for (int j = 0; j < nr8; j += 8)
        transpose8x8_avx2(src + static_cast<std::size_t>(j) * ldb + p,
                          static_cast<std::size_t>(ldb), 8,
                          bp + static_cast<std::size_t>(p) * nr_t + j,
                          static_cast<std::size_t>(nr_t));
      for (int q = 0; q < 8; ++q) tail_row(p + q);
    }
    for (; p < kc; ++p) {
      float* dst = bp + static_cast<std::size_t>(p) * nr_t;
      for (int j = 0; j < nr8; ++j)
        dst[j] = src[static_cast<std::size_t>(j) * ldb + p];
      tail_row(p);
    }
    bp += static_cast<std::size_t>(nr_t) * kc;
  }
}

// Whether pack_b_trans_avx2 is compiled in, for the tiers that use it.
constexpr bool kHaveAvx2Pack = true;
#else
constexpr bool kHaveAvx2Pack = false;
#endif  // FEDTRANS_HAVE_AVX2

// ---- micro-kernels ----------------------------------------------------------
// C(0:mr, 0:nr) += alpha * Ap · Bp for one packed strip pair. Each kernel
// accumulates its full MR×NR tile in registers, then writes back the valid
// region (ragged edges spill through a stack tile).
//
// Every micro_kernel_* starts on a 64-byte boundary. Otherwise its offset
// within a cache line follows the size of whatever links ahead of this
// file, and unrelated code changes move whole-run timings by ~10%
// (scripts/ci.sh checks the alignment with nm).

using MicroFn = void (*)(int kc, float alpha, const float* ap,
                         const float* bp, float* c, int ldc, int mr, int nr);

// The scalar reference is kept genuinely scalar: without the attribute GCC
// auto-vectorizes this loop nest under -march=native, which would make
// "scalar vs SIMD" parity tests compare two vectorized kernels.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif
__attribute__((aligned(64)))
void micro_kernel_scalar(int kc, float alpha, const float* ap,
                         const float* bp, float* c, int ldc, int mr, int nr) {
  constexpr int MR = 6, NR = 16;
  float acc[MR][NR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = bp + static_cast<std::size_t>(p) * NR;
    for (int i = 0; i < MR; ++i) {
      const float av = arow[i];
      for (int j = 0; j < NR; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += alpha * acc[i][j];
  }
}

// The SIMD kernels name every accumulator explicitly and unroll the row
// loop by hand (BLIS-style): indexed accumulator arrays make GCC keep the
// tile on the stack, turning every FMA into a load-op-store and capping the
// kernel at memory speed. The FT_GEMM_ROW macros exist only to spell out
// that unroll without 24 copy-pasted lines.

#ifdef FEDTRANS_HAVE_AVX2
__attribute__((aligned(64)))
void micro_kernel_avx2(int kc, float alpha, const float* ap, const float* bp,
                       float* c, int ldc, int mr, int nr) {
  constexpr int MR = 6, NR = 16;
  __m256 a0r0, a0r1, a1r0, a1r1, a2r0, a2r1, a3r0, a3r1, a4r0, a4r1, a5r0,
      a5r1;
  a0r0 = a0r1 = a1r0 = a1r1 = a2r0 = a2r1 = a3r0 = a3r1 = a4r0 = a4r1 =
      a5r0 = a5r1 = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = bp + static_cast<std::size_t>(p) * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
#define FT_GEMM_ROW(i)                              \
  {                                                 \
    const __m256 av = _mm256_set1_ps(arow[i]);      \
    a##i##r0 = _mm256_fmadd_ps(av, b0, a##i##r0);   \
    a##i##r1 = _mm256_fmadd_ps(av, b1, a##i##r1);   \
  }
    FT_GEMM_ROW(0) FT_GEMM_ROW(1) FT_GEMM_ROW(2)
    FT_GEMM_ROW(3) FT_GEMM_ROW(4) FT_GEMM_ROW(5)
#undef FT_GEMM_ROW
  }
  const __m256 acc[MR][2] = {{a0r0, a0r1}, {a1r0, a1r1}, {a2r0, a2r1},
                             {a3r0, a3r1}, {a4r0, a4r1}, {a5r0, a5r1}};
  const __m256 va = _mm256_set1_ps(alpha);
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm256_storeu_ps(crow,
                       _mm256_fmadd_ps(va, acc[i][0], _mm256_loadu_ps(crow)));
      _mm256_storeu_ps(
          crow + 8, _mm256_fmadd_ps(va, acc[i][1], _mm256_loadu_ps(crow + 8)));
    }
  } else {
    float tmp[NR];
    for (int i = 0; i < mr; ++i) {
      _mm256_storeu_ps(tmp, acc[i][0]);
      _mm256_storeu_ps(tmp + 8, acc[i][1]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += alpha * tmp[j];
    }
  }
}
#endif  // FEDTRANS_HAVE_AVX2

#ifdef FEDTRANS_HAVE_AVX512
__attribute__((aligned(64)))
void micro_kernel_avx512(int kc, float alpha, const float* ap,
                         const float* bp, float* c, int ldc, int mr, int nr) {
  constexpr int MR = 12, NR = 32;
  __m512 a0r0, a0r1, a1r0, a1r1, a2r0, a2r1, a3r0, a3r1, a4r0, a4r1, a5r0,
      a5r1, a6r0, a6r1, a7r0, a7r1, a8r0, a8r1, a9r0, a9r1, a10r0, a10r1,
      a11r0, a11r1;
  a0r0 = a0r1 = a1r0 = a1r1 = a2r0 = a2r1 = a3r0 = a3r1 = a4r0 = a4r1 =
      a5r0 = a5r1 = a6r0 = a6r1 = a7r0 = a7r1 = a8r0 = a8r1 = a9r0 = a9r1 =
          a10r0 = a10r1 = a11r0 = a11r1 = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = bp + static_cast<std::size_t>(p) * NR;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
#define FT_GEMM_ROW(i)                              \
  {                                                 \
    const __m512 av = _mm512_set1_ps(arow[i]);      \
    a##i##r0 = _mm512_fmadd_ps(av, b0, a##i##r0);   \
    a##i##r1 = _mm512_fmadd_ps(av, b1, a##i##r1);   \
  }
    FT_GEMM_ROW(0) FT_GEMM_ROW(1) FT_GEMM_ROW(2) FT_GEMM_ROW(3)
    FT_GEMM_ROW(4) FT_GEMM_ROW(5) FT_GEMM_ROW(6) FT_GEMM_ROW(7)
    FT_GEMM_ROW(8) FT_GEMM_ROW(9) FT_GEMM_ROW(10) FT_GEMM_ROW(11)
#undef FT_GEMM_ROW
  }
  const __m512 acc[MR][2] = {
      {a0r0, a0r1}, {a1r0, a1r1}, {a2r0, a2r1},   {a3r0, a3r1},
      {a4r0, a4r1}, {a5r0, a5r1}, {a6r0, a6r1},   {a7r0, a7r1},
      {a8r0, a8r1}, {a9r0, a9r1}, {a10r0, a10r1}, {a11r0, a11r1}};
  const __m512 va = _mm512_set1_ps(alpha);
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm512_storeu_ps(crow,
                       _mm512_fmadd_ps(va, acc[i][0], _mm512_loadu_ps(crow)));
      _mm512_storeu_ps(crow + 16, _mm512_fmadd_ps(va, acc[i][1],
                                                  _mm512_loadu_ps(crow + 16)));
    }
  } else {
    float tmp[NR];
    for (int i = 0; i < mr; ++i) {
      _mm512_storeu_ps(tmp, acc[i][0]);
      _mm512_storeu_ps(tmp + 16, acc[i][1]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += alpha * tmp[j];
    }
  }
}
#endif  // FEDTRANS_HAVE_AVX512

// ---- B-direct short-M kernels ----------------------------------------------
// Variants that stream op(B) rows straight from the source matrix instead of
// a packed panel. With only one or two row strips of A to amortize it (the
// grouped-conv GEMMs: m = oc/groups), packing B costs more memory traffic
// than the kernel saves — B is read exactly once either way. A stays packed
// (it is tiny), the per-tile accumulation order matches the packed kernels,
// and ragged right edges are handled with masked loads instead of the packed
// panel's zero padding. Only non-transposed B qualifies (a transposed B
// cannot be streamed row-wise; it has the transposed-B kernels below) and
// only the x86 tiers implement it — the scalar reference must stay one
// single parity-tested code path.

using MicroDirectFn = void (*)(int kc, float alpha, const float* ap,
                               const float* b, int ldb, float* c, int ldc,
                               int mr, int nr);


#ifdef FEDTRANS_HAVE_AVX2
__attribute__((aligned(64)))
void micro_kernel_avx2_direct(int kc, float alpha, const float* ap,
                              const float* b, int ldb, float* c, int ldc,
                              int mr, int nr) {
  constexpr int MR = 6, NR = 16;
  alignas(32) int mk[NR];
  for (int j = 0; j < NR; ++j) mk[j] = j < nr ? -1 : 0;
  const __m256i mk0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(mk));
  const __m256i mk1 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mk + 8));
  const bool full = nr == NR;
  __m256 a0r0, a0r1, a1r0, a1r1, a2r0, a2r1, a3r0, a3r1, a4r0, a4r1, a5r0,
      a5r1;
  a0r0 = a0r1 = a1r0 = a1r1 = a2r0 = a2r1 = a3r0 = a3r1 = a4r0 = a4r1 =
      a5r0 = a5r1 = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = b + static_cast<std::size_t>(p) * ldb;
    const __m256 b0 =
        full ? _mm256_loadu_ps(brow) : _mm256_maskload_ps(brow, mk0);
    const __m256 b1 =
        full ? _mm256_loadu_ps(brow + 8) : _mm256_maskload_ps(brow + 8, mk1);
#define FT_GEMM_ROW(i)                              \
  {                                                 \
    const __m256 av = _mm256_set1_ps(arow[i]);      \
    a##i##r0 = _mm256_fmadd_ps(av, b0, a##i##r0);   \
    a##i##r1 = _mm256_fmadd_ps(av, b1, a##i##r1);   \
  }
    FT_GEMM_ROW(0) FT_GEMM_ROW(1) FT_GEMM_ROW(2)
    FT_GEMM_ROW(3) FT_GEMM_ROW(4) FT_GEMM_ROW(5)
#undef FT_GEMM_ROW
  }
  const __m256 acc[MR][2] = {{a0r0, a0r1}, {a1r0, a1r1}, {a2r0, a2r1},
                             {a3r0, a3r1}, {a4r0, a4r1}, {a5r0, a5r1}};
  const __m256 va = _mm256_set1_ps(alpha);
  if (mr == MR && full) {
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm256_storeu_ps(crow,
                       _mm256_fmadd_ps(va, acc[i][0], _mm256_loadu_ps(crow)));
      _mm256_storeu_ps(
          crow + 8, _mm256_fmadd_ps(va, acc[i][1], _mm256_loadu_ps(crow + 8)));
    }
  } else {
    float tmp[NR];
    for (int i = 0; i < mr; ++i) {
      _mm256_storeu_ps(tmp, acc[i][0]);
      _mm256_storeu_ps(tmp + 8, acc[i][1]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += alpha * tmp[j];
    }
  }
}
#endif  // FEDTRANS_HAVE_AVX2

#ifdef FEDTRANS_HAVE_AVX512
__attribute__((aligned(64)))
void micro_kernel_avx512_direct(int kc, float alpha, const float* ap,
                                const float* b, int ldb, float* c, int ldc,
                                int mr, int nr) {
  constexpr int MR = 12, NR = 32;
  const __mmask16 mk0 =
      nr >= 16 ? static_cast<__mmask16>(0xffff)
               : static_cast<__mmask16>((1u << nr) - 1u);
  const __mmask16 mk1 =
      nr >= NR ? static_cast<__mmask16>(0xffff)
      : nr > 16 ? static_cast<__mmask16>((1u << (nr - 16)) - 1u)
                : static_cast<__mmask16>(0);
  __m512 a0r0, a0r1, a1r0, a1r1, a2r0, a2r1, a3r0, a3r1, a4r0, a4r1, a5r0,
      a5r1, a6r0, a6r1, a7r0, a7r1, a8r0, a8r1, a9r0, a9r1, a10r0, a10r1,
      a11r0, a11r1;
  a0r0 = a0r1 = a1r0 = a1r1 = a2r0 = a2r1 = a3r0 = a3r1 = a4r0 = a4r1 =
      a5r0 = a5r1 = a6r0 = a6r1 = a7r0 = a7r1 = a8r0 = a8r1 = a9r0 = a9r1 =
          a10r0 = a10r1 = a11r0 = a11r1 = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = b + static_cast<std::size_t>(p) * ldb;
    const __m512 b0 = _mm512_maskz_loadu_ps(mk0, brow);
    const __m512 b1 = _mm512_maskz_loadu_ps(mk1, brow + 16);
#define FT_GEMM_ROW(i)                              \
  {                                                 \
    const __m512 av = _mm512_set1_ps(arow[i]);      \
    a##i##r0 = _mm512_fmadd_ps(av, b0, a##i##r0);   \
    a##i##r1 = _mm512_fmadd_ps(av, b1, a##i##r1);   \
  }
    FT_GEMM_ROW(0) FT_GEMM_ROW(1) FT_GEMM_ROW(2) FT_GEMM_ROW(3)
    FT_GEMM_ROW(4) FT_GEMM_ROW(5) FT_GEMM_ROW(6) FT_GEMM_ROW(7)
    FT_GEMM_ROW(8) FT_GEMM_ROW(9) FT_GEMM_ROW(10) FT_GEMM_ROW(11)
#undef FT_GEMM_ROW
  }
  const __m512 acc[MR][2] = {
      {a0r0, a0r1}, {a1r0, a1r1}, {a2r0, a2r1},   {a3r0, a3r1},
      {a4r0, a4r1}, {a5r0, a5r1}, {a6r0, a6r1},   {a7r0, a7r1},
      {a8r0, a8r1}, {a9r0, a9r1}, {a10r0, a10r1}, {a11r0, a11r1}};
  const __m512 va = _mm512_set1_ps(alpha);
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm512_storeu_ps(crow,
                       _mm512_fmadd_ps(va, acc[i][0], _mm512_loadu_ps(crow)));
      _mm512_storeu_ps(crow + 16, _mm512_fmadd_ps(va, acc[i][1],
                                                  _mm512_loadu_ps(crow + 16)));
    }
  } else {
    float tmp[NR];
    for (int i = 0; i < mr; ++i) {
      _mm512_storeu_ps(tmp, acc[i][0]);
      _mm512_storeu_ps(tmp + 16, acc[i][1]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += alpha * tmp[j];
    }
  }
}
#endif  // FEDTRANS_HAVE_AVX512

// ---- transposed-B short-M kernels ------------------------------------------
// C(0:m, 0:nr) += alpha · A(0:m, 0:kc) · B(0:nr, 0:kc)ᵀ for one KC chunk of
// one column strip, with A (row stride lda) and B (row stride ldb) read in
// place: conv's weight gradient gW += dY·colᵀ, where m (output channels per
// group) is a handful of rows. The blocked path pads m to a full MR tile and
// packs both operands on every call. Here 16 (AVX-512) or 8 (AVX2) stored
// rows of B at a time go through an in-register transpose into a strip
// buffer of op(B) rows that stays in L1, and the row loop broadcasts A from
// the source, so only the m real rows accumulate. Every element is still one
// FMA chain from zero over the chunk in ascending p, then
// c = fma(alpha, acc, c): the bits of the product with B materialized.

using MicroTransBFn = void (*)(int kc, float alpha, const float* a, int lda,
                               const float* b, int ldb, float* c, int ldc,
                               int m, int nr);

// The row-group bodies below index small accumulator arrays. Fully
// unrolled, every index is a constant, and GCC keeps the tile in registers.
#define FT_UNROLL _Pragma("GCC unroll 16")

#ifdef FEDTRANS_HAVE_AVX2
// R rows of A against H 8-column vectors of the strip buffer bt.
template <int R, int H>
__attribute__((always_inline)) inline void trans_b_rows_avx2(
    int kc, float alpha, const float* a, int lda, const float* bt, float* c,
    int ldc, const __m256i mk[2]) {
  constexpr int NR = 16;
  __m256 acc[R][H];
  FT_UNROLL for (int i = 0; i < R; ++i)
    FT_UNROLL for (int h = 0; h < H; ++h) acc[i][h] = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    __m256 bv[H];
    FT_UNROLL for (int h = 0; h < H; ++h)
      bv[h] = _mm256_load_ps(bt + static_cast<std::size_t>(p) * NR + 8 * h);
    FT_UNROLL for (int i = 0; i < R; ++i) {
      const __m256 av =
          _mm256_set1_ps(a[static_cast<std::size_t>(i) * lda + p]);
      FT_UNROLL for (int h = 0; h < H; ++h)
        acc[i][h] = _mm256_fmadd_ps(av, bv[h], acc[i][h]);
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  FT_UNROLL for (int i = 0; i < R; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    FT_UNROLL for (int h = 0; h < H; ++h)
      _mm256_maskstore_ps(crow + 8 * h, mk[h],
                          _mm256_fmadd_ps(va, acc[i][h],
                                          _mm256_maskload_ps(crow + 8 * h,
                                                             mk[h])));
  }
}

template <int H>
__attribute__((always_inline)) inline void trans_b_row_groups_avx2(
    int kc, float alpha, const float* a, int lda, const float* bt, float* c,
    int ldc, int m, const __m256i mk[2]) {
  constexpr int MR = 6;
  for (int i0 = 0; i0 < m; i0 += MR) {
    const float* ai = a + static_cast<std::size_t>(i0) * lda;
    float* ci = c + static_cast<std::size_t>(i0) * ldc;
#define FT_TRANS_B_ROWS(r)                                          \
  case r:                                                           \
    trans_b_rows_avx2<r, H>(kc, alpha, ai, lda, bt, ci, ldc, mk); \
    break;
    switch (std::min(MR, m - i0)) {
      FT_TRANS_B_ROWS(1) FT_TRANS_B_ROWS(2) FT_TRANS_B_ROWS(3)
      FT_TRANS_B_ROWS(4) FT_TRANS_B_ROWS(5) FT_TRANS_B_ROWS(6)
    }
#undef FT_TRANS_B_ROWS
  }
}

__attribute__((aligned(64)))
void micro_kernel_avx2_trans_b(int kc, float alpha, const float* a, int lda,
                               const float* b, int ldb, float* c, int ldc,
                               int m, int nr) {
  constexpr int NR = 16;
  // bt[p·NR + j] = B(j, p); columns nr ≤ j < 8·⌈nr/8⌉ read as zero.
  alignas(32) float bt[kKc * NR];
  const int width = nr > 8 ? NR : 8;
  int p = 0;
  for (; p + 8 <= kc; p += 8)
    for (int j = 0; j < nr; j += 8)
      transpose8x8_avx2(b + static_cast<std::size_t>(j) * ldb + p,
                        static_cast<std::size_t>(ldb), std::min(8, nr - j),
                        bt + static_cast<std::size_t>(p) * NR + j, NR);
  for (; p < kc; ++p)
    for (int j = 0; j < width; ++j)
      bt[static_cast<std::size_t>(p) * NR + j] =
          j < nr ? b[static_cast<std::size_t>(j) * ldb + p] : 0.0f;
  alignas(32) int mkbits[NR];
  for (int j = 0; j < NR; ++j) mkbits[j] = j < nr ? -1 : 0;
  const __m256i mk[2] = {
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mkbits)),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mkbits + 8))};
  if (nr > 8)
    trans_b_row_groups_avx2<2>(kc, alpha, a, lda, bt, c, ldc, m, mk);
  else
    trans_b_row_groups_avx2<1>(kc, alpha, a, lda, bt, c, ldc, m, mk);
}
#endif  // FEDTRANS_HAVE_AVX2

#ifdef FEDTRANS_HAVE_AVX512
// GCC 12's AVX-512 shuffle intrinsics pass _mm512_undefined_ps() as their
// unused merge source, which -Wmaybe-uninitialized reports once they are
// inlined into a loop.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
// transpose8x8_avx2's 16×16 counterpart: dst row q holds column q of the
// block, and source rows at or past `rows` read as zero.
inline void transpose16x16_avx512(const float* src, std::size_t ld, int rows,
                                  float* dst, std::size_t ldd) {
  __m512 r[16];
  FT_UNROLL for (int i = 0; i < 16; ++i)
    r[i] = i < rows ? _mm512_loadu_ps(src + i * ld) : _mm512_setzero_ps();
  __m512 t[16];
  FT_UNROLL for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  // u[4g + q], per 128-bit lane l: column 4l + q of rows 4g..4g+3.
  __m512 u[16];
  FT_UNROLL for (int g = 0; g < 16; g += 4) {
    u[g] = _mm512_shuffle_ps(t[g], t[g + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[g + 1] = _mm512_shuffle_ps(t[g], t[g + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[g + 2] = _mm512_shuffle_ps(t[g + 1], t[g + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[g + 3] = _mm512_shuffle_ps(t[g + 1], t[g + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  FT_UNROLL for (int q = 0; q < 4; ++q) {
    // Lanes of v0: columns q, 8 + q of rows 0-3, then of rows 4-7; v1 the
    // same for columns 4 + q, 12 + q; v2, v3 for rows 8-15.
    const __m512 v0 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0x88);
    const __m512 v1 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0xdd);
    const __m512 v2 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0x88);
    const __m512 v3 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0xdd);
    _mm512_storeu_ps(dst + q * ldd, _mm512_shuffle_f32x4(v0, v2, 0x88));
    _mm512_storeu_ps(dst + (8 + q) * ldd, _mm512_shuffle_f32x4(v0, v2, 0xdd));
    _mm512_storeu_ps(dst + (4 + q) * ldd, _mm512_shuffle_f32x4(v1, v3, 0x88));
    _mm512_storeu_ps(dst + (12 + q) * ldd, _mm512_shuffle_f32x4(v1, v3, 0xdd));
  }
}

// R rows of A against H 16-column vectors of the strip buffer bt.
template <int R, int H>
__attribute__((always_inline)) inline void trans_b_rows_avx512(
    int kc, float alpha, const float* a, int lda, const float* bt, float* c,
    int ldc, const __mmask16 mk[2]) {
  constexpr int NR = 32;
  __m512 acc[R][H];
  FT_UNROLL for (int i = 0; i < R; ++i)
    FT_UNROLL for (int h = 0; h < H; ++h) acc[i][h] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    __m512 bv[H];
    FT_UNROLL for (int h = 0; h < H; ++h)
      bv[h] = _mm512_load_ps(bt + static_cast<std::size_t>(p) * NR + 16 * h);
    FT_UNROLL for (int i = 0; i < R; ++i) {
      const __m512 av =
          _mm512_set1_ps(a[static_cast<std::size_t>(i) * lda + p]);
      FT_UNROLL for (int h = 0; h < H; ++h)
        acc[i][h] = _mm512_fmadd_ps(av, bv[h], acc[i][h]);
    }
  }
  const __m512 va = _mm512_set1_ps(alpha);
  FT_UNROLL for (int i = 0; i < R; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    FT_UNROLL for (int h = 0; h < H; ++h)
      _mm512_mask_storeu_ps(
          crow + 16 * h, mk[h],
          _mm512_fmadd_ps(va, acc[i][h],
                          _mm512_maskz_loadu_ps(mk[h], crow + 16 * h)));
  }
}

template <int H>
__attribute__((always_inline)) inline void trans_b_row_groups_avx512(
    int kc, float alpha, const float* a, int lda, const float* bt, float* c,
    int ldc, int m, const __mmask16 mk[2]) {
  constexpr int MR = 12;
  for (int i0 = 0; i0 < m; i0 += MR) {
    const float* ai = a + static_cast<std::size_t>(i0) * lda;
    float* ci = c + static_cast<std::size_t>(i0) * ldc;
#define FT_TRANS_B_ROWS(r)                                            \
  case r:                                                             \
    trans_b_rows_avx512<r, H>(kc, alpha, ai, lda, bt, ci, ldc, mk); \
    break;
    switch (std::min(MR, m - i0)) {
      FT_TRANS_B_ROWS(1) FT_TRANS_B_ROWS(2) FT_TRANS_B_ROWS(3)
      FT_TRANS_B_ROWS(4) FT_TRANS_B_ROWS(5) FT_TRANS_B_ROWS(6)
      FT_TRANS_B_ROWS(7) FT_TRANS_B_ROWS(8) FT_TRANS_B_ROWS(9)
      FT_TRANS_B_ROWS(10) FT_TRANS_B_ROWS(11) FT_TRANS_B_ROWS(12)
    }
#undef FT_TRANS_B_ROWS
  }
}

__attribute__((aligned(64)))
void micro_kernel_avx512_trans_b(int kc, float alpha, const float* a,
                                 int lda, const float* b, int ldb, float* c,
                                 int ldc, int m, int nr) {
  constexpr int NR = 32;
  // bt[p·NR + j] = B(j, p); columns nr ≤ j < 16·⌈nr/16⌉ read as zero.
  alignas(64) float bt[kKc * NR];
  const int width = nr > 16 ? NR : 16;
  int p = 0;
  for (; p + 16 <= kc; p += 16)
    for (int j = 0; j < nr; j += 16)
      transpose16x16_avx512(b + static_cast<std::size_t>(j) * ldb + p,
                            static_cast<std::size_t>(ldb),
                            std::min(16, nr - j),
                            bt + static_cast<std::size_t>(p) * NR + j, NR);
  for (; p < kc; ++p)
    for (int j = 0; j < width; ++j)
      bt[static_cast<std::size_t>(p) * NR + j] =
          j < nr ? b[static_cast<std::size_t>(j) * ldb + p] : 0.0f;
  const __mmask16 mk[2] = {
      nr >= 16 ? static_cast<__mmask16>(0xffff)
               : static_cast<__mmask16>((1u << nr) - 1u),
      nr >= NR  ? static_cast<__mmask16>(0xffff)
      : nr > 16 ? static_cast<__mmask16>((1u << (nr - 16)) - 1u)
                : static_cast<__mmask16>(0)};
  if (nr > 16)
    trans_b_row_groups_avx512<2>(kc, alpha, a, lda, bt, c, ldc, m, mk);
  else
    trans_b_row_groups_avx512<1>(kc, alpha, a, lda, bt, c, ldc, m, mk);
}
#pragma GCC diagnostic pop
#endif  // FEDTRANS_HAVE_AVX512

#undef FT_UNROLL

#ifdef FEDTRANS_HAVE_NEON
__attribute__((aligned(64)))
void micro_kernel_neon(int kc, float alpha, const float* ap, const float* bp,
                       float* c, int ldc, int mr, int nr) {
  constexpr int MR = 6, NR = 16;
  float32x4_t a0q0, a0q1, a0q2, a0q3, a1q0, a1q1, a1q2, a1q3, a2q0, a2q1,
      a2q2, a2q3, a3q0, a3q1, a3q2, a3q3, a4q0, a4q1, a4q2, a4q3, a5q0, a5q1,
      a5q2, a5q3;
  a0q0 = a0q1 = a0q2 = a0q3 = a1q0 = a1q1 = a1q2 = a1q3 = a2q0 = a2q1 =
      a2q2 = a2q3 = a3q0 = a3q1 = a3q2 = a3q3 = a4q0 = a4q1 = a4q2 = a4q3 =
          a5q0 = a5q1 = a5q2 = a5q3 = vdupq_n_f32(0.0f);
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<std::size_t>(p) * MR;
    const float* brow = bp + static_cast<std::size_t>(p) * NR;
    const float32x4_t b0 = vld1q_f32(brow);
    const float32x4_t b1 = vld1q_f32(brow + 4);
    const float32x4_t b2 = vld1q_f32(brow + 8);
    const float32x4_t b3 = vld1q_f32(brow + 12);
#define FT_GEMM_ROW(i)                          \
  {                                             \
    const float av = arow[i];                   \
    a##i##q0 = vfmaq_n_f32(a##i##q0, b0, av);   \
    a##i##q1 = vfmaq_n_f32(a##i##q1, b1, av);   \
    a##i##q2 = vfmaq_n_f32(a##i##q2, b2, av);   \
    a##i##q3 = vfmaq_n_f32(a##i##q3, b3, av);   \
  }
    FT_GEMM_ROW(0) FT_GEMM_ROW(1) FT_GEMM_ROW(2)
    FT_GEMM_ROW(3) FT_GEMM_ROW(4) FT_GEMM_ROW(5)
#undef FT_GEMM_ROW
  }
  const float32x4_t acc[MR][4] = {{a0q0, a0q1, a0q2, a0q3},
                                  {a1q0, a1q1, a1q2, a1q3},
                                  {a2q0, a2q1, a2q2, a2q3},
                                  {a3q0, a3q1, a3q2, a3q3},
                                  {a4q0, a4q1, a4q2, a4q3},
                                  {a5q0, a5q1, a5q2, a5q3}};
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int q = 0; q < 4; ++q)
        vst1q_f32(crow + 4 * q,
                  vfmaq_n_f32(vld1q_f32(crow + 4 * q), acc[i][q], alpha));
    }
  } else {
    float tmp[NR];
    for (int i = 0; i < mr; ++i) {
      for (int q = 0; q < 4; ++q) vst1q_f32(tmp + 4 * q, acc[i][q]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += alpha * tmp[j];
    }
  }
}
#endif  // FEDTRANS_HAVE_NEON

// One tier's kernels. The short-M ones (null on scalar and NEON) serve
// fp32 products of at most kShortMaxM rows: `direct` an untransposed B,
// `trans_b` a transposed B with an untransposed A.
struct KernelInfo {
  int mr;
  int nr;
  MicroFn fn;
  bool simd_trans_pack;  // fp32 Bᵀ panels go through pack_b_trans_avx2
  MicroDirectFn direct = nullptr;
  MicroTransBFn trans_b = nullptr;
};

KernelInfo kernel_info(GemmBackend b) {
  switch (b) {
#ifdef FEDTRANS_HAVE_AVX2
    case GemmBackend::Avx2:
      return {6, 16, micro_kernel_avx2, kHaveAvx2Pack,
              micro_kernel_avx2_direct, micro_kernel_avx2_trans_b};
#endif
#ifdef FEDTRANS_HAVE_AVX512
    case GemmBackend::Avx512:
      return {12, 32, micro_kernel_avx512, kHaveAvx2Pack,
              micro_kernel_avx512_direct, micro_kernel_avx512_trans_b};
#endif
#ifdef FEDTRANS_HAVE_NEON
    case GemmBackend::Neon:
      return {6, 16, micro_kernel_neon, false};
#endif
    default:
      return {6, 16, micro_kernel_scalar, false};
  }
}

// The B panel of one (jc, pc) block. Only the SIMD x86 tiers take the
// transposed fast pack; the scalar reference keeps the generic one.
template <class ElemB>
void pack_b_panel(const ElemB& eb, int pc, int kc, int jc, int nc,
                  const KernelInfo& ki, float* bp) {
#ifdef FEDTRANS_HAVE_AVX2
  if constexpr (std::is_same_v<ElemB, F32ReaderB>) {
    if (eb.trans && ki.simd_trans_pack) {
      pack_b_trans_avx2(eb.b, eb.ldb, pc, kc, jc, nc, ki.nr, bp);
      return;
    }
  }
#endif
  pack_b(eb, pc, kc, jc, nc, ki.nr, bp);
}

// ---- backend selection ------------------------------------------------------

bool cpu_supports(GemmBackend b) {
  switch (b) {
    case GemmBackend::Scalar:
      return true;
    case GemmBackend::Avx2:
#if defined(FEDTRANS_HAVE_AVX2) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case GemmBackend::Avx512:
#if defined(FEDTRANS_HAVE_AVX512) && defined(__GNUC__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
    case GemmBackend::Neon:
#ifdef FEDTRANS_HAVE_NEON
      return true;  // NEON is baseline on every aarch64 target we compile for
#else
      return false;
#endif
  }
  return false;
}

bool g_backend_from_env = false;

GemmBackend initial_gemm_backend() {
  if (const char* env = std::getenv("FEDTRANS_GEMM_BACKEND")) {
    g_backend_from_env = true;
    const struct {
      const char* name;
      GemmBackend backend;
    } table[] = {{"scalar", GemmBackend::Scalar},
                 {"avx2", GemmBackend::Avx2},
                 {"avx512", GemmBackend::Avx512},
                 {"neon", GemmBackend::Neon}};
    for (const auto& e : table) {
      if (std::strcmp(env, e.name) != 0) continue;
      if (cpu_supports(e.backend)) return e.backend;
      FT_LOG_WARN("FEDTRANS_GEMM_BACKEND=" << env
                                           << " not available on this "
                                              "build/host; using "
                                           << gemm_backend_name(
                                                  best_gemm_backend()));
      return best_gemm_backend();
    }
    if (std::strcmp(env, "simd") != 0)
      FT_LOG_WARN("unknown FEDTRANS_GEMM_BACKEND="
                  << env << " (want scalar|avx2|avx512|neon|simd); using "
                  << gemm_backend_name(best_gemm_backend()));
    return best_gemm_backend();
  }
  return best_gemm_backend();
}

std::atomic<GemmBackend>& backend_state() {
  static std::atomic<GemmBackend> state{initial_gemm_backend()};
  return state;
}

// One-time startup note of the selected kernel variant (the bench context
// records it too; this covers every other entry point).
void log_backend_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    FT_LOG_INFO("gemm backend: "
                << gemm_backend_name(gemm_backend())
                << (g_backend_from_env ? " (FEDTRANS_GEMM_BACKEND)" : ""));
  });
}

// ---- shared drivers ---------------------------------------------------------

void apply_beta(int m, int n, float beta, float* c, int ldc) {
  // beta == 0 must assign (not multiply): C may be uninitialized and a
  // 0 × NaN would otherwise poison the output.
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i)
      std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                  static_cast<std::size_t>(n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// Plain i-k-j loop for small problems (attention tiles, tiny linears)
// where packing costs more than it saves.
template <class ElemA, class ElemB>
void gemm_small(int m, int n, int k, float alpha, ElemA ea, ElemB eb,
                float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = ea(i, p);
      if (av == 0.0f) continue;
      const float s = alpha * av;
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) crow[j] += s * eb(p, j);
    }
  }
}

// Cache-blocked path: serial jc/pc loops (fixed accumulation order into C,
// so results are bitwise-independent of the thread count), parallel over
// MC row panels of C — panels write disjoint rows.
template <class ElemA, class ElemB>
void gemm_blocked(int m, int n, int k, float alpha, ElemA ea, ElemB eb,
                  float* c, int ldc, const KernelInfo& ki) {
  const int mr_t = ki.mr, nr_t = ki.nr;
  std::vector<float> bp(
      static_cast<std::size_t>(((std::min(n, kNc) + nr_t - 1) / nr_t) * nr_t) *
      static_cast<std::size_t>(std::min(k, kKc)));
  const int row_blocks = (m + kMc - 1) / kMc;
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    for (int pc = 0; pc < k; pc += kKc) {
      const int kc = std::min(kKc, k - pc);
      pack_b_panel(eb, pc, kc, jc, nc, ki, bp.data());
      ThreadPool::global().parallel_for(
          row_blocks, 1, [&](std::int64_t blk_lo, std::int64_t blk_hi) {
            thread_local std::vector<float> ap;
            for (std::int64_t blk = blk_lo; blk < blk_hi; ++blk) {
              const int ic = static_cast<int>(blk) * kMc;
              const int mc = std::min(kMc, m - ic);
              ap.resize(
                  static_cast<std::size_t>(((mc + mr_t - 1) / mr_t) * mr_t) *
                  static_cast<std::size_t>(kc));
              pack_a(ea, ic, mc, pc, kc, mr_t, ap.data());
              for (int jr = 0; jr < nc; jr += nr_t) {
                const int nr = std::min(nr_t, nc - jr);
                const float* bstrip =
                    bp.data() +
                    static_cast<std::size_t>(jr / nr_t) * nr_t * kc;
                for (int ir = 0; ir < mc; ir += mr_t) {
                  const int mr = std::min(mr_t, mc - ir);
                  const float* astrip =
                      ap.data() +
                      static_cast<std::size_t>(ir / mr_t) * mr_t * kc;
                  ki.fn(kc, alpha, astrip, bstrip,
                        c + static_cast<std::size_t>(ic + ir) * ldc + jc + jr,
                        ldc, mr, nr);
                }
              }
            }
          });
    }
  }
}

// Column strips per pool task on the two short-M paths: at least
// kStripTaskMacs of work. A task on another core pays that worker's wake-up
// and pulls its operands across caches, which costs more than most
// short-M products (conv's narrow layers) take in all: fanned out over 45
// one-strip tasks, the narrow column gradient (27×1440×4) ran ~3× slower
// than inline on a 4-vCPU host. A product under the bar runs inline. The
// strips and their arithmetic do not change, only which thread runs them.
constexpr std::int64_t kStripTaskMacs = std::int64_t{1} << 20;

std::int64_t strip_grain(int m, int nr_t, int kc) {
  const std::int64_t strip_macs = static_cast<std::int64_t>(m) * nr_t * kc;
  return (kStripTaskMacs + strip_macs - 1) / strip_macs;
}

// Short-M driver for the B-direct kernels: pack A once per KC chunk (a few
// strips at most), stream B from the source. Parallel over NR column strips
// of C (disjoint columns); the pc loop stays serial, so accumulation order —
// and therefore the result — is independent of the thread count.
template <class ElemA>
void gemm_direct_b(int m, int n, int k, float alpha, ElemA ea, const float* b,
                   int ldb, float* c, int ldc, const KernelInfo& ki) {
  const int mr_t = ki.mr, nr_t = ki.nr;
  std::vector<float> ap(
      static_cast<std::size_t>(((m + mr_t - 1) / mr_t) * mr_t) *
      static_cast<std::size_t>(std::min(k, kKc)));
  const int col_strips = (n + nr_t - 1) / nr_t;
  for (int pc = 0; pc < k; pc += kKc) {
    const int kc = std::min(kKc, k - pc);
    pack_a(ea, 0, m, pc, kc, mr_t, ap.data());
    ThreadPool::global().parallel_for(
        col_strips, strip_grain(m, nr_t, kc),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t s = lo; s < hi; ++s) {
            const int jr = static_cast<int>(s) * nr_t;
            const int nr = std::min(nr_t, n - jr);
            for (int ir = 0; ir < m; ir += mr_t) {
              const int mr = std::min(mr_t, m - ir);
              ki.direct(
                  kc, alpha,
                  ap.data() + static_cast<std::size_t>(ir / mr_t) * mr_t * kc,
                  b + static_cast<std::size_t>(pc) * ldb + jr, ldb,
                  c + static_cast<std::size_t>(ir) * ldc + jr, ldc, mr, nr);
            }
          }
        });
  }
}

// The short-M path for the transposed-B kernels. Parallel over NR column
// strips of C (disjoint columns); each strip runs its KC chunks in order,
// so every element's accumulation order — and therefore the result — is
// independent of the thread count.
void gemm_trans_b(int m, int n, int k, float alpha, const float* a, int lda,
                  const float* b, int ldb, float* c, int ldc,
                  const KernelInfo& ki) {
  const int nr_t = ki.nr;
  const int col_strips = (n + nr_t - 1) / nr_t;
  ThreadPool::global().parallel_for(
      col_strips, strip_grain(m, nr_t, k),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const int jr = static_cast<int>(s) * nr_t;
          const int nr = std::min(nr_t, n - jr);
          for (int pc = 0; pc < k; pc += kKc)
            ki.trans_b(std::min(kKc, k - pc), alpha, a + pc, lda,
                       b + static_cast<std::size_t>(jr) * ldb + pc, ldb,
                       c + jr, ldc, m, nr);
        }
      });
}

}  // namespace

const char* gemm_backend_name(GemmBackend b) {
  switch (b) {
    case GemmBackend::Scalar: return "scalar";
    case GemmBackend::Avx2: return "avx2";
    case GemmBackend::Avx512: return "avx512";
    case GemmBackend::Neon: return "neon";
  }
  return "?";
}

bool gemm_backend_available(GemmBackend b) { return cpu_supports(b); }

GemmBackend best_gemm_backend() {
  if (cpu_supports(GemmBackend::Avx512)) return GemmBackend::Avx512;
  if (cpu_supports(GemmBackend::Avx2)) return GemmBackend::Avx2;
  if (cpu_supports(GemmBackend::Neon)) return GemmBackend::Neon;
  return GemmBackend::Scalar;
}

GemmBackend gemm_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_gemm_backend(GemmBackend b) {
  FT_CHECK_MSG(gemm_backend_available(b), "gemm backend '"
                                              << gemm_backend_name(b)
                                              << "' not available on this "
                                                 "build/host");
  backend_state().store(b, std::memory_order_relaxed);
}

void gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc) {
  FT_CHECK(m >= 0 && n >= 0 && k >= 0);
  apply_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  log_backend_once();

  const F32ReaderA ea{a, lda, trans_a};
  const F32ReaderB eb{b, ldb, trans_b};
  if (static_cast<std::int64_t>(m) * n * k <= kSmallGemm) {
    gemm_small(m, n, k, alpha, ea, eb, c, ldc);
    return;
  }
  // Span only the above-threshold paths: tiny GEMMs (attention tiles, bias
  // rows) are too frequent and too short to time without skewing them.
  FT_SPAN_ARG("kernel", "gemm", "macs",
              static_cast<double>(m) * n * k);
  const KernelInfo ki = kernel_info(gemm_backend());
  if (m <= kShortMaxM && !trans_b && ki.direct) {
    gemm_direct_b(m, n, k, alpha, ea, b, ldb, c, ldc, ki);
    return;
  }
  if (m <= kShortMaxM && trans_b && !trans_a && ki.trans_b) {
    gemm_trans_b(m, n, k, alpha, a, lda, b, ldb, c, ldc, ki);
    return;
  }
  gemm_blocked(m, n, k, alpha, ea, eb, c, ldc, ki);
}

void gemm_half(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
               const std::uint16_t* a, int lda, Dtype a_dtype,
               const std::uint16_t* b, int ldb, Dtype b_dtype, float beta,
               float* c, int ldc) {
  FT_CHECK(m >= 0 && n >= 0 && k >= 0);
  apply_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;
  log_backend_once();

  const HalfReaderA ea{a, lda, trans_a, a_dtype};
  const HalfReaderB eb{b, ldb, trans_b, b_dtype};
  if (static_cast<std::int64_t>(m) * n * k <= kSmallGemm) {
    gemm_small(m, n, k, alpha, ea, eb, c, ldc);
    return;
  }
  FT_SPAN_ARG("kernel", "gemm_half", "macs",
              static_cast<double>(m) * n * k);
  gemm_blocked(m, n, k, alpha, ea, eb, c, ldc, kernel_info(gemm_backend()));
}

}  // namespace fedtrans
