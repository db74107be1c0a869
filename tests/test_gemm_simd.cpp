// SIMD GEMM backends: scalar-vs-SIMD parity fuzz across random shapes
// (including ragged tails smaller than the register tiles), transposes and
// alpha/beta combinations; grouped-conv forward/backward parity on the
// batched im2col lowering; and per-backend bitwise thread-count
// determinism.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::max_abs_diff;

std::vector<GemmBackend> available_backends() {
  std::vector<GemmBackend> bs{GemmBackend::Scalar};
  for (GemmBackend b :
       {GemmBackend::Avx2, GemmBackend::Avx512, GemmBackend::Neon})
    if (gemm_backend_available(b)) bs.push_back(b);
  return bs;
}

/// Run one gemm under `backend`, restoring the previous backend after.
std::vector<float> run_gemm(GemmBackend backend, bool ta, bool tb, int m,
                            int n, int k, float alpha,
                            const std::vector<float>& a, int lda,
                            const std::vector<float>& b, int ldb, float beta,
                            std::vector<float> c, int ldc) {
  const GemmBackend prev = gemm_backend();
  set_gemm_backend(backend);
  gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
       ldc);
  set_gemm_backend(prev);
  return c;
}

TEST(GemmSimd, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(gemm_backend_available(GemmBackend::Scalar));
  EXPECT_TRUE(gemm_backend_available(best_gemm_backend()));
  EXPECT_TRUE(gemm_backend_available(gemm_backend()));
}

TEST(GemmSimd, BackendNamesAreDistinct) {
  EXPECT_STREQ(gemm_backend_name(GemmBackend::Scalar), "scalar");
  EXPECT_STREQ(gemm_backend_name(GemmBackend::Avx2), "avx2");
  EXPECT_STREQ(gemm_backend_name(GemmBackend::Avx512), "avx512");
  EXPECT_STREQ(gemm_backend_name(GemmBackend::Neon), "neon");
}

// Fuzz every available SIMD backend against the scalar reference across
// shapes that exercise full tiles, ragged M/N/K tails, the small-problem
// fast path and the blocked path, under all four transpose combinations
// and non-trivial alpha/beta.
TEST(GemmSimd, ParityFuzzAcrossShapesAndTransposes) {
  const auto backends = available_backends();
  Rng rng(42);
  for (int iter = 0; iter < 60; ++iter) {
    // Mix tiny (tail-only) and large (blocked, multi-tile) shapes.
    const int m = 1 + rng.uniform_int(0, iter % 3 == 0 ? 150 : 20);
    const int n = 1 + rng.uniform_int(0, iter % 3 == 1 ? 150 : 20);
    const int k = 1 + rng.uniform_int(0, iter % 3 == 2 ? 150 : 20);
    const bool ta = rng.uniform_int(0, 1) == 1;
    const bool tb = rng.uniform_int(0, 1) == 1;
    const float alpha = iter % 4 == 0 ? 0.5f : 1.0f;
    const float beta = iter % 5 == 0 ? 0.25f : 0.0f;
    const int lda = ta ? m : k, ldb = tb ? k : n, ldc = n;

    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> c0(static_cast<std::size_t>(m) * n);
    for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));

    const auto ref = run_gemm(GemmBackend::Scalar, ta, tb, m, n, k, alpha, a,
                              lda, b, ldb, beta, c0, ldc);
    for (GemmBackend backend : backends) {
      if (backend == GemmBackend::Scalar) continue;
      const auto got = run_gemm(backend, ta, tb, m, n, k, alpha, a, lda, b,
                                ldb, beta, c0, ldc);
      double max_diff = 0.0;
      for (std::size_t i = 0; i < ref.size(); ++i)
        max_diff = std::max(
            max_diff, std::abs(static_cast<double>(ref[i]) - got[i]));
      EXPECT_LT(max_diff, 1e-4)
          << gemm_backend_name(backend) << " diverged from scalar at shape "
          << m << "x" << n << "x" << k << " ta=" << ta << " tb=" << tb;
    }
  }
}

// Every backend must produce bitwise-identical output regardless of how
// many threads the blocked loop fans row panels out to. m = 123 drives the
// row-panel-parallel blocked path; m = 16 the short-M B-direct path and
// m = 8 with a transposed B the short-M transposed-B path (both parallel
// over column strips) on tiers that have them.
TEST(GemmSimd, BitwiseDeterministicAcrossThreadCounts) {
  struct Shape {
    int m, n, k;
    bool tb;
  };
  for (const Shape s : {Shape{123, 77, 131, false}, Shape{16, 784, 144, false},
                        Shape{8, 216, 1440, true}}) {
    const int m = s.m, n = s.n, k = s.k;
    Rng rng(7);
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> zero(static_cast<std::size_t>(m) * n, 0.0f);

    for (GemmBackend backend : available_backends()) {
      std::vector<std::vector<float>> outs;
      for (int threads : {1, 2, 4}) {
        ThreadPool::set_global_threads(threads);
        outs.push_back(run_gemm(backend, false, s.tb, m, n, k, 1.0f, a, k, b,
                                s.tb ? k : n, 0.0f, zero, n));
      }
      for (std::size_t t = 1; t < outs.size(); ++t)
        for (std::size_t i = 0; i < outs[0].size(); ++i)
          ASSERT_EQ(outs[0][i], outs[t][i])
              << gemm_backend_name(backend) << " at shape " << m << "x" << n
              << "x" << k << " tb=" << s.tb
              << " not thread-count deterministic at element " << i;
    }
  }
  ThreadPool::set_global_threads(ThreadPool::global_threads());
}

// gemm(ta, true, …) must equal gemm(ta, false, …) on a materialized Bᵀ bit
// for bit, on every backend: the transposed-B pack (8×8 register
// transposes on the x86 SIMD tiers) writes the same panel bytes as the
// generic one, and the short-M transposed-B kernels run each element's
// chunked FMA chain in the same order. The shapes are conv's weight
// gradient gW += dY·colᵀ (m output channels, n = in·k·k, k output pixels of
// a batch): m on both sides of the short-M cutoff (36) and of the AVX2 and
// AVX-512 row groups (6, 12), n on both sides of their column strips (16,
// 32), k across KC chunks (256), with conv's alpha and beta plus alpha 0.5,
// and the e2e workloads' hottest weight-gradient shapes.
TEST(GemmSimd, TransposedBMatchesMaterializedTransposeBitwise) {
  struct Shape {
    int m, n, k;
  };
  std::vector<Shape> shapes;
  for (int m : {1, 2, 3, 4, 6, 8, 12, 13, 24, 25, 27, 36, 37, 40})
    for (int n : {9, 27, 36, 54, 70})
      for (int k : {7, 261, 1440}) shapes.push_back({m, n, k});
  for (const Shape hot : {Shape{3, 27, 1440}, Shape{8, 27, 1440},
                          Shape{12, 72, 360}, Shape{24, 216, 360}})
    shapes.push_back(hot);
  Rng rng(23);
  for (const Shape s : shapes)
    for (bool ta : {false, true}) {
      const int m = s.m, n = s.n, k = s.k;
      std::vector<float> a(static_cast<std::size_t>(m) * k);
      std::vector<float> bt(static_cast<std::size_t>(n) * k);  // [n, k]
      std::vector<float> c0(static_cast<std::size_t>(m) * n);
      for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& v : bt) v = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<float> b(bt.size());  // [k, n]
      for (int j = 0; j < n; ++j)
        for (int p = 0; p < k; ++p)
          b[static_cast<std::size_t>(p) * n + j] =
              bt[static_cast<std::size_t>(j) * k + p];
      const int lda = ta ? m : k;
      for (GemmBackend backend : available_backends())
        for (const auto& [alpha, beta] :
             {std::pair{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 1.0f}}) {
          const auto got = run_gemm(backend, ta, true, m, n, k, alpha, a,
                                    lda, bt, k, beta, c0, n);
          const auto want = run_gemm(backend, ta, false, m, n, k, alpha, a,
                                     lda, b, n, beta, c0, n);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << gemm_backend_name(backend) << " at " << m << "x" << n
              << "x" << k << " ta=" << ta << " alpha=" << alpha
              << " beta=" << beta;
        }
    }
}

// The fused half-widening GEMM must agree with widening up front and
// running the fp32 path.
TEST(GemmSimd, HalfGemmMatchesWidenedFloatGemm) {
  const int m = 37, n = 53, k = 41;
  Rng rng(11);
  std::vector<float> af(static_cast<std::size_t>(m) * k);
  std::vector<float> bf(static_cast<std::size_t>(k) * n);
  for (auto& v : af) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : bf) v = static_cast<float>(rng.normal(0.0, 1.0));

  for (Dtype d : {Dtype::F16, Dtype::BF16}) {
    std::vector<std::uint16_t> ah(af.size()), bh(bf.size());
    f32_to_half(af.data(), ah.data(), static_cast<std::int64_t>(af.size()), d);
    f32_to_half(bf.data(), bh.data(), static_cast<std::int64_t>(bf.size()), d);
    // Widen the half bits back to f32: this is exactly what gemm_half's
    // packing readers see, so the two paths must agree bitwise.
    std::vector<float> aw(af.size()), bw(bf.size());
    half_to_f32(ah.data(), aw.data(), static_cast<std::int64_t>(ah.size()), d);
    half_to_f32(bh.data(), bw.data(), static_cast<std::int64_t>(bh.size()), d);

    std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
    gemm(false, false, m, n, k, 1.0f, aw.data(), k, bw.data(), n, 0.0f,
         want.data(), n);
    std::vector<float> got(static_cast<std::size_t>(m) * n, 0.0f);
    gemm_half(false, false, m, n, k, 1.0f, ah.data(), k, d, bh.data(), n, d,
              0.0f, got.data(), n);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(want[i], got[i]) << "dtype " << dtype_name(d);
  }
}

// Grouped conv must agree with the direct loop-nest reference for every
// group count, on both the forward pass and all backward outputs — the
// batched [ckk, bt·oh·ow] panel lowering only reassociates sums.
TEST(GemmSimd, GroupedConvParityWithDirectReference) {
  Rng rng(13);
  for (int groups : {1, 2, 4, 8}) {
    Conv2d ref_conv(16, 24, 3, /*stride=*/1, /*padding=*/-1, /*bias=*/true,
                    groups);
    ref_conv.init(rng);
    Conv2d im_conv = ref_conv;  // identical weights

    Tensor x({3, 16, 9, 9});
    x.randn(rng);

    set_conv_backend(ConvBackend::Direct);
    Tensor y_ref = ref_conv.forward(x, true);
    set_conv_backend(ConvBackend::Im2col);
    Tensor y_im = im_conv.forward(x, true);
    EXPECT_LT(max_abs_diff(y_ref, y_im), 1e-4)
        << "forward parity, groups=" << groups;

    Tensor g(y_ref.shape());
    g.rand_uniform(rng, -0.5f, 0.5f);
    set_conv_backend(ConvBackend::Direct);
    Tensor dx_ref = ref_conv.backward(g);
    set_conv_backend(ConvBackend::Im2col);
    Tensor dx_im = im_conv.backward(g);
    EXPECT_LT(max_abs_diff(dx_ref, dx_im), 2e-3)
        << "dx parity, groups=" << groups;

    auto pr = ref_conv.params();
    auto pi = im_conv.params();
    ASSERT_EQ(pr.size(), pi.size());
    for (std::size_t i = 0; i < pr.size(); ++i)
      EXPECT_LT(max_abs_diff(*pr[i].grad, *pi[i].grad), 2e-3)
          << "grad parity for param " << pr[i].name << ", groups=" << groups;
  }
}

// The strided im2col/col2im pair must round-trip exactly like the compact
// single-image layout they generalize.
TEST(GemmSimd, StridedIm2colMatchesCompactLayout) {
  Rng rng(17);
  const int c = 5, h = 7, w = 6, kernel = 3, stride = 2, pad = 1;
  const int oh = (h + 2 * pad - kernel) / stride + 1;
  const int ow = (w + 2 * pad - kernel) / stride + 1;
  const int rows = c * kernel * kernel;
  const std::int64_t plane = static_cast<std::int64_t>(oh) * ow;

  std::vector<float> im(static_cast<std::size_t>(c) * h * w);
  for (auto& v : im) v = static_cast<float>(rng.normal(0.0, 1.0));

  std::vector<float> compact(static_cast<std::size_t>(rows) * plane);
  im2col(im.data(), c, h, w, kernel, stride, pad, compact.data());

  // Strided: rows are twice as wide, image lands in the second half.
  const std::int64_t ld = 2 * plane;
  std::vector<float> wide(static_cast<std::size_t>(rows) * ld, -99.0f);
  im2col(im.data(), c, h, w, kernel, stride, pad, wide.data() + plane, ld);
  for (int r = 0; r < rows; ++r)
    for (std::int64_t j = 0; j < plane; ++j)
      ASSERT_EQ(compact[static_cast<std::size_t>(r) * plane + j],
                wide[static_cast<std::size_t>(r) * ld + plane + j]);

  std::vector<float> back_compact(im.size(), 0.0f);
  col2im(compact.data(), c, h, w, kernel, stride, pad, back_compact.data());
  std::vector<float> back_wide(im.size(), 0.0f);
  col2im(wide.data() + plane, c, h, w, kernel, stride, pad, back_wide.data(),
         ld);
  for (std::size_t i = 0; i < im.size(); ++i)
    ASSERT_EQ(back_compact[i], back_wide[i]);
}

}  // namespace
}  // namespace fedtrans
