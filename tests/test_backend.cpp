// Parallel compute backend: blocked GEMM vs reference, im2col convolution vs
// the direct loop nest, ThreadPool semantics, and thread-count invariance of
// whole federated rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::max_abs_diff;

// Double-accumulated reference product for correctness checks.
std::vector<float> gemm_reference(bool trans_a, bool trans_b, int m, int n,
                                  int k, float alpha, const float* a, int lda,
                                  const float* b, int ldb, float beta,
                                  const float* c_in, int ldc) {
  std::vector<float> c(static_cast<std::size_t>(m) * ldc, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const double bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        s += av * bv;
      }
      const double prior =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * c_in[i * ldc + j];
      c[static_cast<std::size_t>(i) * ldc + j] =
          static_cast<float>(prior + alpha * s);
    }
  }
  return c;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100, 1,
                                 [&](std::int64_t lo, std::int64_t) {
                                   if (lo == 42) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, 1, [&](std::int64_t, std::int64_t) {
    // Must not deadlock and must still visit every inner index.
    ThreadPool::global().parallel_for(
        16, 1, [&](std::int64_t lo, std::int64_t hi) {
          total += static_cast<int>(hi - lo);
        });
  });
  EXPECT_EQ(total, 8 * 16);
}

TEST(ThreadPool, NestedCallOnSamePoolFromCallerChunkRunsInline) {
  // The submitting thread participates in its own parallel_for; a nested
  // call on the *same* pool from one of its chunks (e.g. a large GEMM inside
  // a concurrently-training client) must run inline instead of re-locking
  // the submit mutex. Regression test: this used to self-deadlock.
  ThreadPool::set_global_threads(4);
  std::atomic<int> total{0};
  ThreadPool::global().parallel_for(8, 1, [&](std::int64_t, std::int64_t) {
    ThreadPool::global().parallel_for(
        16, 1, [&](std::int64_t lo, std::int64_t hi) {
          total += static_cast<int>(hi - lo);
        });
  });
  ThreadPool::set_global_threads(ThreadPool::global_threads());
  EXPECT_EQ(total, 8 * 16);
}

TEST(Gemm, BetaZeroAssignsOverUninitializedOutput) {
  const int n = 8;
  Rng rng(3);
  Tensor a({n, n}), b({n, n});
  a.randn(rng);
  b.randn(rng);
  std::vector<float> c(n * n, std::nanf(""));
  gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(),
       n);
  for (float v : c) EXPECT_TRUE(std::isfinite(v));
  auto ref = gemm_reference(false, false, n, n, n, 1.0f, a.data(), n, b.data(),
                            n, 0.0f, c.data(), n);
  for (int i = 0; i < n * n; ++i)
    EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                ref[static_cast<std::size_t>(i)], 1e-4);
}

TEST(Gemm, BlockedPathMatchesReferenceAcrossShapesAndTransposes) {
  Rng rng(11);
  // Ragged sizes exercise partial tiles in every blocking dimension; the
  // larger shapes cross the small-GEMM fast-path threshold.
  const struct {
    int m, n, k;
  } shapes[] = {{3, 5, 7}, {33, 47, 29}, {100, 130, 70}, {97, 203, 301}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const int lda = ta ? s.m : s.k;
        const int ldb = tb ? s.k : s.n;
        Tensor a({ta ? s.k : s.m, lda}), b({tb ? s.n : s.k, ldb});
        Tensor c({s.m, s.n});
        a.randn(rng);
        b.randn(rng);
        c.randn(rng);
        auto ref = gemm_reference(ta, tb, s.m, s.n, s.k, 0.7f, a.data(), lda,
                                  b.data(), ldb, 0.3f, c.data(), s.n);
        gemm(ta, tb, s.m, s.n, s.k, 0.7f, a.data(), lda, b.data(), ldb, 0.3f,
             c.data(), s.n);
        double worst = 0.0;
        for (std::int64_t i = 0; i < c.numel(); ++i)
          worst = std::max(worst,
                           std::fabs(static_cast<double>(c[i]) -
                                     ref[static_cast<std::size_t>(i)]));
        EXPECT_LT(worst, 5e-3)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << ta
            << " tb=" << tb;
      }
    }
  }
}

TEST(Gemm, ThreadedBitwiseMatchesSingleThreaded) {
  const int m = 211, n = 173, k = 157;
  Rng rng(5);
  Tensor a({m, k}), b({k, n});
  a.randn(rng);
  b.randn(rng);
  Tensor c1({m, n}), c4({m, n});

  ThreadPool::set_global_threads(1);
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c1.data(),
       n);
  ThreadPool::set_global_threads(4);
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c4.data(),
       n);
  ThreadPool::set_global_threads(ThreadPool::global_threads());

  for (std::int64_t i = 0; i < c1.numel(); ++i)
    ASSERT_EQ(c1[i], c4[i]) << "thread count changed the result at " << i;
}

// ---- conv contract ----------------------------------------------------------
// One table of conv shapes and one set of bodies run on every row (the
// module_tests pattern): im2col/col2im against their definition, the kept
// column panel against recomputing from the input, backward_params against
// backward, 1 vs 4 threads, switching the backend between a forward and
// its backward, and the im2col lowering against the direct loop nest. All
// but the last are bitwise.

struct ConvContractCase {
  const char* label;
  int in_c, out_c, kernel, stride, pad, groups, batch, h, w;
};

const ConvContractCase kConvContract[] = {
    {"same_k3", 3, 8, 3, 1, 1, 1, 1, 9, 11},
    {"narrow_e2e", 4, 4, 3, 1, 1, 1, 10, 12, 12},  // fedtrans-cifar's layer
    {"valid_k3", 4, 6, 3, 1, 0, 1, 1, 8, 7},
    {"wide_pad2_k3", 3, 5, 3, 1, 2, 1, 2, 6, 5},  // stride 1, ow > w
    {"same_k5", 3, 4, 5, 1, 2, 1, 10, 7, 6},
    {"pointwise", 5, 7, 1, 1, 0, 1, 10, 9, 11},
    {"stride2_pad0", 4, 6, 3, 2, 0, 1, 2, 9, 11},
    {"stride2_pad2_k5", 4, 8, 5, 2, 2, 1, 2, 9, 11},
    {"grouped2", 6, 8, 3, 1, 1, 2, 10, 9, 11},
    {"depthwise", 8, 8, 3, 1, 1, 8, 10, 7, 7},
    {"depthwise_stride2", 8, 8, 3, 2, 1, 8, 2, 9, 11},
    {"map2x2_pad1", 3, 4, 3, 1, 1, 1, 10, 2, 2},
    // 16 images × 144 rows × 1024 pixels × 4 B > 8 MB: two column tiles.
    {"past_budget", 16, 8, 3, 1, 1, 1, 16, 32, 32},
    // Each group's panel fits one tile, but both groups' together do not.
    {"past_budget_grouped", 16, 8, 3, 1, 1, 2, 16, 32, 32},
};

// Restores the im2col backend when a body leaves early.
struct Im2colAfter {
  ~Im2colAfter() { set_conv_backend(ConvBackend::Im2col); }
};

// Index of the first element whose bits differ (or 0 on a size mismatch),
// -1 when every bit matches.
std::int64_t first_bit_mismatch(std::span<const float> a,
                                 std::span<const float> b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return static_cast<std::int64_t>(i);
  return -1;
}

// im2col by definition: row (c·k + ky)·k + kx, column oy·ow + ox holds
// x[c][oy·stride − pad + ky][ox·stride − pad + kx], zero outside the image.
std::vector<float> naive_im2col(const float* im, int channels, int h, int w,
                                int k, int stride, int pad) {
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (w + 2 * pad - k) / stride + 1;
  std::vector<float> col(static_cast<std::size_t>(channels) * k * k * oh * ow);
  std::size_t i = 0;
  for (int c = 0; c < channels; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox, ++i) {
            const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
            const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
            col[i] = in ? im[(static_cast<std::size_t>(c) * h + iy) * w + ix]
                        : 0.0f;
          }
  return col;
}

// col2im by definition: the adjoint scatter-add, in the same element order.
void naive_col2im(const float* col, int channels, int h, int w, int k,
                  int stride, int pad, float* im) {
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (w + 2 * pad - k) / stride + 1;
  std::size_t i = 0;
  for (int c = 0; c < channels; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox, ++i) {
            const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              im[(static_cast<std::size_t>(c) * h + iy) * w + ix] += col[i];
          }
}

class ConvContract : public ::testing::TestWithParam<ConvContractCase> {
 protected:
  // Every body starts from the same weights, input and output gradient.
  Conv2d make_conv() const {
    const auto& c = GetParam();
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, /*bias=*/true,
                c.groups);
    Rng rng(31);
    conv.init(rng);
    conv.bias().randn(rng);
    return conv;
  }
  Tensor input() const {
    const auto& c = GetParam();
    Tensor x({c.batch, c.in_c, c.h, c.w});
    Rng rng(37);
    x.randn(rng);
    return x;
  }
  Tensor grad_out(const Tensor& y) const {
    Tensor g(y.shape());
    Rng rng(41);
    g.randn(rng);
    return g;
  }

  // y, dx, gW and gb of one forward (train or eval) and one backward. With
  // `stale`, a training forward on another input runs first, so a backward
  // that read a panel the last forward did not leave would show.
  struct Pass {
    Tensor y, dx, gw, gb;
  };
  Pass run(bool train, bool params_only = false, bool stale = false) const {
    Conv2d conv = make_conv();
    if (stale) {
      Tensor other = input();
      other.mul_(-0.5f);
      conv.forward(other, true);
    }
    Pass p;
    p.y = conv.forward(input(), train);
    if (params_only)
      conv.backward_params(grad_out(p.y));
    else
      p.dx = conv.backward(grad_out(p.y));
    p.gw = *conv.params()[0].grad;
    p.gb = *conv.params()[1].grad;
    return p;
  }

  static void expect_bitwise(const Tensor& a, const Tensor& b,
                             const char* what) {
    EXPECT_TRUE(a.same_shape(b)) << what;
    const std::int64_t at = first_bit_mismatch(a.values(), b.values());
    EXPECT_EQ(at, -1) << what << " differs at element " << at;
  }
};

TEST_P(ConvContract, Im2colAndCol2imMatchTheirDefinition) {
  const auto& c = GetParam();
  const Tensor x = input();
  const auto plane = static_cast<std::int64_t>(c.in_c) * c.h * c.w;
  const int oh = (c.h + 2 * c.pad - c.kernel) / c.stride + 1;
  const int ow = (c.w + 2 * c.pad - c.kernel) / c.stride + 1;
  const auto cols = static_cast<std::int64_t>(c.in_c) * c.kernel * c.kernel *
                    oh * ow;
  for (int b : {0, c.batch - 1}) {
    const float* im = x.data() + b * plane;
    const auto want =
        naive_im2col(im, c.in_c, c.h, c.w, c.kernel, c.stride, c.pad);
    std::vector<float> got(static_cast<std::size_t>(cols), -1.0f);
    im2col(im, c.in_c, c.h, c.w, c.kernel, c.stride, c.pad, got.data());
    EXPECT_EQ(first_bit_mismatch(want, got), -1) << "im2col, image " << b;

    // col2im accumulates: start both sides from the same nonzero image.
    std::vector<float> back_want(im, im + plane), back_got(im, im + plane);
    naive_col2im(want.data(), c.in_c, c.h, c.w, c.kernel, c.stride, c.pad,
                 back_want.data());
    col2im(want.data(), c.in_c, c.h, c.w, c.kernel, c.stride, c.pad,
           back_got.data());
    EXPECT_EQ(first_bit_mismatch(back_want, back_got), -1)
        << "col2im, image " << b;
  }
}

// A training forward keeps its column panel (when the batch fits); an eval
// forward keeps the input and backward unfolds it again, even right after
// a panel-keeping forward. All must give the same bits.
TEST_P(ConvContract, KeptPanelMatchesRecompute) {
  const Pass kept = run(/*train=*/true);
  for (bool stale : {false, true}) {
    const Pass recomputed = run(/*train=*/false, /*params_only=*/false, stale);
    expect_bitwise(kept.y, recomputed.y, "y");
    expect_bitwise(kept.dx, recomputed.dx, "dx");
    expect_bitwise(kept.gw, recomputed.gw, "gW");
    expect_bitwise(kept.gb, recomputed.gb, "gb");
  }
}

TEST_P(ConvContract, BackwardParamsMatchesBackward) {
  for (bool train : {true, false}) {
    const Pass full = run(train);
    const Pass params = run(train, /*params_only=*/true);
    EXPECT_TRUE(params.dx.empty());
    expect_bitwise(full.gw, params.gw, "gW");
    expect_bitwise(full.gb, params.gb, "gb");
  }
}

TEST_P(ConvContract, BitwiseAcrossThreadCounts) {
  ThreadPool::set_global_threads(1);
  const Pass one = run(/*train=*/true);
  ThreadPool::set_global_threads(4);
  const Pass four = run(/*train=*/true);
  ThreadPool::set_global_threads(ThreadPool::global_threads());
  expect_bitwise(one.y, four.y, "y");
  expect_bitwise(one.dx, four.dx, "dx");
  expect_bitwise(one.gw, four.gw, "gW");
  expect_bitwise(one.gb, four.gb, "gb");
}

// Switching the backend between a forward and its backward either
// recomputes from a kept input or throws; it never reads a cache the
// forward did not leave.
TEST_P(ConvContract, BackendSwitchRecomputesOrThrows) {
  const auto& c = GetParam();
  Im2colAfter restore;
  const Tensor x = input();
  const Pass recomputed = run(/*train=*/false);

  // Direct forward, im2col backward: unfolds the kept input.
  Conv2d a = make_conv();
  set_conv_backend(ConvBackend::Direct);
  const Tensor y = a.forward(x, true);
  set_conv_backend(ConvBackend::Im2col);
  expect_bitwise(a.backward(grad_out(y)), recomputed.dx, "dx");
  expect_bitwise(*a.params()[0].grad, recomputed.gw, "gW");
  expect_bitwise(*a.params()[1].grad, recomputed.gb, "gb");

  // Im2col training forward, direct backward: throws if the forward kept
  // only its panel, else runs the direct backward on the kept input.
  Conv2d b = make_conv();
  b.forward(x, true);
  set_conv_backend(ConvBackend::Direct);
  if (conv_panel_fits(ConvDims{c.in_c, c.out_c, c.kernel, c.stride, c.pad,
                               c.groups},
                      c.batch, c.h, c.w)) {
    EXPECT_THROW(b.backward(grad_out(y)), Error);
  } else {
    Conv2d ref = make_conv();
    ref.forward(x, true);
    expect_bitwise(b.backward(grad_out(y)), ref.backward(grad_out(y)), "dx");
  }
}

// The lowering against the reference loop nest: forward results agree to
// rounding, and backward reassociates the batch sums.
TEST_P(ConvContract, Im2colMatchesDirectReference) {
  Im2colAfter restore;
  const Pass lowered = run(/*train=*/true);
  set_conv_backend(ConvBackend::Direct);
  const Pass direct = run(/*train=*/true);
  EXPECT_LT(max_abs_diff(lowered.y, direct.y), 1e-4) << "y";
  EXPECT_LT(max_abs_diff(lowered.dx, direct.dx), 1e-4) << "dx";
  EXPECT_LT(max_abs_diff(lowered.gw, direct.gw), 2e-3) << "gW";
  EXPECT_LT(max_abs_diff(lowered.gb, direct.gb), 2e-3) << "gb";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvContract, ::testing::ValuesIn(kConvContract),
    [](const ::testing::TestParamInfo<ConvContractCase>& info) {
      return std::string(info.param.label);
    });

// Analytic gradients of the im2col path against finite differences.
TEST(ConvBackend, Im2colGradientsCheckNumerically) {
  set_conv_backend(ConvBackend::Im2col);
  Rng rng(29);
  {
    Conv2d conv(3, 5, 3, 2, 1);
    conv.init(rng);
    testing::check_gradients(conv, {2, 3, 7, 7}, rng);
  }
  {
    Conv2d conv(4, 6, 3, /*stride=*/1, /*padding=*/-1, /*bias=*/true,
                /*groups=*/2);
    conv.init(rng);
    testing::check_gradients(conv, {2, 4, 6, 6}, rng);
  }
}

FederatedDataset backend_dataset() {
  DatasetConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_clients = 8;
  dcfg.hw = 8;
  dcfg.mean_train_samples = 24;
  return FederatedDataset::generate(dcfg);
}

std::vector<DeviceProfile> backend_fleet(int n) {
  std::vector<DeviceProfile> fleet(static_cast<std::size_t>(n));
  for (auto& d : fleet) d.capacity_macs = 1e12;
  return fleet;
}

// One FedAvg run per thread count; every metric and the final weights must be
// identical — client Rngs are pre-forked and reductions run in fixed order.
TEST(ConvBackend, FedAvgRoundIdenticalAcrossThreadCounts) {
  auto data = backend_dataset();
  auto run = [&](int threads) {
    ThreadPool::set_global_threads(threads);
    Rng rng(7);
    Model init(ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), rng);
    SessionConfig cfg;
    cfg.rounds = 3;
    cfg.clients_per_round = 4;
    cfg.local.steps = 2;
    cfg.local.batch = 4;
    cfg.eval_every = 1;
    cfg.seed = 13;
    auto engine = testing::make_engine<FedAvgStrategy>(
        data, backend_fleet(data.num_clients()), cfg, init, FedAvgOptions{});
    engine->run();
    return std::make_pair(
        engine->history(),
        engine->strategy_as<FedAvgStrategy>().model().weights());
  };
  auto [hist1, w1] = run(1);
  auto [hist4, w4] = run(4);
  ThreadPool::set_global_threads(ThreadPool::global_threads());

  ASSERT_EQ(hist1.size(), hist4.size());
  for (std::size_t i = 0; i < hist1.size(); ++i) {
    EXPECT_EQ(hist1[i].avg_loss, hist4[i].avg_loss);
    EXPECT_EQ(hist1[i].accuracy, hist4[i].accuracy);
    EXPECT_EQ(hist1[i].cum_macs, hist4[i].cum_macs);
  }
  ASSERT_EQ(w1.size(), w4.size());
  for (std::size_t t = 0; t < w1.size(); ++t)
    for (std::int64_t i = 0; i < w1[t].numel(); ++i)
      ASSERT_EQ(w1[t][i], w4[t][i]) << "weight diverged (tensor " << t << ")";
}

TEST(ConvBackend, FedTransRoundIdenticalAcrossThreadCounts) {
  auto data = backend_dataset();
  auto run = [&](int threads) {
    ThreadPool::set_global_threads(threads);
    FedTransConfig cfg;
    cfg.rounds = 3;
    cfg.clients_per_round = 4;
    cfg.local.steps = 2;
    cfg.local.batch = 4;
    cfg.seed = 19;
    cfg.max_models = 2;
    auto engine = testing::make_engine<FedTransStrategy>(
        data, backend_fleet(data.num_clients()), SessionConfig::from(cfg),
        ModelSpec::conv(1, 8, 4, 3, {4, 6}, {1, 1}, {1, 2}), cfg);
    engine->run();
    return std::make_pair(
        engine->history(),
        engine->strategy_as<FedTransStrategy>().model(0).weights());
  };
  auto [hist1, w1] = run(1);
  auto [hist4, w4] = run(4);
  ThreadPool::set_global_threads(ThreadPool::global_threads());

  ASSERT_EQ(hist1.size(), hist4.size());
  for (std::size_t i = 0; i < hist1.size(); ++i)
    EXPECT_EQ(hist1[i].avg_loss, hist4[i].avg_loss);
  ASSERT_EQ(w1.size(), w4.size());
  for (std::size_t t = 0; t < w1.size(); ++t)
    for (std::int64_t i = 0; i < w1[t].numel(); ++i)
      ASSERT_EQ(w1[t][i], w4[t][i]) << "weight diverged (tensor " << t << ")";
}

}  // namespace
}  // namespace fedtrans
