// Parallel compute backend: blocked GEMM vs reference, im2col convolution vs
// the direct loop nest, ThreadPool semantics, and thread-count invariance of
// whole federated rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "nn/conv2d.hpp"
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

struct ConvCase {
  int in_c, out_c, kernel, stride, pad, groups;
};

// Forward + backward parity between the im2col lowering and the direct
// reference loops, across strided / padded / 1x1 / grouped / depthwise cases.
TEST(ConvBackend, Im2colMatchesDirectReference) {
  const ConvCase cases[] = {
      {3, 8, 3, 1, -1, 1},   // same-padded 3x3
      {4, 6, 3, 2, 0, 1},    // strided, unpadded
      {5, 7, 1, 1, 0, 1},    // pointwise
      {4, 8, 5, 2, 2, 1},    // large kernel, stride 2
      {6, 8, 3, 1, -1, 2},   // grouped
      {8, 8, 3, 2, -1, 8},   // depthwise, strided
  };
  for (const auto& cc : cases) {
    Rng rng(17);
    Tensor x({2, cc.in_c, 9, 11});
    x.randn(rng);

    auto make = [&](Rng& r) {
      auto conv = std::make_unique<Conv2d>(cc.in_c, cc.out_c, cc.kernel,
                                           cc.stride, cc.pad, /*bias=*/true,
                                           cc.groups);
      conv->init(r);
      return conv;
    };
    Rng r1(23), r2(23);
    auto conv_fast = make(r1);
    auto conv_ref = make(r2);

    set_conv_backend(ConvBackend::Im2col);
    Tensor y_fast = conv_fast->forward(x, true);
    set_conv_backend(ConvBackend::Direct);
    Tensor y_ref = conv_ref->forward(x, true);
    EXPECT_LT(max_abs_diff(y_fast, y_ref), 1e-4)
        << "forward mismatch (groups=" << cc.groups << " k=" << cc.kernel
        << " stride=" << cc.stride << ")";

    Tensor g(y_ref.shape());
    g.randn(rng);
    set_conv_backend(ConvBackend::Im2col);
    Tensor dx_fast = conv_fast->backward(g);
    set_conv_backend(ConvBackend::Direct);
    Tensor dx_ref = conv_ref->backward(g);
    EXPECT_LT(max_abs_diff(dx_fast, dx_ref), 1e-4) << "dx mismatch";

    auto ps_fast = conv_fast->params();
    auto ps_ref = conv_ref->params();
    ASSERT_EQ(ps_fast.size(), ps_ref.size());
    for (std::size_t i = 0; i < ps_fast.size(); ++i)
      EXPECT_LT(max_abs_diff(*ps_fast[i].grad, *ps_ref[i].grad), 2e-3)
          << ps_fast[i].name << " grad mismatch";
    set_conv_backend(ConvBackend::Im2col);
  }
}

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
