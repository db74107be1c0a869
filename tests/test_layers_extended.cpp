// Unit + property tests for the extended NN substrate: BatchNorm, LayerNorm,
// MaxPool2d / AvgPool2d, Dropout, Sequential, grouped Conv2d (+ the paper's
// grouped→dense conversion, Appendix A.1).

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer_norm.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::check_gradients;
using testing::max_abs_diff;

// ---------------------------------------------------------------- BatchNorm

TEST(BatchNormTest, GradientsMatchFiniteDifferences2d) {
  Rng rng(11);
  BatchNorm bn(5);
  check_gradients(bn, {6, 5}, rng);
}

TEST(BatchNormTest, GradientsMatchFiniteDifferences4d) {
  Rng rng(12);
  BatchNorm bn(3);
  check_gradients(bn, {4, 3, 5, 5}, rng);
}

TEST(BatchNormTest, TrainOutputIsNormalizedPerChannel) {
  Rng rng(13);
  Tensor x({16, 4, 3, 3});
  x.randn(rng, 2.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] += 5.0f;
  BatchNorm bn(4);
  Tensor y = bn.forward(x, /*train=*/true);
  // gamma=1, beta=0 → each channel of y has ~zero mean and ~unit variance.
  const std::int64_t per = 16 * 3 * 3;
  for (int c = 0; c < 4; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < 16; ++n)
      for (int h = 0; h < 3; ++h)
        for (int w = 0; w < 3; ++w) {
          const double v = y.at(n, c, h, w);
          sum += v;
          sq += v * v;
        }
    const double mean = sum / static_cast<double>(per);
    const double var = sq / static_cast<double>(per) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsOneStepUpdateIsExact) {
  Rng rng(14);
  Tensor x({8, 2});
  x.randn(rng, 1.5f);
  double mean1 = 0.0, sq1 = 0.0;
  for (int n = 0; n < 8; ++n) {
    mean1 += x.at(n, 1);
    sq1 += static_cast<double>(x.at(n, 1)) * x.at(n, 1);
  }
  mean1 /= 8.0;
  const double var1 = sq1 / 8.0 - mean1 * mean1;
  const double unbiased1 = var1 * 8.0 / 7.0;

  BatchNorm bn(2, /*momentum=*/0.25);
  bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[1], 0.25 * mean1, 1e-5);
  EXPECT_NEAR(bn.running_var()[1], 0.75 * 1.0 + 0.25 * unbiased1, 1e-4);
}

TEST(BatchNormTest, EvalUsesRunningStatsNotBatchStats) {
  Rng rng(15);
  BatchNorm bn(3);
  // Warm the running stats on a shifted distribution.
  for (int it = 0; it < 200; ++it) {
    Tensor x({32, 3});
    x.randn(rng, 2.0f);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] += 3.0f;
    bn.forward(x, true);
  }
  // A wildly different eval batch must be normalized by the *running* stats:
  // a constant batch has zero batch-variance, but eval output should not
  // blow up — it uses the learned var ≈ 4.
  Tensor probe({4, 3}, 3.0f);
  Tensor y = bn.forward(probe, /*train=*/false);
  for (std::int64_t i = 0; i < y.numel(); ++i)
    EXPECT_NEAR(y[i], 0.0, 0.2);  // (3 − mean≈3)/std≈2
}

TEST(BatchNormTest, ResetRunningStatsRestoresIdentityStats) {
  Rng rng(16);
  BatchNorm bn(2);
  Tensor x({8, 2});
  x.randn(rng, 3.0f);
  bn.forward(x, true);
  bn.reset_running_stats();
  EXPECT_EQ(bn.running_mean()[0], 0.0f);
  EXPECT_EQ(bn.running_var()[0], 1.0f);
}

TEST(BatchNormTest, CloneCarriesAffineAndRunningStats) {
  Rng rng(17);
  BatchNorm bn(2);
  Tensor x({8, 2});
  x.randn(rng, 1.0f);
  bn.forward(x, true);
  bn.gamma()[0] = 2.5f;
  auto copy = bn.clone();
  auto* bn2 = dynamic_cast<BatchNorm*>(copy.get());
  ASSERT_NE(bn2, nullptr);
  EXPECT_EQ(bn2->gamma()[0], 2.5f);
  EXPECT_EQ(bn2->running_mean()[1], bn.running_mean()[1]);
  EXPECT_EQ(bn2->running_var()[1], bn.running_var()[1]);
}

TEST(BatchNormTest, RejectsMismatchedChannels) {
  BatchNorm bn(4);
  Tensor x({2, 3, 5, 5});
  EXPECT_THROW(bn.forward(x, true), Error);
}

TEST(BatchNormTest, RejectsInvalidConstruction) {
  EXPECT_THROW(BatchNorm(0), Error);
  EXPECT_THROW(BatchNorm(4, /*momentum=*/0.0), Error);
  EXPECT_THROW(BatchNorm(4, 0.1, /*eps=*/0.0), Error);
}

// ---------------------------------------------------------------- LayerNorm

TEST(LayerNormTest, GradientsMatchFiniteDifferences2d) {
  Rng rng(21);
  LayerNorm ln(6);
  check_gradients(ln, {5, 6}, rng);
}

TEST(LayerNormTest, GradientsMatchFiniteDifferences3d) {
  Rng rng(22);
  LayerNorm ln(4);
  check_gradients(ln, {3, 5, 4}, rng);
}

TEST(LayerNormTest, RowsAreNormalized) {
  Rng rng(23);
  Tensor x({4, 7, 8});
  x.randn(rng, 3.0f);
  LayerNorm ln(8);
  Tensor y = ln.forward(x, true);
  for (int n = 0; n < 4; ++n)
    for (int t = 0; t < 7; ++t) {
      double sum = 0.0, sq = 0.0;
      for (int d = 0; d < 8; ++d) {
        sum += y.at(n, t, d);
        sq += static_cast<double>(y.at(n, t, d)) * y.at(n, t, d);
      }
      EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
      EXPECT_NEAR(sq / 8.0, 1.0, 2e-2);
    }
}

TEST(LayerNormTest, AffineParametersApply) {
  Tensor x = Tensor::from({1, 2}, {1.0f, -1.0f});
  LayerNorm ln(2);
  ln.gamma()[0] = 3.0f;
  ln.beta()[1] = 0.5f;
  Tensor y = ln.forward(x, true);
  EXPECT_NEAR(y.at(0, 0), 3.0f, 1e-3);   // xhat = 1 → 3·1 + 0
  EXPECT_NEAR(y.at(0, 1), -0.5f, 1e-3);  // xhat = −1 → 1·(−1) + 0.5
}

TEST(LayerNormTest, RejectsWrongLastDim) {
  LayerNorm ln(8);
  Tensor x({2, 4});
  EXPECT_THROW(ln.forward(x, true), Error);
}

// ------------------------------------------------------------------ pooling

TEST(MaxPool2dTest, HandComputed2x2) {
  Tensor x = Tensor::from({1, 1, 2, 4},
                          {1.0f, 2.0f, 5.0f, 3.0f, 4.0f, 0.0f, -1.0f, 6.0f});
  MaxPool2d pool(2);
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 2}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 4.0f);
  EXPECT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmaxOnly) {
  Tensor x = Tensor::from({1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 0.5f});
  MaxPool2d pool(2);
  pool.forward(x, true);
  Tensor g = Tensor::from({1, 1, 1, 1}, {7.0f});
  Tensor dx = pool.backward(g);
  EXPECT_EQ(dx.at(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(dx.at(0, 0, 1, 0), 7.0f);  // max was 3.0 at (1,0)
  EXPECT_EQ(dx.at(0, 0, 0, 1), 0.0f);
  EXPECT_EQ(dx.at(0, 0, 1, 1), 0.0f);
}

TEST(MaxPool2dTest, TieBreaksToFirstInScanOrder) {
  Tensor x({1, 1, 2, 2}, 1.0f);  // all equal
  MaxPool2d pool(2);
  pool.forward(x, true);
  Tensor dx = pool.backward(Tensor::from({1, 1, 1, 1}, {1.0f}));
  EXPECT_EQ(dx.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(dx.at(0, 0, 0, 1), 0.0f);
}

TEST(MaxPool2dTest, GradientsMatchFiniteDifferences) {
  // Distinct values avoid argmax flips under the finite-difference probes.
  Tensor x({2, 3, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>((i * 37) % 97) * 0.1f;
  MaxPool2d pool(2);
  Rng rng(31);
  // check_gradients randomizes x; run a manual variant with safe spacing.
  Tensor out = pool.forward(x, true);
  Tensor proj(out.shape());
  proj.randn(rng, 1.0f);
  Tensor dx = pool.backward(proj);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    Tensor yp = pool.forward(xp, true);
    Tensor ym = pool.forward(xm, true);
    double lp = 0.0, lm = 0.0;
    for (std::int64_t j = 0; j < yp.numel(); ++j) {
      lp += static_cast<double>(yp[j]) * proj[j];
      lm += static_cast<double>(ym[j]) * proj[j];
    }
    EXPECT_NEAR(dx[i], (lp - lm) / (2.0 * eps), 1e-2) << "at " << i;
  }
}

TEST(MaxPool2dTest, StrideSmallerThanKernelOverlaps) {
  MaxPool2d pool(3, 1);
  Tensor x({1, 1, 5, 5}, 0.0f);
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 3, 3}));
}

TEST(MaxPool2dTest, RejectsWindowLargerThanInput) {
  MaxPool2d pool(4);
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x, true), Error);
}

TEST(AvgPool2dTest, HandComputed2x2) {
  Tensor x = Tensor::from({1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  AvgPool2d pool(2);
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 3.0f, 1e-6);
}

TEST(AvgPool2dTest, GradientsMatchFiniteDifferences) {
  Rng rng(32);
  AvgPool2d pool(2);
  check_gradients(pool, {2, 3, 4, 4}, rng);
}

TEST(AvgPool2dTest, BackwardSpreadsUniformly) {
  Tensor x({1, 1, 2, 2}, 1.0f);
  AvgPool2d pool(2);
  pool.forward(x, true);
  Tensor dx = pool.backward(Tensor::from({1, 1, 1, 1}, {8.0f}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(dx[i], 2.0f, 1e-6);
}

// ------------------------------------------------------------------ dropout

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(41);
  Tensor x({4, 8});
  x.randn(rng, 1.0f);
  Dropout drop(0.5);
  Tensor y = drop.forward(x, /*train=*/false);
  EXPECT_EQ(max_abs_diff(x, y), 0.0);
  // Backward after eval forward is also identity.
  Tensor g({4, 8}, 1.0f);
  Tensor dx = drop.backward(g);
  EXPECT_EQ(max_abs_diff(g, dx), 0.0);
}

TEST(DropoutTest, ZeroProbabilityIsIdentityInTraining) {
  Rng rng(42);
  Tensor x({4, 8});
  x.randn(rng, 1.0f);
  Dropout drop(0.0);
  Tensor y = drop.forward(x, true);
  EXPECT_EQ(max_abs_diff(x, y), 0.0);
}

TEST(DropoutTest, DropsApproximatelyPFraction) {
  Tensor x({100, 100}, 1.0f);
  Dropout drop(0.3, /*seed=*/7);
  Tensor y = drop.forward(x, true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    if (y[i] == 0.0f) ++zeros;
  const double frac = static_cast<double>(zeros) / y.numel();
  EXPECT_NEAR(frac, 0.3, 0.02);
}

TEST(DropoutTest, SurvivorsAreScaledByInverseKeepProbability) {
  Tensor x({64, 64}, 2.0f);
  Dropout drop(0.25, 9);
  Tensor y = drop.forward(x, true);
  for (std::int64_t i = 0; i < y.numel(); ++i)
    if (y[i] != 0.0f) {
      EXPECT_NEAR(y[i], 2.0f / 0.75f, 1e-5);
    }
}

TEST(DropoutTest, BackwardUsesSameMaskAsForward) {
  Rng rng(43);
  Tensor x({8, 8});
  x.randn(rng, 1.0f);
  Dropout drop(0.5, 11);
  Tensor y = drop.forward(x, true);
  Tensor g({8, 8}, 1.0f);
  Tensor dx = drop.backward(g);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (y[i] == 0.0f)
      EXPECT_EQ(dx[i], 0.0f);
    else
      EXPECT_NEAR(dx[i], 2.0f, 1e-5);  // 1/(1−0.5)
  }
}

TEST(DropoutTest, SameSeedSameMask) {
  Tensor x({16, 16}, 1.0f);
  Dropout a(0.5, 123), b(0.5, 123);
  Tensor ya = a.forward(x, true);
  Tensor yb = b.forward(x, true);
  EXPECT_EQ(max_abs_diff(ya, yb), 0.0);
}

TEST(DropoutTest, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(-0.1), Error);
  EXPECT_THROW(Dropout(1.0), Error);
}

// --------------------------------------------------------------- Sequential

TEST(SequentialTest, ForwardMatchesManualChain) {
  Rng rng(51);
  auto l1 = std::make_unique<Linear>(6, 5);
  auto l2 = std::make_unique<Linear>(5, 3);
  l1->init(rng);
  l2->init(rng);
  auto l1c = l1->clone();
  auto l2c = l2->clone();

  Sequential seq;
  seq.add(std::move(l1)).add(std::move(l2));

  Tensor x({4, 6});
  x.randn(rng, 1.0f);
  Tensor manual = l2c->forward(l1c->forward(x, true), true);
  Tensor chained = seq.forward(x, true);
  EXPECT_LT(max_abs_diff(manual, chained), 1e-6);
}

TEST(SequentialTest, ParamsConcatenateInOrder) {
  Rng rng(52);
  Sequential seq;
  seq.emplace<Linear>(4, 3).emplace<Linear>(3, 2);
  // Two Linears with bias → 4 parameter tensors.
  EXPECT_EQ(seq.params().size(), 4u);
  EXPECT_EQ(seq.num_params(), 4 * 3 + 3 + 3 * 2 + 2);
}

TEST(SequentialTest, MacsAndShapeChain) {
  Sequential seq;
  seq.emplace<Linear>(10, 8).emplace<Linear>(8, 2);
  EXPECT_EQ(seq.macs({10}), 10 * 8 + 8 * 2);
  EXPECT_EQ(seq.out_shape({10}), (std::vector<int>{2}));
}

TEST(SequentialTest, CloneIsDeep) {
  Rng rng(53);
  Sequential seq;
  seq.emplace<Linear>(3, 3);
  dynamic_cast<Linear&>(seq.layer(0)).init(rng);
  auto copy = seq.clone();

  Tensor x({2, 3});
  x.randn(rng, 1.0f);
  Tensor before = copy->forward(x, true);
  // Mutate the original; the clone must not change.
  for (auto& p : seq.params()) p.value->fill(0.0f);
  Tensor after = copy->forward(x, true);
  EXPECT_EQ(max_abs_diff(before, after), 0.0);
}

TEST(SequentialTest, GradientsFlowThroughStack) {
  Rng rng(54);
  Sequential seq;
  auto l1 = std::make_unique<Linear>(5, 4);
  l1->init(rng);
  seq.add(std::move(l1));
  auto l2 = std::make_unique<Linear>(4, 3);
  l2->init(rng);
  seq.add(std::move(l2));
  check_gradients(seq, {3, 5}, rng);
}

TEST(SequentialTest, RejectsNullLayer) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), Error);
  EXPECT_THROW(seq.layer(0), Error);
}

// ------------------------------------------------------------- grouped conv

// Conv2d(in, out, k, stride, padding, bias, groups).
Conv2d grouped_conv(int in_c, int out_c, int k, int groups, int stride = 1) {
  return Conv2d(in_c, out_c, k, stride, /*padding=*/-1, /*bias=*/true,
                groups);
}

TEST(Conv2dGroupsTest, GroupsOneMatchesDenseConv) {
  Rng rng(61);
  Conv2d grouped = grouped_conv(4, 6, 3, /*groups=*/1);
  grouped.init(rng);
  auto dense = grouped.to_dense();

  Tensor x({2, 4, 5, 5});
  x.randn(rng, 1.0f);
  Tensor yg = grouped.forward(x, true);
  Tensor yd = dense->forward(x, true);
  EXPECT_LT(max_abs_diff(yg, yd), 1e-6);
}

TEST(Conv2dGroupsTest, GradientsMatchFiniteDifferencesGroups2) {
  Rng rng(62);
  Conv2d conv = grouped_conv(4, 6, 3, /*groups=*/2);
  conv.init(rng);
  check_gradients(conv, {2, 4, 5, 5}, rng);
}

TEST(Conv2dGroupsTest, GradientsMatchFiniteDifferencesDepthwise) {
  Rng rng(63);
  Conv2d conv = grouped_conv(5, 5, 3, /*groups=*/5);
  conv.init(rng);
  check_gradients(conv, {2, 5, 4, 4}, rng);
}

TEST(Conv2dGroupsTest, MacsScaleInverselyWithGroups) {
  Conv2d g1 = grouped_conv(8, 8, 3, 1), g2 = grouped_conv(8, 8, 3, 2),
         g8 = grouped_conv(8, 8, 3, 8);
  const std::vector<int> in{8, 6, 6};
  EXPECT_EQ(g1.macs(in), 2 * g2.macs(in));
  EXPECT_EQ(g1.macs(in), 8 * g8.macs(in));
}

TEST(Conv2dGroupsTest, RejectsNonDividingGroups) {
  EXPECT_THROW(grouped_conv(4, 6, 3, 3), Error);  // 4 % 3 != 0
  EXPECT_THROW(grouped_conv(6, 4, 3, 3), Error);  // 4 % 3 != 0
  EXPECT_THROW(grouped_conv(6, 6, 3, 0), Error);
}

TEST(Conv2dGroupsTest, IdentityInitRequiresGroupsOne) {
  Conv2d conv = grouped_conv(4, 4, 3, /*groups=*/2);
  EXPECT_THROW(conv.init_identity(), Error);
  Conv2d dense = grouped_conv(4, 4, 3, /*groups=*/1);
  EXPECT_NO_THROW(dense.init_identity());
}

// Paper Appendix A.1: grouped layers are converted to dense before running
// HeteroFL/SplitMix; conversion must preserve the function exactly while
// (for groups > 1) increasing MACs.
struct GroupedToDenseCase {
  int in_c, out_c, k, groups, stride;
};

class GroupedToDenseTest : public ::testing::TestWithParam<GroupedToDenseCase> {};

TEST_P(GroupedToDenseTest, DenseConversionPreservesFunction) {
  const auto c = GetParam();
  Rng rng(64 + c.groups);
  Conv2d grouped = grouped_conv(c.in_c, c.out_c, c.k, c.groups, c.stride);
  grouped.init(rng);
  auto dense = grouped.to_dense();

  Tensor x({2, c.in_c, 7, 7});
  x.randn(rng, 1.0f);
  Tensor yg = grouped.forward(x, true);
  Tensor yd = dense->forward(x, true);
  EXPECT_LT(max_abs_diff(yg, yd), 1e-6);

  const std::vector<int> in{c.in_c, 7, 7};
  if (c.groups > 1)
    EXPECT_GT(dense->macs(in), grouped.macs(in))
        << "dense conversion should cost more MACs";
  else
    EXPECT_EQ(dense->macs(in), grouped.macs(in));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedToDenseTest,
    ::testing::Values(GroupedToDenseCase{4, 4, 3, 1, 1},
                      GroupedToDenseCase{4, 4, 3, 2, 1},
                      GroupedToDenseCase{4, 4, 3, 4, 1},
                      GroupedToDenseCase{6, 12, 3, 3, 1},
                      GroupedToDenseCase{8, 8, 1, 8, 1},
                      GroupedToDenseCase{4, 8, 3, 2, 2},
                      GroupedToDenseCase{8, 4, 5, 4, 2}),
    [](const ::testing::TestParamInfo<GroupedToDenseCase>& info) {
      const auto& c = info.param;
      return "in" + std::to_string(c.in_c) + "out" + std::to_string(c.out_c) +
             "k" + std::to_string(c.k) + "g" + std::to_string(c.groups) +
             "s" + std::to_string(c.stride);
    });

TEST(DepthwiseSeparableTest, ShapeAndMacsBelowDense) {
  Rng rng(65);
  auto block = make_depthwise_separable(8, 16, 3, 1, rng);
  const std::vector<int> in{8, 6, 6};
  EXPECT_EQ(block->out_shape(in), (std::vector<int>{16, 6, 6}));
  Conv2d dense(8, 16, 3);
  EXPECT_LT(block->macs(in), dense.macs(in));
}

TEST(DepthwiseSeparableTest, ForwardBackwardRoundTrip) {
  Rng rng(66);
  auto block = make_depthwise_separable(4, 6, 3, 2, rng);
  Tensor x({2, 4, 6, 6});
  x.randn(rng, 1.0f);
  Tensor y = block->forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 6, 3, 3}));
  Tensor g(y.shape(), 1.0f);
  Tensor dx = block->backward(g);
  EXPECT_TRUE(dx.same_shape(x));
}

}  // namespace
}  // namespace fedtrans
