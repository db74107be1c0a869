// Tests for the token layers: Attention (numerical gradients at every head
// count, the residual-identity initialization used for function-preserving
// insertion), TokenMlp, PatchToTokens and MeanTokens. The cases that need
// more than one head are the AttentionHeadsTest suite, a binary of its own.

#include <gtest/gtest.h>

#include "nn/attention.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::check_gradients;

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(1);
  Attention attn(8);
  attn.init(rng);
  Tensor x({2, 5, 8});
  x.randn(rng);
  Tensor y = attn.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, ZeroOutputProjectionGivesZero) {
  Rng rng(3);
  Attention attn(6);
  attn.init(rng);
  attn.zero_output_projection();
  Tensor x({1, 4, 6});
  x.randn(rng);
  Tensor y = attn.forward(x, true);
  EXPECT_LT(y.abs_max(), 1e-7);
}

TEST(Attention, PermutationEquivariance) {
  // Self-attention without positional encoding commutes with token
  // permutation.
  Rng rng(4);
  Attention attn(5);
  attn.init(rng);
  Tensor x({1, 3, 5});
  x.randn(rng);
  Tensor y = attn.forward(x, true);
  // Swap tokens 0 and 2.
  Tensor xp = x;
  for (int d = 0; d < 5; ++d) {
    std::swap(xp.at(0, 0, d), xp.at(0, 2, d));
  }
  Tensor yp = attn.forward(xp, true);
  for (int d = 0; d < 5; ++d) {
    EXPECT_NEAR(yp.at(0, 0, d), y.at(0, 2, d), 1e-5);
    EXPECT_NEAR(yp.at(0, 2, d), y.at(0, 0, d), 1e-5);
    EXPECT_NEAR(yp.at(0, 1, d), y.at(0, 1, d), 1e-5);
  }
}

TEST(Attention, MacsFormula) {
  Attention attn(8);
  EXPECT_EQ(attn.macs({6, 8}), 4LL * 6 * 8 * 8 + 2LL * 6 * 6 * 8);
}

class AttentionGradients : public ::testing::TestWithParam<int> {};

TEST_P(AttentionGradients, MatchFiniteDifferences) {
  const int heads = GetParam();
  Rng rng(100 + heads);
  Attention attn(8, heads);
  attn.init(rng);
  check_gradients(attn, {2, 5, 8}, rng);
}

INSTANTIATE_TEST_SUITE_P(Heads, AttentionGradients,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "h" + std::to_string(info.param);
                         });

TEST(TokenMlp, GradientCheck) {
  Rng rng(5);
  TokenMlp mlp(4, 7);
  mlp.init(rng);
  testing::check_gradients(mlp, {2, 3, 4}, rng, /*tol=*/4e-2);
}

TEST(TokenMlp, ZeroOutputProjectionGivesZero) {
  Rng rng(6);
  TokenMlp mlp(4, 6);
  mlp.init(rng);
  mlp.zero_output_projection();
  Tensor x({1, 3, 4});
  x.randn(rng);
  EXPECT_LT(mlp.forward(x, true).abs_max(), 1e-7);
}

TEST(TokenMlp, MacsFormula) {
  TokenMlp mlp(8, 16);
  EXPECT_EQ(mlp.macs({5, 8}), 2LL * 5 * 8 * 16);
}

TEST(PatchToTokens, RoundTrip) {
  PatchToTokens p;
  Rng rng(7);
  Tensor x({2, 3, 2, 2});
  x.randn(rng);
  Tensor y = p.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4, 3}));
  // Channel-major to token-major transpose: y[b,t,c] == x[b,c,t].
  EXPECT_EQ(y.at(0, 1, 2), x.at(0, 2, 0, 1));
  Tensor dx = p.backward(y);
  EXPECT_LT(testing::max_abs_diff(dx, x), 1e-9);
}

TEST(MeanTokens, ForwardAndBackward) {
  MeanTokens m;
  Tensor x = Tensor::from({1, 2, 2}, {1, 2, 3, 4});
  Tensor y = m.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.0f);
  Tensor g = Tensor::from({1, 2}, {2, 4});
  Tensor dx = m.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1, 1), 2.0f);
}

}  // namespace
}  // namespace fedtrans
