// Tests for Attention at more than one head: head slicing changes the
// function, the residual-identity initialization holds per head, the
// per-head attention mixes values row-stochastically, and head counts that do
// not divide the width are rejected. The gradient check over heads 1/2/4/8 is
// in test_attention.cpp.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "nn/attention.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::max_abs_diff;

TEST(AttentionHeadsTest, HeadsChangeTheFunction) {
  // Same packed weights, different head count → different attention
  // patterns (heads restrict the score computation to their slice).
  Rng rng(8);
  Attention one(8, 1), four(8, 4);
  one.init(rng);
  auto p1 = one.params();
  auto p4 = four.params();
  for (std::size_t i = 0; i < p1.size(); ++i) *p4[i].value = *p1[i].value;

  Tensor x({1, 5, 8});
  x.randn(rng, 1.0f);
  Tensor y1 = one.forward(x, true);
  Tensor y4 = four.forward(x, true);
  EXPECT_GT(max_abs_diff(y1, y4), 1e-4);
}

TEST(AttentionHeadsTest, ZeroOutputProjectionGivesZeroOutput) {
  Rng rng(9);
  Attention attn(8, 2);
  attn.init(rng);
  attn.zero_output_projection();
  Tensor x({2, 3, 8});
  x.randn(rng, 1.0f);
  Tensor y = attn.forward(x, true);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST(AttentionHeadsTest, OutputIsRowStochasticMixOfValues) {
  // With identity-like V projection and zero Q/K, attention is uniform:
  // every token's output (pre-Wo) averages the values. Verify through the
  // public API with Wo = I.
  Attention attn(4, 2);
  auto ps = attn.params();
  // wq = wk = 0 → uniform attention; wv = I; wo = I; biases 0.
  for (auto& p : ps) p.value->zero();
  Tensor* wv = ps[4].value;
  Tensor* wo = ps[6].value;
  for (int i = 0; i < 4; ++i) {
    wv->at(i, i) = 1.0f;
    wo->at(i, i) = 1.0f;
  }
  Tensor x = Tensor::from({1, 2, 4}, {1.0f, 2.0f, 3.0f, 4.0f,  //
                                      5.0f, 6.0f, 7.0f, 8.0f});
  Tensor y = attn.forward(x, true);
  // Uniform attention over 2 tokens → every token gets the mean value row.
  for (int t = 0; t < 2; ++t)
    for (int dd = 0; dd < 4; ++dd)
      EXPECT_NEAR(y.at(0, t, dd), (x.at(0, 0, dd) + x.at(0, 1, dd)) / 2.0f,
                  1e-5f);
}

TEST(AttentionHeadsTest, MacsGrowWithSequenceLength) {
  Attention attn(8, 2);
  EXPECT_GT(attn.macs({16, 8}), attn.macs({4, 8}));
  // Projections dominate: 4·T·D² term present.
  EXPECT_GE(attn.macs({4, 8}), 4 * 4 * 8 * 8);
}

TEST(AttentionHeadsTest, CloneIsDeep) {
  Rng rng(10);
  Attention attn(6, 3);
  attn.init(rng);
  auto copy = attn.clone();
  Tensor x({1, 4, 6});
  x.randn(rng, 1.0f);
  Tensor before = copy->forward(x, true);
  for (auto& p : attn.params()) p.value->fill(0.0f);
  Tensor after = copy->forward(x, true);
  EXPECT_EQ(max_abs_diff(before, after), 0.0);
}

TEST(AttentionHeadsTest, RejectsNonDividingHeads) {
  EXPECT_THROW(Attention(8, 3), Error);
  EXPECT_THROW(Attention(8, 0), Error);
}

TEST(AttentionHeadsTest, RejectsWrongInputDim) {
  Attention attn(8, 2);
  Tensor x({2, 3, 6});
  EXPECT_THROW(attn.forward(x, true), Error);
}

}  // namespace
}  // namespace fedtrans
