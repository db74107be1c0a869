#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/model.hpp"
#include "model/similarity.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

TEST(Spec, ConvBuilderAssignsFreshIds) {
  auto s = ModelSpec::conv(3, 12, 10, 4, {8, 16}, {1, 2}, {1, 2});
  ASSERT_EQ(s.cells.size(), 2u);
  EXPECT_NE(s.cells[0].id, s.cells[1].id);
  EXPECT_EQ(s.cells[1].blocks, 2);
  EXPECT_EQ(s.cells[1].stride, 2);
}

TEST(Spec, SerializeRoundTrip) {
  auto s = ModelSpec::conv(3, 12, 10, 4, {8, 16}, {1, 2}, {1, 2});
  s.name = "M3";
  s.model_id = 3;
  s.parent_id = 1;
  s.cells[0].widened_last = true;
  const auto text = s.serialize();
  const auto t = ModelSpec::deserialize(text);
  EXPECT_EQ(s, t);
}

TEST(Spec, SerializeRoundTripAttention) {
  auto s = ModelSpec::attention(1, 12, 10, 4, 16, {32, 32}, {1, 2});
  EXPECT_EQ(ModelSpec::deserialize(s.serialize()), s);
}

TEST(Spec, DeserializeRejectsGarbage) {
  EXPECT_THROW(ModelSpec::deserialize("bogus v9"), Error);
  // A non-positive size would reach the allocator as a huge element count.
  auto s = ModelSpec::conv(3, 12, 10, 4, {8, 16});
  s.cells[1].width = -8;
  EXPECT_THROW(ModelSpec::deserialize(s.serialize()), Error);
}

TEST(Spec, SummaryMentionsWidths) {
  auto s = ModelSpec::conv(1, 12, 10, 4, {8, 16});
  EXPECT_NE(s.summary().find("8-16"), std::string::npos);
}

TEST(Spec, CellParamCountsMatchInstantiatedModel) {
  for (auto spec :
       {ModelSpec::conv(3, 12, 10, 4, {8, 16}, {2, 1}, {1, 2}),
        ModelSpec::mlp(64, 10, 16, {24, 24}, {1, 2}),
        ModelSpec::attention(1, 12, 10, 4, 8, {16}, {2})}) {
    Rng rng(1);
    Model m(spec, rng);
    const auto counts = cell_param_counts(spec);
    ASSERT_EQ(static_cast<int>(counts.size()), m.num_cells());
    for (int l = 0; l < m.num_cells(); ++l) {
      std::int64_t n = 0;
      for (auto& p : m.cell_params(l)) n += p.value->numel();
      EXPECT_EQ(counts[static_cast<std::size_t>(l)], n)
          << "cell " << l << " of " << spec.summary();
    }
    EXPECT_EQ(model_param_count(spec), static_cast<double>(m.num_params()))
        << spec.summary();
  }
}

TEST(Model, ConvForwardShape) {
  Rng rng(2);
  Model m(ModelSpec::conv(3, 12, 10, 4, {8, 16}, {1, 1}, {1, 2}), rng);
  Tensor x({5, 3, 12, 12});
  x.randn(rng);
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{5, 10}));
}

TEST(Model, MlpForwardShape) {
  Rng rng(3);
  Model m(ModelSpec::mlp(36, 7, 16, {12, 12}), rng);
  Tensor x({4, 1, 6, 6});
  x.randn(rng);
  EXPECT_EQ(m.forward(x, false).shape(), (std::vector<int>{4, 7}));
}

TEST(Model, AttentionForwardShape) {
  Rng rng(4);
  Model m(ModelSpec::attention(1, 12, 5, 4, 8, {16, 16}), rng);
  Tensor x({2, 1, 12, 12});
  x.randn(rng);
  EXPECT_EQ(m.forward(x, false).shape(), (std::vector<int>{2, 5}));
}

TEST(Model, MacsEqualsSumOfCellMacsPlusEnds) {
  Rng rng(5);
  Model m(ModelSpec::conv(1, 12, 10, 4, {8, 16}, {2, 2}, {1, 2}), rng);
  std::int64_t cells = 0;
  for (int l = 0; l < m.num_cells(); ++l) cells += m.cell_macs(l);
  EXPECT_GT(m.macs(), cells);  // stem + classifier add on top
  EXPECT_LT(m.macs(), cells * 2);
}

TEST(Model, CellParamRangeCoversAllCells) {
  Rng rng(6);
  Model m(ModelSpec::conv(1, 12, 10, 4, {8, 16}, {2, 1}), rng);
  const auto all = m.params().size();
  auto [b0, e0] = m.cell_param_range(0);
  auto [b1, e1] = m.cell_param_range(1);
  EXPECT_EQ(e0, b1);
  EXPECT_LT(e1, all);  // classifier params after the last cell
  EXPECT_EQ(e0 - b0, m.cell_params(0).size());
}

TEST(Model, WeightsRoundTrip) {
  Rng rng(7);
  Model m(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  auto ws = m.weights();
  ws[0][0] += 5.0f;
  m.set_weights(ws);
  EXPECT_EQ(m.weights()[0][0], ws[0][0]);
}

TEST(Model, CopyIsDeepAndEquivalent) {
  Rng rng(8);
  Model a(ModelSpec::conv(1, 8, 4, 4, {6, 8}, {1, 1}, {1, 2}), rng);
  Model b = a;
  Tensor x({2, 1, 8, 8});
  x.randn(rng);
  EXPECT_LT(testing::max_abs_diff(a.forward(x, false), b.forward(x, false)),
            1e-9);
  // Mutating the copy leaves the original untouched.
  auto ws = b.weights();
  ws[0][0] += 1.0f;
  b.set_weights(ws);
  EXPECT_GT(testing::max_abs_diff(a.forward(x, false), b.forward(x, false)),
            0.0);
}

TEST(Model, BackwardProducesNonZeroGradients) {
  Rng rng(9);
  Model m(ModelSpec::conv(1, 8, 4, 4, {6}, {2}), rng);
  Tensor x({3, 1, 8, 8});
  x.randn(rng);
  Tensor y = m.forward(x, true);
  Tensor g(y.shape());
  g.fill(1.0f);
  m.backward(g);
  double total = 0.0;
  for (auto& p : m.params()) total += p.grad->l2_norm();
  EXPECT_GT(total, 0.0);
  m.zero_grad();
  total = 0.0;
  for (auto& p : m.params()) total += p.grad->l2_norm();
  EXPECT_EQ(total, 0.0);
}

TEST(Similarity, IdenticalSpecsScoreOne) {
  auto s = ModelSpec::conv(1, 12, 10, 4, {8, 16});
  EXPECT_DOUBLE_EQ(model_similarity(s, s), 1.0);
}

TEST(Similarity, DisjointFamiliesScoreZero) {
  auto a = ModelSpec::conv(1, 12, 10, 4, {8, 16});
  auto b = ModelSpec::conv(1, 12, 10, 4, {8, 16});
  // Give b fresh ids (different lineage).
  b.cells[0].id = 100;
  b.cells[1].id = 101;
  EXPECT_DOUBLE_EQ(model_similarity(a, b), 0.0);
}

TEST(Similarity, SymmetricAndBounded) {
  auto a = ModelSpec::conv(1, 12, 10, 4, {8, 16});
  auto b = a;
  b.cells[1].width = 32;  // same id, widened
  const double s1 = model_similarity(a, b);
  const double s2 = model_similarity(b, a);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_GT(s1, 0.0);
  EXPECT_LT(s1, 1.0);
}

}  // namespace
}  // namespace fedtrans
