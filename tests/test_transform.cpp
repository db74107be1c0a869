#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/align.hpp"
#include "model/similarity.hpp"
#include "model/transform.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

Tensor random_input(const ModelSpec& spec, int n, Rng& rng) {
  Tensor x({n, spec.in_channels, spec.in_hw, spec.in_hw});
  x.randn(rng);
  return x;
}

// ---------------------------------------------------------------------
// Property: transformations are function-preserving (exact, not approx).
// Swept over cell kinds × target cell × operation × degree.
// ---------------------------------------------------------------------

struct PreserveCase {
  CellKind kind;
  int cell;
  bool widen;     // false = deepen
  double factor;  // widen factor
  int deepen;     // inserted blocks
};

std::string case_name(const ::testing::TestParamInfo<PreserveCase>& info) {
  const auto& c = info.param;
  std::string s = c.kind == CellKind::Conv
                      ? "Conv"
                      : (c.kind == CellKind::Mlp ? "Mlp" : "Attn");
  s += "_cell" + std::to_string(c.cell);
  s += c.widen ? "_widen" : "_deepen";
  s += c.widen ? std::to_string(static_cast<int>(c.factor * 10))
               : std::to_string(c.deepen);
  return s;
}

class FunctionPreservationTest : public ::testing::TestWithParam<PreserveCase> {
 protected:
  ModelSpec make_spec(CellKind kind) {
    switch (kind) {
      case CellKind::Conv:
        return ModelSpec::conv(2, 8, 5, 4, {6, 8}, {2, 2}, {1, 2});
      case CellKind::Mlp:
        return ModelSpec::mlp(16, 5, 8, {10, 12}, {2, 1});
      case CellKind::Attention:
        return ModelSpec::attention(1, 8, 5, 4, 6, {10, 12}, {1, 2});
    }
    return ModelSpec::conv(1, 8, 5, 4, {6});
  }
};

TEST_P(FunctionPreservationTest, ChildMatchesParentExactly) {
  const auto& c = GetParam();
  Rng rng(1234);
  Model parent(make_spec(c.kind), rng);
  Model child = c.widen
                    ? widen_cell(parent, c.cell, c.factor, 1, rng)
                    : deepen_cell(parent, c.cell, c.deepen, 1, rng);
  Tensor x = random_input(parent.spec(), 3, rng);
  Tensor yp = parent.forward(x, false);
  Tensor yc = child.forward(x, false);
  // fp32 round-off only; the construction is mathematically exact.
  EXPECT_LT(testing::max_abs_diff(yp, yc), 5e-4)
      << "parent " << parent.spec().summary() << " child "
      << child.spec().summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionPreservationTest,
    ::testing::Values(
        PreserveCase{CellKind::Conv, 0, true, 2.0, 1},
        PreserveCase{CellKind::Conv, 0, true, 1.5, 1},
        PreserveCase{CellKind::Conv, 0, true, 1.1, 1},
        PreserveCase{CellKind::Conv, 1, true, 2.0, 1},
        PreserveCase{CellKind::Conv, 1, true, 3.0, 1},
        PreserveCase{CellKind::Conv, 0, false, 2.0, 1},
        PreserveCase{CellKind::Conv, 1, false, 2.0, 2},
        PreserveCase{CellKind::Conv, 1, false, 2.0, 3},
        PreserveCase{CellKind::Mlp, 0, true, 2.0, 1},
        PreserveCase{CellKind::Mlp, 1, true, 1.4, 1},
        PreserveCase{CellKind::Mlp, 0, false, 2.0, 1},
        PreserveCase{CellKind::Mlp, 1, false, 2.0, 2},
        PreserveCase{CellKind::Attention, 0, true, 2.0, 1},
        PreserveCase{CellKind::Attention, 1, true, 1.5, 1},
        PreserveCase{CellKind::Attention, 0, false, 2.0, 1},
        PreserveCase{CellKind::Attention, 1, false, 2.0, 2}),
    case_name);

TEST(Transform, MultiCellPlanIsFunctionPreserving) {
  Rng rng(99);
  auto spec = ModelSpec::conv(1, 8, 4, 4, {6, 8, 10}, {1, 2, 1}, {1, 2, 1});
  Model parent(spec, rng);
  std::vector<CellOp> plan(3);
  plan[0] = {CellOp::Kind::Widen, 2.0, 1};
  plan[1] = {CellOp::Kind::Deepen, 2.0, 1};
  plan[2] = {CellOp::Kind::Widen, 1.5, 1};
  Model child = transform_model(parent, plan, 1, "M1", rng);
  EXPECT_EQ(child.num_cells(), 4);
  Tensor x = random_input(spec, 2, rng);
  EXPECT_LT(testing::max_abs_diff(parent.forward(x, false),
                                  child.forward(x, false)),
            5e-4);
}

TEST(Transform, AdjacentWidensCompose) {
  Rng rng(100);
  auto spec = ModelSpec::conv(1, 8, 4, 4, {6, 8}, {2, 2});
  Model parent(spec, rng);
  std::vector<CellOp> plan(2);
  plan[0] = {CellOp::Kind::Widen, 2.0, 1};
  plan[1] = {CellOp::Kind::Widen, 2.0, 1};
  Model child = transform_model(parent, plan, 1, "M1", rng);
  Tensor x = random_input(spec, 2, rng);
  EXPECT_LT(testing::max_abs_diff(parent.forward(x, false),
                                  child.forward(x, false)),
            5e-4);
}

TEST(Transform, WidenGrowsMacsAndParams) {
  Rng rng(101);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);
  Model child = widen_cell(parent, 0, 2.0, 1, rng);
  EXPECT_GT(child.macs(), parent.macs());
  EXPECT_GT(child.num_params(), parent.num_params());
  EXPECT_EQ(child.spec().cells[0].width, 12);
  EXPECT_TRUE(child.spec().cells[0].widened_last);
}

TEST(Transform, DeepenInsertsFreshCellWithNewId) {
  Rng rng(102);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);
  Model child = deepen_cell(parent, 0, 2, 1, rng);
  ASSERT_EQ(child.num_cells(), 3);
  EXPECT_EQ(child.spec().cells[1].blocks, 2);
  EXPECT_TRUE(child.spec().cells[1].residual);
  // Fresh id, distinct from both parents' cells.
  EXPECT_NE(child.spec().cells[1].id, parent.spec().cells[0].id);
  EXPECT_NE(child.spec().cells[1].id, parent.spec().cells[1].id);
  EXPECT_FALSE(child.spec().cells[0].widened_last);
}

TEST(Transform, LineageFieldsSet) {
  Rng rng(103);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  Model child = widen_cell(parent, 0, 2.0, 7, rng);
  EXPECT_EQ(child.spec().model_id, 7);
  EXPECT_EQ(child.spec().parent_id, parent.spec().model_id);
}

TEST(Transform, NoWarmStartDiffersFromParent) {
  Rng rng(104);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  std::vector<CellOp> plan(1);
  plan[0] = {CellOp::Kind::Widen, 2.0, 1};
  Model cold = transform_model(parent, plan, 1, "M1", rng,
                               /*warm_start=*/false);
  Tensor x = random_input(parent.spec(), 2, rng);
  EXPECT_GT(testing::max_abs_diff(parent.forward(x, false),
                                  cold.forward(x, false)),
            1e-3);
}

TEST(Transform, PlanSizeMismatchThrows) {
  Rng rng(105);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);
  std::vector<CellOp> bad(1);
  EXPECT_THROW(transform_model(parent, bad, 1, "M1", rng), Error);
}

TEST(Transform, WidenFactorMustExceedOne) {
  Rng rng(106);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  EXPECT_THROW(widen_cell(parent, 0, 1.0, 1, rng), Error);
}

TEST(Transform, SimilarityMatchesPaperRules) {
  Rng rng(107);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);

  // Widen: matched cells contribute the param ratio; similarity < 1.
  Model widened = widen_cell(parent, 0, 2.0, 1, rng);
  const double s_widen =
      model_similarity(parent.spec(), widened.spec());
  EXPECT_GT(s_widen, 0.3);
  EXPECT_LT(s_widen, 1.0);

  // Deepen: inserted cell contributes 0 => sim = #matched / max(#cells).
  Model deepened = deepen_cell(parent, 0, 1, 2, rng);
  const double s_deep =
      model_similarity(parent.spec(), deepened.spec());
  EXPECT_NEAR(s_deep, 2.0 / 3.0, 1e-9);

  // Grandchild is less similar to the grandparent than the child is.
  Model grand = widen_cell(deepened, 1, 2.0, 3, rng);
  EXPECT_LT(model_similarity(parent.spec(), grand.spec()), s_deep);
}

TEST(Transform, WidenedChildStillTrains) {
  // The child must remain trainable (gradients flow through the widened
  // cell), not just function-preserving.
  Rng rng(108);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  Model child = widen_cell(parent, 0, 2.0, 1, rng);
  Tensor x = random_input(child.spec(), 2, rng);
  Tensor y = child.forward(x, true);
  Tensor g(y.shape());
  g.fill(0.1f);
  child.backward(g);
  double norm = 0.0;
  for (auto& p : child.params()) norm += p.grad->l2_norm();
  EXPECT_GT(norm, 0.0);
}

TEST(Align, WidenedChildOverlapCoversEveryParentElement) {
  Rng rng(109);
  Model parent(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng);
  Model child = widen_cell(parent, 1, 2.0, 1, rng);
  // Widening keeps every Cell id and never narrows a tensor, so each parent
  // parameter aligns with a child parameter whose prefix overlap is the
  // whole parent tensor.
  auto pairs = align_params(child, parent);
  ASSERT_EQ(pairs.size(), parent.params().size());
  for (auto& p : pairs) {
    std::int64_t visited = 0;
    for_each_overlap(*p.dst, *p.src,
                     [&](std::int64_t, std::int64_t) { ++visited; });
    EXPECT_EQ(visited, p.src->numel());
  }
}

TEST(Align, OverlapVisitsMinPrefixRectangle) {
  Tensor a({3, 4});
  Tensor b({2, 5});
  int count = 0;
  for_each_overlap(a, b, [&](std::int64_t, std::int64_t) { ++count; });
  EXPECT_EQ(count, 2 * 4);
}

TEST(Align, ScaleWidthsKeepsIdsAndScales) {
  auto full = ModelSpec::conv(3, 12, 10, 8, {16, 32});
  auto half = scale_widths(full, 0.5);
  EXPECT_EQ(half.stem_width, 4);
  EXPECT_EQ(half.cells[0].width, 8);
  EXPECT_EQ(half.cells[1].width, 16);
  EXPECT_EQ(half.cells[0].id, full.cells[0].id);
}

TEST(Align, ScaleWidthsNeverBelowOne) {
  auto full = ModelSpec::conv(1, 8, 4, 2, {2});
  auto tiny = scale_widths(full, 0.01);
  EXPECT_EQ(tiny.stem_width, 1);
  EXPECT_EQ(tiny.cells[0].width, 1);
}

}  // namespace
}  // namespace fedtrans
