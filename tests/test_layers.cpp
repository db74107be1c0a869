#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/scale_shift.hpp"
#include "nn/sgd.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::check_gradients;

TEST(Linear, ForwardMatchesManual) {
  Linear lin(2, 3);
  lin.weight() = Tensor::from({3, 2}, {1, 0, 0, 1, 1, 1});
  lin.bias() = Tensor::from({3}, {0.5f, -0.5f, 0.0f});
  Tensor x = Tensor::from({1, 2}, {2.0f, 3.0f});
  Tensor y = lin.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(Linear, GradientCheck) {
  Rng rng(1);
  Linear lin(5, 4);
  lin.init(rng);
  check_gradients(lin, {3, 5}, rng);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  Linear lin(4, 3, /*bias=*/false);
  lin.init(rng);
  EXPECT_EQ(lin.params().size(), 1u);
  check_gradients(lin, {2, 4}, rng);
}

TEST(Linear, MacsFormula) {
  Linear lin(7, 9);
  EXPECT_EQ(lin.macs({7}), 63);
  EXPECT_EQ(lin.out_shape({7}), std::vector<int>{9});
}

TEST(Conv2d, IdentityInitPassesThrough) {
  Conv2d conv(3, 3, 3, 1);
  conv.init_identity();
  Rng rng(3);
  Tensor x({2, 3, 5, 5});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  EXPECT_LT(testing::max_abs_diff(x, y), 1e-6);
}

TEST(Conv2d, GradientCheckStride1) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1);
  conv.init(rng);
  check_gradients(conv, {2, 2, 6, 6}, rng);
}

TEST(Conv2d, GradientCheckStride2) {
  Rng rng(5);
  Conv2d conv(2, 2, 3, 2);
  conv.init(rng);
  check_gradients(conv, {2, 2, 8, 8}, rng);
}

TEST(Conv2d, GradientCheckNoPadding) {
  Rng rng(6);
  Conv2d conv(1, 2, 3, 1, /*padding=*/0);
  conv.init(rng);
  check_gradients(conv, {2, 1, 6, 6}, rng);
}

TEST(Conv2d, OutputShapeAndMacs) {
  Conv2d conv(3, 8, 3, 2);  // same padding 1
  const auto out = conv.out_shape({3, 12, 12});
  EXPECT_EQ(out, (std::vector<int>{8, 6, 6}));
  EXPECT_EQ(conv.macs({3, 12, 12}), 3LL * 8 * 9 * 6 * 6);
}

TEST(Conv2d, PatchEmbeddingShape) {
  Conv2d conv(3, 16, 4, 4, 0);  // patch embed: k=s=4, no pad
  EXPECT_EQ(conv.out_shape({3, 12, 12}), (std::vector<int>{16, 3, 3}));
}

TEST(Conv2d, CloneIsIndependentDeepCopy) {
  Rng rng(7);
  Conv2d conv(2, 2, 3);
  conv.init(rng);
  auto copy = conv.clone();
  auto* cc = dynamic_cast<Conv2d*>(copy.get());
  ASSERT_NE(cc, nullptr);
  EXPECT_LT(testing::max_abs_diff(conv.weight(), cc->weight()), 1e-9);
  cc->weight()[0] += 1.0f;
  EXPECT_NE(conv.weight()[0], cc->weight()[0]);
}

TEST(ReLU, ForwardBackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::from({4}, {-1, 0, 2, -3});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = Tensor::from({4}, {1, 1, 1, 1});
  Tensor dx = relu.backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 0.0f);  // gradient at exactly zero is zero
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(ScaleShift, GradientCheck4d) {
  Rng rng(8);
  ScaleShift ss(3);
  ss.scale().randn(rng, 0.5f);
  ss.shift().randn(rng, 0.5f);
  check_gradients(ss, {2, 3, 4, 4}, rng);
}

TEST(ScaleShift, GradientCheck2d) {
  Rng rng(9);
  ScaleShift ss(5);
  ss.scale().randn(rng, 0.5f);
  check_gradients(ss, {3, 5}, rng);
}

TEST(ScaleShift, IdentityByDefault) {
  ScaleShift ss(2);
  Rng rng(10);
  Tensor x({1, 2, 3, 3});
  x.randn(rng);
  Tensor y = ss.forward(x, true);
  EXPECT_LT(testing::max_abs_diff(x, y), 1e-9);
}

// ---- elementwise contract ---------------------------------------------------
// ReLU, ScaleShift and Conv2d's bias passes run vectorized, branch-free
// loops; each must match, bit for bit, the plain loop it replaced (copied
// below). The inputs take the IEEE edge cases (NaN, ±0, ±inf, subnormals)
// in one run and finite values over a wide exponent range in the other, so
// a reordered sum shows. Shapes hit plane lengths 1, 15, 16, 17 and 4320
// (the vector chunk and its edges), channel counts 1–5, and 2-D and 4-D
// tensors; every body also runs through clone(), and the parameter
// gradients accumulate over two steps.

struct ElementwiseCase {
  const char* label;
  std::vector<int> shape;  // [N, C] or [N, C, H, W]
};

// Failure messages name the case instead of dumping its bytes.
void PrintTo(const ElementwiseCase& c, std::ostream* os) { *os << c.label; }

const ElementwiseCase kElementwiseContract[] = {
    {"one", {1, 1}},
    {"rows_2d", {3, 5}},
    {"len15", {1, 1, 3, 5}},
    {"len16", {1, 1, 4, 4}},
    {"len17", {1, 1, 1, 17}},
    {"c2_len16", {2, 2, 4, 4}},
    {"c3_len17", {3, 3, 1, 17}},
    {"c4_pixels", {9, 4, 1, 1}},
    {"c5_len15", {2, 5, 3, 5}},
    {"narrow_e2e", {10, 3, 12, 12}},  // 4320 floats
    {"len4320", {1, 1, 60, 72}},
};

// Finite draws over 2^±30, or (with `specials`) every third element one of
// the IEEE edge cases.
Tensor contract_input(const std::vector<int>& shape, std::uint64_t seed,
                      bool specials) {
  constexpr float kSpecials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -0.0f,
      0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1.5e-39f,
      -7.0e-40f};
  Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = specials && i % 3 == 1
               ? kSpecials[(i / 3) % std::size(kSpecials)]
               : static_cast<float>(std::ldexp(rng.normal(0.0, 1.0),
                                               rng.uniform_int(-30, 30)));
  return t;
}

std::int64_t plane_of(const Tensor& t) {
  return t.ndim() == 4 ? static_cast<std::int64_t>(t.dim(2)) * t.dim(3) : 1;
}

void expect_bits(const Tensor& want, const Tensor& got,
                 const std::string& what) {
  ASSERT_TRUE(want.same_shape(got)) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " at element " << i << ": want " << want[i] << ", got "
        << got[i];
}

// The plain loops, as ReLU, ScaleShift and conv_forward_im2col /
// conv_backward_im2col wrote them before they were vectorized.
Tensor naive_relu_forward(const Tensor& x) {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    if (y[i] < 0.0f) y[i] = 0.0f;
  return y;
}

Tensor naive_relu_backward(const Tensor& x, const Tensor& g) {
  Tensor dx = g;
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    if (x[i] <= 0.0f) dx[i] = 0.0f;
  return dx;
}

Tensor naive_scale_shift_forward(const Tensor& x, const Tensor& s,
                                 const Tensor& b) {
  Tensor y = x;
  const int n = x.dim(0), c = x.dim(1);
  const std::int64_t plane = plane_of(x);
  for (int bi = 0; bi < n; ++bi)
    for (int ch = 0; ch < c; ++ch) {
      float* p = y.data() + (static_cast<std::int64_t>(bi) * c + ch) * plane;
      const float sc = s[ch], sh = b[ch];
      for (std::int64_t i = 0; i < plane; ++i) p[i] = p[i] * sc + sh;
    }
  return y;
}

Tensor naive_scale_shift_backward(const Tensor& x, const Tensor& g,
                                  const Tensor& s, Tensor& gs, Tensor& gb) {
  const int n = g.dim(0), c = g.dim(1);
  const std::int64_t plane = plane_of(g);
  Tensor dx = g;
  for (int bi = 0; bi < n; ++bi)
    for (int ch = 0; ch < c; ++ch) {
      const std::int64_t base =
          (static_cast<std::int64_t>(bi) * c + ch) * plane;
      double ds = 0.0, db = 0.0;
      const float sc = s[ch];
      for (std::int64_t i = 0; i < plane; ++i) {
        const float gv = g[base + i];
        ds += static_cast<double>(gv) * x[base + i];
        db += gv;
        dx[base + i] = gv * sc;
      }
      gs[ch] += static_cast<float>(ds);
      gb[ch] += static_cast<float>(db);
    }
  return dx;
}

void naive_bias_add(Tensor& y, const Tensor& bias) {
  const int n = y.dim(0), c = y.dim(1);
  const std::int64_t plane = plane_of(y);
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < c; ++oc) {
      float* row = y.data() + (static_cast<std::int64_t>(bi) * c + oc) * plane;
      for (std::int64_t i = 0; i < plane; ++i) row[i] += bias[oc];
    }
}

void naive_bias_grad(const Tensor& g, Tensor& gb) {
  const int n = g.dim(0), c = g.dim(1);
  const std::int64_t plane = plane_of(g);
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < c; ++oc) {
      const float* go =
          g.data() + (static_cast<std::int64_t>(bi) * c + oc) * plane;
      double s = 0.0;
      for (std::int64_t i = 0; i < plane; ++i) s += go[i];
      gb[oc] += static_cast<float>(s);
    }
}

class ElementwiseContract
    : public ::testing::TestWithParam<ElementwiseCase> {
 protected:
  // Runs `body` on a fresh layer and on its clone, for both input kinds.
  template <class Make, class Body>
  static void each_layer(Make make, Body body) {
    for (bool specials : {false, true}) {
      auto layer = make();
      body(*layer, specials, std::string(specials ? "specials" : "finite"));
      auto copy = layer->clone();
      body(*copy, specials,
           std::string(specials ? "specials" : "finite") + ", clone");
    }
  }
  std::vector<int> shape() const { return GetParam().shape; }
  int channels() const { return GetParam().shape[1]; }
};

TEST_P(ElementwiseContract, ReLUMatchesPlainLoop) {
  auto make = [] { return std::make_unique<ReLU>(); };
  each_layer(make, [&](Layer& relu, bool specials, const std::string& run) {
    for (std::uint64_t step : {1u, 2u}) {
      const Tensor x = contract_input(shape(), 10 * step, specials);
      const Tensor g = contract_input(shape(), 10 * step + 1, specials);
      expect_bits(naive_relu_forward(x), relu.forward(x, true),
                  run + ", forward");
      expect_bits(naive_relu_backward(x, g), relu.backward(g),
                  run + ", backward");
    }
  });
}

TEST_P(ElementwiseContract, ScaleShiftMatchesPlainLoop) {
  const int c = channels();
  auto make = [c] {
    auto ss = std::make_unique<ScaleShift>(c);
    Rng rng(5);
    ss->scale().randn(rng);
    ss->shift().randn(rng);
    return ss;
  };
  each_layer(make, [&](Layer& layer, bool specials, const std::string& run) {
    auto& ss = dynamic_cast<ScaleShift&>(layer);
    Tensor gs({c}), gb({c});
    for (std::uint64_t step : {1u, 2u}) {
      const Tensor x = contract_input(shape(), 20 * step, specials);
      const Tensor g = contract_input(shape(), 20 * step + 1, specials);
      expect_bits(naive_scale_shift_forward(x, ss.scale(), ss.shift()),
                  ss.forward(x, true), run + ", forward");
      expect_bits(naive_scale_shift_backward(x, g, ss.scale(), gs, gb),
                  ss.backward(g), run + ", dx");
      expect_bits(gs, *ss.params()[0].grad, run + ", scale grad");
      expect_bits(gb, *ss.params()[1].grad, run + ", shift grad");
    }
  });
}

// A pointwise conv with bias against the same conv without it plus the
// plain bias loop: the GEMM is shared, so only the bias passes differ.
TEST_P(ElementwiseContract, ConvBiasMatchesPlainLoop) {
  const auto out_shape = shape();
  const int n = out_shape[0], c = channels();
  const int h = out_shape.size() == 4 ? out_shape[2] : 1;
  const int w = out_shape.size() == 4 ? out_shape[3] : 1;
  const std::vector<int> y_shape{n, c, h, w};
  auto make = [c] {
    auto conv = std::make_unique<Conv2d>(2, c, /*kernel=*/1, /*stride=*/1,
                                         /*padding=*/0);
    Rng rng(7);
    conv->init(rng);
    return conv;
  };
  each_layer(make, [&](Layer& layer, bool specials, const std::string& run) {
    auto& conv = dynamic_cast<Conv2d&>(layer);
    conv.bias() = contract_input({c}, 30, specials);
    Conv2d plain(2, c, 1, 1, 0, /*bias=*/false);
    plain.weight() = conv.weight();
    Tensor gb({c});
    for (std::uint64_t step : {1u, 2u}) {
      const Tensor x = contract_input({n, 2, h, w}, 30 * step + 1, false);
      const Tensor g = contract_input(y_shape, 30 * step + 2, specials);
      Tensor want = plain.forward(x, true);
      naive_bias_add(want, conv.bias());
      expect_bits(want, conv.forward(x, true), run + ", forward");
      conv.backward(g);
      naive_bias_grad(g, gb);
      expect_bits(gb, *conv.params()[1].grad, run + ", bias grad");
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layers, ElementwiseContract, ::testing::ValuesIn(kElementwiseContract),
    [](const ::testing::TestParamInfo<ElementwiseCase>& info) {
      return std::string(info.param.label);
    });

TEST(GlobalAvgPool, ForwardAveragesAndBackwardSpreads) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from({1, 2, 1, 2}, {1, 3, 10, 30});
  Tensor y = gap.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 20.0f);
  Tensor g = Tensor::from({1, 2}, {4, 8});
  Tensor dx = gap.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1, 0, 0), 4.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(11);
  Tensor x({2, 3, 4, 4});
  x.randn(rng);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 48}));
  Tensor dx = f.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_LT(testing::max_abs_diff(dx, x), 1e-9);
}

TEST(Loss, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({4, 10});
  std::vector<int> labels{0, 3, 7, 9};
  const double l = loss.forward(logits, labels);
  EXPECT_NEAR(l, std::log(10.0), 1e-5);
}

TEST(Loss, PerfectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  std::vector<int> labels{1, 2};
  EXPECT_LT(loss.forward(logits, labels), 1e-4);
}

TEST(Loss, BackwardIsSoftmaxMinusOneHotOverN) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 2});  // uniform => probs 0.5/0.5
  std::vector<int> labels{0};
  loss.forward(logits, labels);
  Tensor d = loss.backward();
  EXPECT_NEAR(d.at(0, 0), -0.5, 1e-6);
  EXPECT_NEAR(d.at(0, 1), 0.5, 1e-6);
}

TEST(Loss, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  std::vector<int> labels{3};
  EXPECT_THROW(loss.forward(logits, labels), Error);
}

TEST(Loss, CountCorrect) {
  Tensor logits = Tensor::from({2, 2}, {5, 1, 1, 5});
  std::vector<int> labels{0, 0};
  EXPECT_EQ(count_correct(logits, labels), 1);
}

TEST(Sgd, PlainStepAppliesLrAndZerosGrad) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 1.0f;
  auto ps = lin.params();
  (*ps[0].grad)[0] = 2.0f;
  Sgd opt(ps, {.lr = 0.1});
  opt.step();
  EXPECT_NEAR(lin.weight()[0], 0.8f, 1e-6);
  EXPECT_EQ((*ps[0].grad)[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 0.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 1.0, .momentum = 0.5});
  (*ps[0].grad)[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(lin.weight()[0], -1.0f, 1e-6);
  (*ps[0].grad)[0] = 1.0f;
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(lin.weight()[0], -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 10.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 0.1, .weight_decay = 1.0});
  opt.step();  // g = 0 + 1.0*10 => w -= 0.1*10
  EXPECT_NEAR(lin.weight()[0], 9.0f, 1e-5);
}

TEST(Sgd, ProxTermPullsTowardAnchor) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 0.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 0.1, .prox_mu = 1.0});  // anchor captured at w=0
  lin.weight()[0] = 5.0f;                    // drift away
  opt.step();  // g = mu*(5-0)=5 => w -= 0.5
  EXPECT_NEAR(lin.weight()[0], 4.5f, 1e-5);
}

}  // namespace
}  // namespace fedtrans
