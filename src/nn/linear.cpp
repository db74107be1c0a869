#include "nn/linear.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fedtrans {

Tensor dense_forward(const Tensor& x2d, const Tensor& w, const Tensor& b) {
  const int rows = x2d.dim(0), in = x2d.dim(1), out = w.dim(0);
  Tensor y({rows, out});
  gemm(false, true, rows, out, in, 1.0f, x2d.data(), in, w.data(), in, 0.0f,
       y.data(), out);
  if (!b.empty())
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < out; ++j) y.at(i, j) += b[j];
  return y;
}

Tensor dense_backward(const Tensor& g2d, const Tensor& x2d, const Tensor& w,
                      Tensor& gw, Tensor& gb) {
  const int rows = g2d.dim(0), out = g2d.dim(1), in = x2d.dim(1);
  gemm(true, false, out, in, rows, 1.0f, g2d.data(), out, x2d.data(), in, 1.0f,
       gw.data(), in);
  if (!gb.empty())
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < out; ++j) gb[j] += g2d.at(i, j);
  Tensor dx({rows, in});
  gemm(false, false, rows, in, out, 1.0f, g2d.data(), out, w.data(), in, 0.0f,
       dx.data(), in);
  return dx;
}

Linear::Linear(int in_features, int out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_({out_features, in_features}),
      gw_({out_features, in_features}),
      b_(bias ? Tensor({out_features}) : Tensor()),
      gb_(bias ? Tensor({out_features}) : Tensor()) {
  FT_CHECK(in_ > 0 && out_ > 0);
}

void Linear::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  w_.rand_uniform(rng, -bound, bound);
  if (has_bias_) b_.zero();
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 2 && x.dim(1) == in_,
               "Linear expects [N," << in_ << "], got [" << x.dim(0) << ","
                                    << (x.ndim() > 1 ? x.dim(1) : -1) << "]");
  cached_x_ = x;
  return dense_forward(x, w_, b_);
}

Tensor Linear::backward(const Tensor& grad_out) {
  FT_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == out_);
  FT_CHECK(cached_x_.ndim() == 2 && cached_x_.dim(0) == grad_out.dim(0));
  return dense_backward(grad_out, cached_x_, w_, gw_, gb_);
}

std::vector<ParamRef> Linear::params() {
  std::vector<ParamRef> ps{{&w_, &gw_, "weight"}};
  if (has_bias_) ps.push_back({&b_, &gb_, "bias"});
  return ps;
}

std::int64_t Linear::macs(const std::vector<int>& /*in_shape*/) const {
  return static_cast<std::int64_t>(in_) * out_;
}

std::vector<int> Linear::out_shape(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 1 && in_shape[0] == in_);
  return {out_};
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_, has_bias_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

}  // namespace fedtrans
