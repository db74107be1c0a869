#include "nn/activations.hpp"

#include "common/check.hpp"
#include "nn/elementwise.hpp"

namespace fedtrans {

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  cached_x_ = x;
  Tensor y(x.shape());
  relu_forward(x.data(), y.data(), x.numel());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FT_CHECK(grad_out.same_shape(cached_x_));
  Tensor dx(grad_out.shape());
  relu_backward(cached_x_.data(), grad_out.data(), dx.data(),
                grad_out.numel());
  return dx;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  cached_shape_ = x.shape();
  FT_CHECK(x.ndim() >= 2);
  const int n = x.dim(0);
  const auto rest = static_cast<int>(x.numel() / n);
  return x.reshape({n, rest});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshape(cached_shape_);
}

std::vector<int> Flatten::out_shape(const std::vector<int>& in) const {
  int prod = 1;
  for (int d : in) prod *= d;
  return {prod};
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 4, "GlobalAvgPool expects NCHW");
  cached_shape_ = x.shape();
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto plane = static_cast<std::int64_t>(h) * w;
  Tensor y({n, c});
  const float inv = 1.0f / static_cast<float>(plane);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (static_cast<std::int64_t>(b) * c + ch) *
                                      plane;
      double s = 0.0;
      for (std::int64_t i = 0; i < plane; ++i) s += p[i];
      y.at(b, ch) = static_cast<float>(s) * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = cached_shape_[0], c = cached_shape_[1], h = cached_shape_[2],
            w = cached_shape_[3];
  FT_CHECK(grad_out.ndim() == 2 && grad_out.dim(0) == n && grad_out.dim(1) == c);
  const auto plane = static_cast<std::int64_t>(h) * w;
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor dx({n, c, h, w});
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(b, ch) * inv;
      float* p = dx.data() + (static_cast<std::int64_t>(b) * c + ch) * plane;
      for (std::int64_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return dx;
}

std::vector<int> GlobalAvgPool::out_shape(const std::vector<int>& in) const {
  FT_CHECK(in.size() == 3);
  return {in[0]};
}

}  // namespace fedtrans
