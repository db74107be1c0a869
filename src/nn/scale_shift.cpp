#include "nn/scale_shift.hpp"

#include <vector>

#include "common/check.hpp"
#include "nn/elementwise.hpp"

namespace fedtrans {

ScaleShift::ScaleShift(int channels)
    : c_(channels), s_({channels}, 1.0f), gs_({channels}), b_({channels}),
      gb_({channels}) {
  FT_CHECK(channels > 0);
}

namespace {

// Floats per (image, channel) plane: H·W of an NCHW tensor, 1 of an [N, F]
// one. Plane q = b·c + ch belongs to channel ch.
std::int64_t plane_size(const Tensor& t) {
  return t.ndim() == 4 ? static_cast<std::int64_t>(t.dim(2)) * t.dim(3) : 1;
}

}  // namespace

Tensor ScaleShift::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG((x.ndim() == 4 || x.ndim() == 2) && x.dim(1) == c_,
               "ScaleShift expects channel dim " << c_);
  cached_x_ = x;
  Tensor y(x.shape());
  const std::int64_t planes = static_cast<std::int64_t>(x.dim(0)) * c_;
  const std::int64_t plane = plane_size(x);
  for (std::int64_t q = 0; q < planes; ++q) {
    const int ch = static_cast<int>(q % c_);
    scale_shift_forward(x.data() + q * plane, s_[ch], b_[ch],
                        y.data() + q * plane, plane);
  }
  return y;
}

Tensor ScaleShift::backward(const Tensor& grad_out) {
  FT_CHECK(grad_out.same_shape(cached_x_));
  const std::int64_t planes = static_cast<std::int64_t>(grad_out.dim(0)) * c_;
  const std::int64_t plane = plane_size(grad_out);
  Tensor dx(grad_out.shape());
  for (std::int64_t q = 0; q < planes; ++q)
    mul_scalar(grad_out.data() + q * plane, s_[static_cast<int>(q % c_)],
               dx.data() + q * plane, plane);
  std::vector<double> ds(static_cast<std::size_t>(planes));
  std::vector<double> db(static_cast<std::size_t>(planes));
  plane_dot_sums(grad_out.data(), cached_x_.data(), plane, planes, ds.data(),
                 db.data());
  // Ascending q: each channel takes its images' sums in order.
  for (std::int64_t q = 0; q < planes; ++q) {
    const int ch = static_cast<int>(q % c_);
    gs_[ch] += static_cast<float>(ds[static_cast<std::size_t>(q)]);
    gb_[ch] += static_cast<float>(db[static_cast<std::size_t>(q)]);
  }
  return dx;
}

std::vector<ParamRef> ScaleShift::params() {
  return {{&s_, &gs_, "scale"}, {&b_, &gb_, "shift"}};
}

std::unique_ptr<Layer> ScaleShift::clone() const {
  auto copy = std::make_unique<ScaleShift>(c_);
  copy->s_ = s_;
  copy->b_ = b_;
  return copy;
}

}  // namespace fedtrans
