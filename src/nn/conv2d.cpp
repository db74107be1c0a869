#include "nn/conv2d.hpp"

#include <cmath>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

namespace {

// Validated geometry; runs before any member that divides by `groups` is
// initialized (a constructor-body check would come too late — the
// weight-tensor initializer already divides).
ConvDims checked_dims(int in_channels, int out_channels, int kernel,
                      int stride, int padding, int groups) {
  const int pad = padding < 0 ? kernel / 2 : padding;
  FT_CHECK(kernel > 0 && stride > 0 && pad >= 0);
  FT_CHECK_MSG(groups > 0 && in_channels > 0 && out_channels > 0 &&
                   in_channels % groups == 0 && out_channels % groups == 0,
               "groups must divide both channel counts (" << in_channels
                                                          << ", "
                                                          << out_channels
                                                          << ")");
  return {in_channels, out_channels, kernel, stride, pad, groups};
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias, int groups)
    : d_(checked_dims(in_channels, out_channels, kernel, stride, padding,
                      groups)),
      has_bias_(bias),
      w_({out_channels, in_channels / groups, kernel, kernel}),
      gw_({out_channels, in_channels / groups, kernel, kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      gb_(bias ? Tensor({out_channels}) : Tensor()) {}

void Conv2d::init(Rng& rng) {
  const float fan_in =
      static_cast<float>((d_.in_c / d_.groups) * d_.kernel * d_.kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  w_.rand_uniform(rng, -bound, bound);
  if (has_bias_) b_.zero();
}

void Conv2d::init_identity() {
  FT_CHECK_MSG(d_.in_c == d_.out_c && d_.kernel % 2 == 1 && d_.stride == 1 &&
                   d_.groups == 1,
               "identity conv requires in==out, odd kernel, stride 1, "
               "groups 1");
  w_.zero();
  const int c = d_.kernel / 2;
  for (int o = 0; o < d_.out_c; ++o) w_.at(o, o, c, c) = 1.0f;
  if (has_bias_) b_.zero();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  FT_SPAN("kernel", "conv2d_fwd");
  FT_CHECK_MSG(x.ndim() == 4 && x.dim(1) == d_.in_c,
               "Conv2d expects [N," << d_.in_c << ",H,W]");
  const int oh = d_.out_hw(x.dim(2)), ow = d_.out_hw(x.dim(3));
  FT_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero size");
  Tensor y({x.dim(0), d_.out_c, oh, ow});
  const Tensor* bias = has_bias_ ? &b_ : nullptr;
  in_shape_ = x.shape();
  const bool lowered = conv_backend() == ConvBackend::Im2col;
  panel_kept_ =
      train && lowered && conv_panel_fits(d_, x.dim(0), x.dim(2), x.dim(3));
  if (panel_kept_) {
    cached_x_ = Tensor();
    conv_forward_im2col(x, w_, bias, d_, y, &panel_);
    return y;
  }
  cached_x_ = x;
  if (lowered)
    conv_forward_im2col(x, w_, bias, d_, y);
  else
    conv_forward_direct(x, w_, bias, d_, y);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, /*input_grad=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_out, bool input_grad) {
  FT_SPAN("kernel", "conv2d_bwd");
  FT_CHECK_MSG(in_shape_.size() == 4, "Conv2d backward before any forward");
  FT_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == in_shape_[0] &&
           grad_out.dim(1) == d_.out_c &&
           grad_out.dim(2) == d_.out_hw(in_shape_[2]) &&
           grad_out.dim(3) == d_.out_hw(in_shape_[3]));
  Tensor* gb = has_bias_ ? &gb_ : nullptr;
  if (conv_backend() == ConvBackend::Direct) {
    FT_CHECK_MSG(!panel_kept_,
                 "conv backend switched to direct between a forward and its "
                 "backward: that forward kept only its im2col column panel");
    return conv_backward_direct(cached_x_, grad_out, w_, gw_, gb, d_);
  }
  return conv_backward_im2col(in_shape_,
                              panel_kept_ ? nullptr : cached_x_.data(),
                              panel_kept_ ? panel_.data() : nullptr, grad_out,
                              w_, gw_, gb, d_, input_grad);
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> ps{{&w_, &gw_, "weight"}};
  if (has_bias_) ps.push_back({&b_, &gb_, "bias"});
  return ps;
}

std::int64_t Conv2d::macs(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == d_.in_c);
  const int oh = d_.out_hw(in_shape[1]), ow = d_.out_hw(in_shape[2]);
  return static_cast<std::int64_t>(d_.out_c) * (d_.in_c / d_.groups) *
         d_.kernel * d_.kernel * oh * ow;
}

std::vector<int> Conv2d::out_shape(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == d_.in_c);
  return {d_.out_c, d_.out_hw(in_shape[1]), d_.out_hw(in_shape[2])};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::make_unique<Conv2d>(d_.in_c, d_.out_c, d_.kernel,
                                       d_.stride, d_.pad, has_bias_,
                                       d_.groups);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

std::unique_ptr<Conv2d> Conv2d::to_dense() const {
  auto dense = std::make_unique<Conv2d>(d_.in_c, d_.out_c, d_.kernel,
                                        d_.stride, d_.pad, has_bias_);
  const int icg = d_.in_c / d_.groups;
  const int ocg = d_.out_c / d_.groups;
  for (int oc = 0; oc < d_.out_c; ++oc) {
    const int g = oc / ocg;
    for (int icl = 0; icl < icg; ++icl)
      for (int ky = 0; ky < d_.kernel; ++ky)
        for (int kx = 0; kx < d_.kernel; ++kx)
          dense->w_.at(oc, g * icg + icl, ky, kx) = w_.at(oc, icl, ky, kx);
  }
  if (has_bias_) dense->b_ = b_;
  return dense;
}

std::unique_ptr<Layer> make_depthwise_separable(int in_channels,
                                                int out_channels, int kernel,
                                                int stride, Rng& rng) {
  auto dw = std::make_unique<Conv2d>(in_channels, in_channels, kernel, stride,
                                     /*padding=*/-1, /*bias=*/true,
                                     /*groups=*/in_channels);
  dw->init(rng);
  auto pw = std::make_unique<Conv2d>(in_channels, out_channels, /*kernel=*/1,
                                     /*stride=*/1, /*padding=*/0);
  pw->init(rng);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::move(dw));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::move(pw));
  return seq;
}

}  // namespace fedtrans
