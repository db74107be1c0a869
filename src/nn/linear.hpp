#pragma once

#include "nn/layer.hpp"

namespace fedtrans {

/// The dense projection y[rows, out] = x[rows, in] · Wᵀ + b, W [out, in].
/// An empty `b` means no bias. Linear, Attention and TokenMlp run every
/// projection through this pair.
Tensor dense_forward(const Tensor& x2d, const Tensor& w, const Tensor& b);

/// Backward of dense_forward: gW += gᵀ·x, then gb += column sums of g
/// (skipped when `gb` is empty); returns dx = g·W.
Tensor dense_backward(const Tensor& g2d, const Tensor& x2d, const Tensor& w,
                      Tensor& gw, Tensor& gb);

/// Fully connected layer: y = x W^T + b, with x:[N,in], W:[out,in], b:[out].
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, bool bias = true);

  /// He-uniform initialization (suited to the ReLU networks we build).
  void init(Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const override;
  std::string name() const override { return "Linear"; }
  std::unique_ptr<Layer> clone() const override;

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  int in_, out_;
  bool has_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  Tensor cached_x_;
};

}  // namespace fedtrans
