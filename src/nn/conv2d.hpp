#pragma once

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace fedtrans {

/// 2-D convolution over NCHW input; square kernel, symmetric padding.
/// Input channels split into `groups` equal slices, each convolved with its
/// own filter bank: weight layout [out_c, in_c/groups, k, k]. groups == 1 is
/// the dense convolution; groups == in_channels == out_channels is a
/// depthwise convolution (the MobileNet building block). Forward/backward
/// lower onto the blocked GEMM via im2col/col2im by default; the direct loop
/// nest is kept as a reference implementation selectable through
/// set_conv_backend() for parity testing.
///
/// What a forward leaves for backward: a training forward under im2col
/// whose batch fits the column budget (conv_panel_fits) keeps its column
/// panel, and backward reads it instead of unfolding the input again. Every
/// other forward (eval, the direct backend, a batch of several column
/// tiles) keeps a copy of the input, from which backward recomputes. A
/// backward under the direct backend after a panel-keeping forward throws,
/// since the input was never kept.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride = 1,
         int padding = -1 /* -1 = same (k/2) */, bool bias = true,
         int groups = 1);

  /// He-uniform initialization over the per-group fan-in.
  void init(Rng& rng);
  /// Dirac-delta identity initialization (used by function-preserving
  /// deepen on non-residual cells). Requires in==out, odd kernel, stride 1
  /// and groups 1.
  void init_identity();

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Under im2col, skips the column-gradient GEMM, col2im and dx.
  void backward_params(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const override;
  std::string name() const override { return "Conv2d"; }
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return d_.in_c; }
  int out_channels() const { return d_.out_c; }
  int kernel() const { return d_.kernel; }
  int stride() const { return d_.stride; }
  int padding() const { return d_.pad; }
  int groups() const { return d_.groups; }
  bool has_bias() const { return has_bias_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

  /// Equivalent dense (groups = 1) convolution: weights are block-diagonal
  /// across groups, zero elsewhere. Output is bit-identical on the same
  /// input; MACs grow by the group count. The paper's appendix converts
  /// grouped layers this way before running HeteroFL and SplitMix, which do
  /// not support grouped convolutions.
  std::unique_ptr<Conv2d> to_dense() const;

 private:
  Tensor backward_impl(const Tensor& grad_out, bool input_grad);

  ConvDims d_;
  bool has_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  std::vector<int> in_shape_;  // of the last forward's input
  Tensor cached_x_;            // that input, unless the panel was kept
  std::vector<float> panel_;   // its column panel; capacity kept across steps
  bool panel_kept_ = false;
};

/// Depthwise-separable convolution block (depthwise k×k + pointwise 1×1),
/// the MobileNet-family primitive, assembled from the substrate layers.
std::unique_ptr<Layer> make_depthwise_separable(int in_channels,
                                                int out_channels, int kernel,
                                                int stride, Rng& rng);

}  // namespace fedtrans
