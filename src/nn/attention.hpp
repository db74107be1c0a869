#pragma once

#include "nn/layer.hpp"

namespace fedtrans {

/// Multi-head self-attention over tokens [N, T, D]:
///   head h: O_h = softmax(Q_h K_h^T / sqrt(d_h)) V_h,
///           Q_h = X Wq_h^T + bq_h (Wq_h is [d_h, D], d_h = D / heads),
///   Y = concat(O_1..O_H) Wo^T + bo.
/// Weights are [D, D] like Linear ([out, in]). Used as the attention half of
/// a transformer block (the model wraps it in a residual Block); the
/// FedTrans ViT transforms single-head Cells, and examples/custom_vit.cpp
/// builds multi-head ones.
class Attention : public Layer {
 public:
  explicit Attention(int dim, int heads = 1);

  void init(Rng& rng);
  /// Zero the output projection so the (residual) block starts as identity —
  /// the function-preserving deepen initialization for transformer cells.
  void zero_output_projection();

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in) const override {
    return in;
  }
  std::string name() const override { return "Attention"; }
  std::unique_ptr<Layer> clone() const override;

  int dim() const { return d_; }
  int heads() const { return h_; }
  int head_dim() const { return d_ / h_; }

 private:
  int d_, h_;
  // Packed projections: wq_/wk_/wv_ rows and wo_ columns are grouped by
  // head (head h owns [h*d_h, (h+1)*d_h)).
  Tensor wq_, gwq_, bq_, gbq_;
  Tensor wk_, gwk_, bk_, gbk_;
  Tensor wv_, gwv_, bv_, gbv_;
  Tensor wo_, gwo_, bo_, gbo_;
  // Forward caches; attn_ is [N·heads, T, T], one matrix per (batch, head).
  Tensor x_, q_, k_, v_, attn_, o_;
};

/// Position-wise 2-layer MLP over tokens [N, T, D]:
///   y = ReLU(x W1^T + b1) W2^T + b2, hidden width `hidden`.
/// The transformable width of an Attention Cell is this hidden dimension.
class TokenMlp : public Layer {
 public:
  TokenMlp(int dim, int hidden);

  void init(Rng& rng);
  /// Zero the second linear for identity (residual) insertion.
  void zero_output_projection();

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in) const override {
    return in;
  }
  std::string name() const override { return "TokenMlp"; }
  std::unique_ptr<Layer> clone() const override;

  int dim() const { return d_; }
  int hidden() const { return h_; }
  Tensor& w1() { return w1_; }
  Tensor& b1() { return b1_; }
  Tensor& w2() { return w2_; }

 private:
  int d_, h_;
  Tensor w1_, gw1_, b1_, gb1_;
  Tensor w2_, gw2_, b2_, gb2_;
  Tensor x_, hpre_, hact_;
};

/// [N, C, H, W] (patch-embedded feature map) -> tokens [N, T=H*W, C].
class PatchToTokens : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::int64_t macs(const std::vector<int>&) const override { return 0; }
  std::vector<int> out_shape(const std::vector<int>& in) const override;
  std::string name() const override { return "PatchToTokens"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<PatchToTokens>();
  }

 private:
  std::vector<int> cached_shape_;
};

/// Mean over the token axis: [N, T, D] -> [N, D].
class MeanTokens : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::int64_t macs(const std::vector<int>&) const override { return 0; }
  std::vector<int> out_shape(const std::vector<int>& in) const override;
  std::string name() const override { return "MeanTokens"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MeanTokens>();
  }

 private:
  std::vector<int> cached_shape_;
};

}  // namespace fedtrans
