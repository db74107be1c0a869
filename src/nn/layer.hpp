#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedtrans {

/// A named (weight, gradient) pair exposed by a layer. Gradients are
/// accumulated by backward() and cleared with Layer::zero_grad().
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// Minimal trainable-layer interface. forward() may cache activations needed
/// by the immediately following backward() — layers are single-use per step
/// (no double-buffering), which matches the sequential training loop.
class Layer {
 public:
  virtual ~Layer() = default;

  /// `train` enables behaviours that differ between train/eval (none of the
  /// current layers differ, but the flag is part of the public contract).
  virtual Tensor forward(const Tensor& x, bool train) = 0;
  /// Given dLoss/dOutput, accumulate parameter gradients and return
  /// dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_out) = 0;
  /// backward() for a caller that discards dLoss/dInput, such as the
  /// model's stem: accumulates the same parameter gradients. Layers that
  /// can skip the input-gradient work override it.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  virtual std::vector<ParamRef> params() { return {}; }
  /// Multiply-accumulate operations per *single sample* given the input
  /// shape without the batch dimension (e.g. {C,H,W}).
  virtual std::int64_t macs(const std::vector<int>& in_shape) const = 0;
  /// Output shape (without batch dimension) for the given input shape.
  virtual std::vector<int> out_shape(const std::vector<int>& in_shape) const = 0;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<Layer> clone() const = 0;

  void zero_grad() {
    for (auto& p : params())
      if (p.grad) p.grad->zero();
  }

  std::int64_t num_params() {
    std::int64_t n = 0;
    for (auto& p : params()) n += p.value->numel();
    return n;
  }
};

}  // namespace fedtrans
