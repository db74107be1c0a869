#pragma once

#include "baselines/submodel.hpp"

namespace fedtrans {

/// FedRolex (Alam et al., NeurIPS 2022 — cited by the paper as the rolling
/// counterpart of static-submodel training): like HeteroFL, every client
/// trains a width-scaled submodel of one global model, but the channel
/// window *rolls* by one index each round instead of always taking the
/// prefix. Over enough rounds every global parameter is trained by every
/// capacity tier, fixing HeteroFL's "only the prefix gets small-client
/// updates" imbalance.
///
/// Submodel channel j of a width-W space maps to global channel
/// (offset + j) mod W, with one offset per width space (stem and each Cell)
/// advancing by one every round. Conv and Mlp Cell models are supported
/// (the paper's NASBench/ResNet-style workloads).
class FedRolexStrategy : public SubmodelStrategy {
 public:
  /// `width_ratios` must be strictly descending and start at 1.0 (the full
  /// model).
  explicit FedRolexStrategy(
      ModelSpec full_spec,
      std::vector<double> width_ratios = {1.0, 0.5, 0.25, 0.125, 0.0625});

  std::string name() const override { return "fedrolex"; }
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;

  /// Offset of one width space (0 = stem, 1 + l = Cell l) in the current
  /// window.
  int offset_for_space(int space) const;

 protected:
  void for_each_element(int level, Model& sub, const ElementFn& fn) override;

 private:
  /// The round the window is rolled to: the round in training, and after
  /// finish_round the next one — what the probe and the harness deploy.
  int window_ = 0;
};

}  // namespace fedtrans
