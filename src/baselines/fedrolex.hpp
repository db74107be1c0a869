#pragma once

#include <functional>

#include "fl/engine.hpp"
#include "model/model.hpp"

namespace fedtrans {

/// FedRolex (Alam et al., NeurIPS 2022 — cited by the paper as the rolling
/// counterpart of static-submodel training) as an engine Strategy: like
/// HeteroFL, every client trains a width-scaled submodel of one global
/// model, but the channel window *rolls* by one index each round instead of
/// always taking the prefix. Over enough rounds every global parameter is
/// trained by every capacity tier, fixing HeteroFL's "only the prefix gets
/// small-client updates" imbalance.
///
/// Submodel channel j of a width-W space maps to global channel
/// (offset + j) mod W, with one offset per width space (stem and each Cell)
/// advancing by one every round. Conv and Mlp Cell models are supported
/// (the paper's NASBench/ResNet-style workloads).
class FedRolexStrategy : public Strategy {
 public:
  /// `width_ratios` must be descending and start at 1.0 (the full model).
  explicit FedRolexStrategy(
      ModelSpec full_spec,
      std::vector<double> width_ratios = {1.0, 0.5, 0.25, 0.125, 0.0625});

  std::string name() const override { return "fedrolex"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  // The rolling window is a function of (level, round): same level,
  // same bytes within a round.
  int payload_key(const ClientTask& task) const override { return task.tag; }
  const Model& reference_model() const override { return *global_; }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override;
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override;
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  double probe_accuracy(const std::vector<int>& ids,
                        RoundContext& ctx) override;

  Model& global() { return *global_; }
  int num_levels() const { return static_cast<int>(level_specs_.size()); }
  int level_for(int client) const;
  /// Rolling-window submodel at `level` under `round`'s offsets.
  Model submodel(int level, int round);
  /// Offset of one width space (0 = stem, 1 + l = Cell l) at `round`.
  int offset_for_space(int space, int round) const;

 private:
  /// Visits every parameter element of the level's submodel together with
  /// the global element its rolled window (at `round`) maps to:
  /// `fn(sub_param, global_param, flat_sub_idx, flat_global_idx)`.
  void for_each_mapped_element(
      Model& sub, int round,
      const std::function<void(Tensor& sub_param, const Tensor& global_param,
                               std::int64_t sub_idx,
                               std::int64_t global_idx)>& fn);

  ModelSpec full_spec_;
  std::vector<double> width_ratios_;
  const std::vector<DeviceProfile>* fleet_ = nullptr;
  std::unique_ptr<Model> global_;
  std::vector<ModelSpec> level_specs_;
  std::vector<double> level_macs_;
  std::vector<double> level_bytes_;

  // Per-round accumulators.
  int cur_round_ = 0;
  WeightSet acc_;
  WeightSet wsum_;
  double loss_sum_ = 0.0;
  double slowest_ = 0.0;
  std::size_t round_tasks_ = 0;
};

}  // namespace fedtrans
