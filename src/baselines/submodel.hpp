#pragma once

#include <functional>
#include <memory>

#include "fl/engine.hpp"
#include "model/model.hpp"

namespace fedtrans {

/// The width-scaled submodel baselines (HeteroFL, FedRolex, FLuID) as one
/// engine Strategy: a ladder of capacity levels over one global model.
/// Each client trains the largest level its capacity allows; a level's
/// submodel takes a subset of the global channels; the server averages
/// each global parameter element over exactly the clients whose submodels
/// covered it. A subclass only says which global element each submodel
/// element takes (for_each_element) — see docs/strategies.md, "Width-scaled
/// baselines".
class SubmodelStrategy : public Strategy {
 public:
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override {
    return submodel(task.tag);
  }
  // The element map depends only on the level and on state fixed for the
  // round: same level, same bytes.
  int payload_key(const ClientTask& task) const override { return task.tag; }
  const Model& reference_model() const override { return *global_; }
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  /// A level's tasks share one element map, so its pre-summed group folds
  /// through the map exactly as its members' updates would.
  bool supports_partial_aggregation() const override { return true; }
  /// The client's level submodel.
  double deployed_accuracy(int client, const ClientData& data) override;

  Model& global() { return *global_; }
  int num_levels() const { return static_cast<int>(level_specs_.size()); }
  /// Level assigned to a client (largest fitting; the weakest level if none
  /// fit).
  int level_for(int client) const;
  /// Fresh submodel at `level` carrying the global elements it maps to.
  Model submodel(int level);

 protected:
  /// `width_ratios` must be strictly descending and start at 1.0 (the full
  /// model). `scaled_ladder` keeps two details that reach the engine Rng
  /// and the wire: a scaled ladder (HeteroFL, FedRolex) names each level
  /// `name@ratio` and forks the engine Rng once per level in attach; an
  /// extracted one (FLuID) keeps the global spec's name, which rides every
  /// ModelDown, and draws nothing beyond the global model.
  SubmodelStrategy(ModelSpec full_spec, std::vector<double> width_ratios,
                   bool scaled_ladder = true);

  /// fn(p, global_idx, sub_idx): element `sub_idx` of parameter p of the
  /// submodel takes element `global_idx` of parameter p of the global model
  /// (params() order; every level has the global model's structure).
  using ElementFn = std::function<void(std::size_t p, std::int64_t global_idx,
                                       std::int64_t sub_idx)>;
  /// Visit each parameter element of `sub`, a submodel at `level`, exactly
  /// once; distinct elements must map to distinct global elements, and the
  /// map may depend only on the level and on state fixed for the round.
  virtual void for_each_element(int level, Model& sub, const ElementFn& fn) = 0;

  /// The element walk of a channel map over a Conv or Mlp cell model:
  /// `channels[s][j]` is the global channel that the submodel's channel j
  /// of width space s takes (s = 0 the stem, 1 + l Cell l). Input channels
  /// and classes are fixed.
  void for_each_channel_element(Model& sub,
                                const std::vector<std::vector<int>>& channels,
                                const ElementFn& fn);
  /// Widths of a spec's width spaces: the stem, then each Cell.
  static std::vector<int> space_widths(const ModelSpec& spec);

  const ModelSpec& full_spec() const { return full_spec_; }
  double width_ratio(int level) const {
    return width_ratios_[static_cast<std::size_t>(level)];
  }
  /// After finish_round: the mean update just subtracted from the global
  /// model (0 where no client covered the element).
  const WeightSet& applied_update() const { return acc_; }

  /// acc += delta_scale · delta and wsum += weight over the element map of
  /// the task's level, walked on `payload`.
  void fold(const ClientTask& task, Model* payload, const WeightSet& delta,
            double delta_scale, double weight, RoundContext& ctx) override;

 private:
  ModelSpec full_spec_;
  std::vector<double> width_ratios_;
  std::vector<ModelSpec> level_specs_;
  bool scaled_ladder_;
  const std::vector<DeviceProfile>* fleet_ = nullptr;
  std::unique_ptr<Model> global_;
  std::vector<double> level_macs_;

  // Per-round accumulators: acc_ = Σ n·Δ and wsum_ = Σ n per global element.
  WeightSet acc_;
  WeightSet wsum_;
};

}  // namespace fedtrans
