#pragma once

#include <unordered_map>

#include "fl/engine.hpp"
#include "model/model.hpp"

namespace fedtrans {

/// HeteroFL (Diao et al., ICLR 2020) as an engine Strategy: a *static*
/// ladder of width-scaled submodels of one global model. Each client trains
/// the largest submodel its capacity allows; submodel weights are the
/// top-left (prefix) crop of the global weights; the server averages each
/// global parameter element over exactly the clients whose submodels cover
/// it.
class HeteroFLStrategy : public Strategy {
 public:
  /// `width_ratios` must be descending and start at 1.0 (the full model).
  explicit HeteroFLStrategy(
      ModelSpec full_spec,
      std::vector<double> width_ratios = {1.0, 0.5, 0.25, 0.125, 0.0625});

  std::string name() const override { return "heterofl"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  // One submodel per capacity level: same level, same bytes.
  int payload_key(const ClientTask& task) const override { return task.tag; }
  const Model& reference_model() const override { return *global_; }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override;
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override;
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  double probe_accuracy(const std::vector<int>& ids,
                        RoundContext& ctx) override;
  /// Coverage-weighted element averaging is a linear sum per capacity
  /// level: same level ⇒ same submodel structure ⇒ one overlap walk folds
  /// the level's pre-summed delta and weight total into the global crop.
  bool supports_partial_aggregation() const override { return true; }
  void absorb_metrics(const ClientTask& task, const LocalTrainResult& res,
                      RoundContext& ctx) override;
  void absorb_reduced(const ClientTask& task, Model* payload, WeightSet& sum,
                      double weight, int count, RoundContext& ctx) override;

  Model& global() { return *global_; }
  int num_levels() const { return static_cast<int>(level_specs_.size()); }
  /// Level assigned to a client (largest fitting; deepest level if none fit).
  int level_for(int client) const;
  /// Fresh submodel at `level` carrying the current global crop.
  Model submodel(int level);

 private:
  ModelSpec full_spec_;
  std::vector<double> width_ratios_;
  const std::vector<DeviceProfile>* fleet_ = nullptr;
  std::unique_ptr<Model> global_;
  std::vector<ModelSpec> level_specs_;
  std::vector<double> level_macs_;
  std::vector<double> level_bytes_;

  // Per-round accumulators. gidx_ indexes the global params once per round
  // (global_ is stable until finish_round) instead of once per update.
  WeightSet acc_;
  WeightSet wsum_;
  std::unordered_map<const Tensor*, std::size_t> gidx_;
  double loss_sum_ = 0.0;
  double slowest_ = 0.0;
  std::size_t round_tasks_ = 0;
};

}  // namespace fedtrans
