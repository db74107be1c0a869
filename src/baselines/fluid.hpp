#pragma once

#include <memory>
#include <unordered_map>

#include "fl/engine.hpp"
#include "model/model.hpp"

namespace fedtrans {

/// FLuID (Wang et al., NeurIPS 2024) as an engine Strategy:
/// invariant-dropout FL. The server tracks each neuron's (output channel's)
/// aggregate update magnitude; for a capacity-limited client it extracts a
/// submodel that keeps the *dynamic* neurons (largest recent updates) and
/// drops the *invariant* ones, then merges client updates back into the
/// tracked positions. Unlike HeteroFL's prefix crops, FLuID submodels
/// select arbitrary channel subsets. Conv-cell models only.
class FluidStrategy : public Strategy {
 public:
  explicit FluidStrategy(ModelSpec full_spec);

  std::string name() const override { return "fluid"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  // Invariance scores are round-stable, so the extracted submodel is a
  // function of the client's drop ratio alone.
  int payload_key(const ClientTask& task) const override {
    return static_cast<int>(ratio_index_for(task.client));
  }
  const Model& reference_model() const override { return *global_; }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override;
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override;
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  double probe_accuracy(const std::vector<int>& ids,
                        RoundContext& ctx) override;

  Model& global() { return *global_; }
  /// Width ratio the client's capacity affords (grid-searched so the built
  /// submodel's MACs fit; 1.0 = full model).
  double ratio_for(int client) const;
  /// kept[0] = stem channels, kept[1+l] = channels of cell l. Depends only
  /// on the (round-stable) invariance scores, so payload and absorb
  /// recompute identical maps.
  std::vector<std::vector<int>> kept_for_ratio(double ratio) const;
  Model extract(const std::vector<std::vector<int>>& kept);

 private:
  void update_scores(const WeightSet& agg_delta);

  ModelSpec full_spec_;
  const std::vector<DeviceProfile>* fleet_ = nullptr;
  std::unique_ptr<Model> global_;
  /// Per (stem + cell) per output channel: EMA of update magnitude.
  std::vector<std::vector<double>> score_;
  /// ratio -> measured submodel MACs / bytes (descending grid).
  std::vector<double> ratio_grid_;
  std::vector<double> ratio_macs_;
  std::vector<double> ratio_bytes_;
  /// Index into the ratio grid the client's capacity affords.
  std::size_t ratio_index_for(int client) const;

  // Per-round accumulators.
  std::unordered_map<const Tensor*, std::size_t> fidx_;  // round-stable
  WeightSet acc_;
  WeightSet wsum_;
  double loss_sum_ = 0.0;
  double slowest_ = 0.0;
  std::size_t round_tasks_ = 0;
};

}  // namespace fedtrans
