#pragma once

#include <memory>

#include "fl/engine.hpp"
#include "model/model.hpp"

namespace fedtrans {

/// SplitMix (Hong et al., ICLR 2022) as an engine Strategy: splits the
/// width of a large model into `num_bases` independent narrow base models.
/// Each client trains (and at inference ensembles) as many bases as its
/// capacity affords — one engine task per (client, base), tagged with the
/// base — and bases are FedAvg-aggregated independently. Shipping ensembles
/// drives SplitMix's large network volumes in the paper's Table 2.
class SplitMixStrategy : public Strategy {
 public:
  explicit SplitMixStrategy(ModelSpec full_spec, int num_bases = 8);

  std::string name() const override { return "splitmix"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  // Every task of a base trains that base's exact weights.
  int payload_key(const ClientTask& task) const override { return task.tag; }
  const Model& reference_model() const override { return *bases_.front(); }
  double initial_storage_bytes() const override {
    return static_cast<double>(num_bases()) *
           static_cast<double>(bases_.front()->param_bytes());
  }
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  /// Each base sums its own tasks: the reduce key is the base.
  bool supports_partial_aggregation() const override { return true; }
  /// The client's ensemble: its budget_for(client) bases, rotated per
  /// client, with their logits summed.
  double deployed_accuracy(int client, const ClientData& data) override;

  int num_bases() const { return static_cast<int>(bases_.size()); }
  /// How many bases the client can run (≥1, ≤ num_bases).
  int budget_for(int client) const;
  Model& base(int i) { return *bases_[static_cast<std::size_t>(i)]; }

 protected:
  void fold(const ClientTask& task, Model* payload, const WeightSet& delta,
            double delta_scale, double weight, RoundContext& ctx) override;

 private:
  ModelSpec full_spec_;
  int requested_bases_;
  const std::vector<DeviceProfile>* fleet_ = nullptr;
  std::vector<std::unique_ptr<Model>> bases_;
  double base_macs_ = 0.0;

  // Per-round accumulators.
  std::vector<WeightSet> acc_;
  std::vector<double> wsum_;
};

}  // namespace fedtrans
