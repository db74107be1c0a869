// How to add a federation algorithm in ~50 lines: implement Strategy, hand
// it to FederationEngine, and you inherit the whole substrate — concurrent
// client rounds on the shared ThreadPool, deterministic Rng forking, the
// round ledger (cost accounting, client times, selector feedback, the
// round's mean loss), periodic eval probes, RoundObserver callbacks, and
// (flip SessionConfig::use_fabric) wire-protocol execution with fault
// injection.
//
// The demo strategy is "FedMedianish": coordinate-wise trimmed-mean
// aggregation — drop the single largest and smallest client delta per
// coordinate, average the rest — a classic robust-aggregation scheme.
//
//   1. plan_round      -> default (uniform selection) is inherited
//   2. client_payload  -> every client downloads the global model
//   3. shared_model    -> that model is also what every client deploys, so
//                         the eval probes and client_accuracy score it
//   4. absorb_update   -> stash each client's delta (fixed task order)
//   5. finish_round    -> trimmed-mean the deltas into the global model
//
// Build: cmake --build build --target example_custom_strategy

#include <algorithm>
#include <cstdio>

#include "common/stats.hpp"
#include "fl/engine.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

class TrimmedMeanStrategy : public Strategy {
 public:
  explicit TrimmedMeanStrategy(Model init) : model_(std::move(init)) {}

  std::string name() const override { return "trimmed-mean"; }
  Model client_payload(const ClientTask&) override { return model_; }
  Model* shared_model() override { return &model_; }
  const Model& reference_model() const override { return model_; }

  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override {
    deltas_.clear();
    return Strategy::plan_round(ctx, rng);  // uniform selection
  }

  // The engine has already billed the task; keep only its delta.
  void absorb_update(const ClientTask&, Model*, LocalTrainResult& res,
                     RoundContext&) override {
    deltas_.push_back(std::move(res.delta));
  }

  void finish_round(RoundContext&, RoundRecord&) override {
    if (deltas_.size() >= 3) {
      WeightSet global = model_.weights();
      for (std::size_t p = 0; p < global.size(); ++p) {
        for (std::int64_t e = 0; e < global[p].numel(); ++e) {
          float lo = deltas_[0][p][e], hi = lo, sum = 0.0f;
          for (const WeightSet& d : deltas_) {
            lo = std::min(lo, d[p][e]);
            hi = std::max(hi, d[p][e]);
            sum += d[p][e];
          }
          const auto n = static_cast<float>(deltas_.size() - 2);
          global[p][e] -= (sum - lo - hi) / n;  // trimmed mean step
        }
      }
      model_.set_weights(global);
    }
  }

 private:
  Model model_;
  std::vector<WeightSet> deltas_;
};

int main() {
  auto preset = cifar_like(Scale::Tiny);
  auto data = FederatedDataset::generate(preset.dataset);
  auto fleet = sample_fleet(preset.fleet);
  Rng rng(7);

  const auto cfg = SessionConfig{}
                       .with_rounds(10)
                       .with_clients_per_round(8)
                       .with_eval(5)
                       .with_seed(7);

  FederationEngine engine(std::make_unique<TrimmedMeanStrategy>(
                              Model(preset.initial_model, rng)),
                          data, fleet, cfg);
  engine.on_round([](const RoundRecord& rec) {
    std::printf("round %2d  loss %.4f%s\n", rec.round, rec.avg_loss,
                rec.accuracy >= 0.0 ? "  (probe ran)" : "");
  });
  engine.run();

  std::printf("mean client accuracy: %.3f\n",
              mean(client_accuracy(engine.strategy(), data)));
  std::printf("network: %.1f MB, compute: %.2e MACs\n",
              engine.costs().network_mb(), engine.costs().total_macs());
  return 0;
}
