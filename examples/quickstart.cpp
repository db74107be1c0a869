// Quickstart: train a FedTrans model family on a small non-IID fleet.
//
// This is the 60-second tour of the public API:
//   1. generate a federated dataset (or plug in your own ClientData shards),
//   2. sample a heterogeneous device fleet,
//   3. run a FederationEngine with a FedTransStrategy seeded by a small
//      initial model, and let it grow the family,
//   4. read back the per-client assignment and accuracy.

#include <iostream>

#include "common/table.hpp"
#include "core/trainer.hpp"
#include "harness/presets.hpp"

using namespace fedtrans;

int main() {
  // A femnist-like non-IID workload and fleet, scaled for a laptop CPU.
  ExperimentPreset preset = femnist_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);
  std::vector<DeviceProfile> fleet = sample_fleet(preset.fleet);

  std::cout << "clients: " << data.num_clients()
            << ", fleet disparity: " << fmt_fixed(fleet_disparity(fleet), 1)
            << "x, initial model: " << preset.initial_model.summary() << "\n";

  FederationEngine engine(
      std::make_unique<FedTransStrategy>(preset.initial_model,
                                         preset.fedtrans),
      data, fleet, SessionConfig::from(preset.fedtrans));
  auto& trainer = engine.strategy_as<FedTransStrategy>();
  for (int r = 0; r < preset.fedtrans.rounds; ++r) {
    const double loss = engine.run_round();
    if (r % 5 == 0)
      std::cout << "round " << r << "  loss " << fmt_fixed(loss, 3)
                << "  models " << trainer.num_models() << "\n";
  }

  std::cout << "\nmodel family:\n";
  for (const auto& e : trainer.entries())
    std::cout << "  " << e.model->spec().summary() << "  "
              << fmt_macs(static_cast<double>(e.model->macs()))
              << "  (created round " << e.created_round << ")\n";

  const FinalEval ev = trainer.evaluate_final();
  std::cout << "\nmean client accuracy: "
            << fmt_fixed(ev.mean_accuracy * 100, 2)
            << "%  (IQR " << fmt_fixed(ev.accuracy_iqr * 100, 2) << "%)\n";
  std::cout << "training cost: " << fmt_macs(engine.costs().total_macs())
            << ", network: " << fmt_bytes(engine.costs().network_bytes())
            << ", storage: " << fmt_bytes(engine.costs().storage_bytes())
            << "\n";
  return 0;
}
