// Heterogeneous fleet walk-through: how device capability tiers map to the
// model family FedTrans grows, and which model each client ends up deploying.
//
// Demonstrates: trace sampling, capacity tiers, utility-based assignment
// inspection, and the straggler benefit of capacity-aligned models.

#include <algorithm>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"
#include "harness/presets.hpp"

using namespace fedtrans;

int main() {
  ExperimentPreset preset = openimage_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);
  std::vector<DeviceProfile> fleet = sample_fleet(preset.fleet);

  // --- Fleet census ------------------------------------------------------
  std::vector<double> caps;
  for (const auto& d : fleet) caps.push_back(d.capacity_macs);
  const auto box = box_stats(caps);
  std::cout << "fleet of " << fleet.size() << " devices, capacity (MACs):\n"
            << "  min " << fmt_macs(box.min) << "  median "
            << fmt_macs(box.median) << "  max " << fmt_macs(box.max)
            << "  (disparity " << fmt_fixed(fleet_disparity(fleet), 1)
            << "x)\n\n";

  FederationEngine engine(
      std::make_unique<FedTransStrategy>(preset.initial_model,
                                         preset.fedtrans),
      data, fleet, SessionConfig::from(preset.fedtrans));
  engine.run();
  auto& trainer = engine.strategy_as<FedTransStrategy>();

  // --- Model family ------------------------------------------------------
  TablePrinter family({"model", "architecture", "MACs", "params", "created"});
  for (const auto& e : trainer.entries()) {
    family.add_row({e.model->spec().name, e.model->spec().summary(),
                    fmt_macs(static_cast<double>(e.model->macs())),
                    std::to_string(e.model->num_params()),
                    std::to_string(e.created_round)});
  }
  std::cout << "model family grown during training:\n";
  family.print(std::cout);

  // --- Deployment report -------------------------------------------------
  const FinalEval ev = trainer.evaluate_final();
  std::vector<int> per_model(static_cast<std::size_t>(trainer.num_models()));
  for (int m : ev.client_model) ++per_model[static_cast<std::size_t>(m)];
  std::cout << "\nclient -> model assignment (by best utility):\n";
  for (int k = 0; k < trainer.num_models(); ++k)
    std::cout << "  " << trainer.model(k).spec().name << ": "
              << per_model[static_cast<std::size_t>(k)] << " clients\n";
  std::cout << "\nmean accuracy " << fmt_fixed(ev.mean_accuracy * 100, 2)
            << "%, IQR " << fmt_fixed(ev.accuracy_iqr * 100, 2) << "%\n";

  // --- Straggler view ----------------------------------------------------
  std::cout << "\nsimulated per-client round time: mean "
            << fmt_fixed(engine.costs().client_time_mean(), 2) << "s, std "
            << fmt_fixed(engine.costs().client_time_std(), 2)
            << "s (capacity-aligned models keep stragglers in check)\n";
  return 0;
}
