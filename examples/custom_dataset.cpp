// Bringing your own workload: build a FederatedDataset-compatible setup from
// custom per-client shards and a hand-specified device fleet, then train a
// FedTrans family on it. Shows the lower-level API surface: DatasetConfig
// knobs, explicit DeviceProfile construction, custom initial ModelSpec, and
// the ablation switches on FedTransConfig.

#include <iostream>

#include "common/table.hpp"
#include "core/trainer.hpp"

using namespace fedtrans;

int main() {
  // 1. Describe the data. (To plug in real data, fill ClientData tensors
  //    yourself; here we use the generator with custom knobs: strong label
  //    skew, mild noise, two "sensor channels" at 10x10.)
  DatasetConfig dcfg;
  dcfg.name = "custom-sensors";
  dcfg.num_classes = 8;
  dcfg.channels = 2;
  dcfg.hw = 10;
  dcfg.num_clients = 20;
  dcfg.dirichlet_h = 0.2;        // highly non-IID
  dcfg.style_strength = 0.6;     // strong per-client feature shift
  dcfg.mean_train_samples = 40;
  dcfg.seed = 2024;
  FederatedDataset data = FederatedDataset::generate(dcfg);

  // 2. Describe the devices: a bimodal fleet — 15 weak wearables and
  //    5 strong hub devices.
  std::vector<DeviceProfile> fleet;
  for (int i = 0; i < 20; ++i) {
    DeviceProfile d;
    const bool strong = i % 4 == 3;
    d.compute_macs_per_s = strong ? 4e8 : 3e7;
    d.bandwidth_bytes_per_s = strong ? 1e6 : 1e5;
    d.capacity_macs = d.compute_macs_per_s * 0.004;
    fleet.push_back(d);
  }

  // 3. Seed architecture sized for the weakest wearable.
  ModelSpec initial = ModelSpec::conv(/*in_channels=*/2, /*in_hw=*/10,
                                      /*classes=*/8, /*stem=*/4,
                                      /*cell widths=*/{6, 8},
                                      /*blocks=*/{1, 1}, /*strides=*/{1, 2});

  // 4. Configure FedTrans. Any component can be ablated via the switches.
  FedTransConfig cfg;
  cfg.rounds = 25;
  cfg.clients_per_round = 6;
  cfg.local.steps = 8;
  cfg.beta = 0.02;
  cfg.gamma = 4;
  cfg.doc_delta = 3;
  cfg.max_models = 4;
  cfg.seed = 7;

  FederationEngine engine(std::make_unique<FedTransStrategy>(initial, cfg),
                          data, fleet, SessionConfig::from(cfg));
  engine.run();
  auto& trainer = engine.strategy_as<FedTransStrategy>();
  const FinalEval ev = trainer.evaluate_final();

  TablePrinter t({"model", "MACs", "clients deployed"});
  std::vector<int> per_model(static_cast<std::size_t>(trainer.num_models()));
  for (int m : ev.client_model) ++per_model[static_cast<std::size_t>(m)];
  for (int k = 0; k < trainer.num_models(); ++k)
    t.add_row({trainer.model(k).spec().summary(),
               fmt_macs(static_cast<double>(trainer.model(k).macs())),
               std::to_string(per_model[static_cast<std::size_t>(k)])});
  t.print(std::cout);
  std::cout << "\nmean accuracy " << fmt_fixed(ev.mean_accuracy * 100, 2)
            << "% across " << data.num_clients() << " custom clients\n";
  return 0;
}
