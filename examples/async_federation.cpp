// Asynchronous federation: run FedBuff-style buffered aggregation on a
// straggler-heavy fleet and compare wall-clock against synchronous FedAvg.
//
// Synchronous rounds are gated by their slowest participant; with a 29×+
// capability disparity (the paper's fleet), most devices idle while the
// tail finishes. Buffered async aggregation (Nguyen et al.) dispatches a
// new client the moment one returns and folds stale updates in with a
// polynomial discount.

#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  ExperimentPreset preset = femnist_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);

  // A deliberately long-tailed fleet.
  FleetConfig fcfg = preset.fleet;
  fcfg.sigma_compute = 1.8;
  auto fleet = sample_fleet(fcfg);
  std::cout << "fleet disparity: " << fmt_fixed(fleet_disparity(fleet), 1)
            << "x across " << fleet.size() << " devices\n\n";

  Rng rng(7);
  Model init(preset.initial_model, rng);
  const int updates = preset.fedtrans.rounds;

  SessionConfig scfg;
  scfg.rounds = updates;
  scfg.clients_per_round = preset.fedtrans.clients_per_round;
  scfg.local = preset.fedtrans.local;
  FederationEngine sync(std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}),
                        data, fleet, scfg);
  sync.run();
  double sync_wall = 0.0;
  for (const auto& rec : sync.history()) sync_wall += rec.round_time_s;

  // The same engine in its async scheduling mode, running FedBuff.
  SessionConfig acfg;
  acfg.mode = SessionMode::Async;
  acfg.async.concurrency = preset.fedtrans.clients_per_round;
  acfg.async.buffer_size = preset.fedtrans.clients_per_round;
  acfg.async.aggregations = updates;
  acfg.local = preset.fedtrans.local;
  FederationEngine async_runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      acfg);
  async_runner.run();

  TablePrinter t({"method", "server updates", "wall-clock (s)",
                  "accuracy (%)"});
  t.add_row({"FedAvg (sync)", std::to_string(updates),
             fmt_fixed(sync_wall, 1),
             fmt_fixed(mean_client_accuracy(
                           sync.strategy_as<FedAvgStrategy>().model(), data) *
                           100,
                       2)});
  t.add_row({"FedBuff (async)", std::to_string(updates),
             fmt_fixed(async_runner.now_s(), 1),
             fmt_fixed(mean_client_accuracy(
                           async_runner.strategy_as<FedAvgStrategy>().model(),
                           data) *
                           100,
                       2)});
  t.print(std::cout);
  std::cout << "\nspeedup: " << fmt_fixed(sync_wall / async_runner.now_s(), 2)
            << "x wall-clock at mean staleness "
            << fmt_fixed(async_runner.mean_staleness(), 2) << "\n";
  return 0;
}
