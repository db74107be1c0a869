// Extension bench: synchronous FedAvg vs buffered-asynchronous FedBuff
// (Nguyen et al., cited by the paper for straggler mitigation — Appendix C
// shows FedTrans's capacity-aware assignment shrinking round times; async
// aggregation is the orthogonal system-level remedy). Reports simulated
// wall-clock to complete the same number of server updates, plus final
// accuracy, across increasingly heterogeneous fleets.

#include <iostream>

#include "common/table.hpp"
#include "fl/async.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[extension] sync FedAvg vs async FedBuff wall-clock ("
            << scale_name(scale) << ", femnist-like fleet)\n\n";
  auto preset = femnist_like(scale);
  auto data = FederatedDataset::generate(preset.dataset);

  const int updates = preset.fedtrans.rounds;
  const int per_round = preset.fedtrans.clients_per_round;

  TablePrinter t({"fleet sigma", "method", "wall-clock (s)", "accuracy (%)",
                  "mean staleness"});
  for (double sigma : {0.5, 1.0, 2.0}) {
    FleetConfig fcfg = preset.fleet;
    fcfg.sigma_compute = sigma;
    auto fleet = sample_fleet(fcfg);
    Rng rng(17);
    Model init(preset.initial_model, rng);

    SessionConfig scfg;
    scfg.rounds = updates;
    scfg.clients_per_round = per_round;
    scfg.local = preset.fedtrans.local;
    scfg.seed = preset.fedtrans.seed;
    FederationEngine sync(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
        scfg);
    sync.run();
    double sync_wall = 0.0;
    for (const auto& rec : sync.history()) sync_wall += rec.round_time_s;
    const double sync_acc = mean_client_accuracy(
        sync.strategy_as<FedAvgStrategy>().model(), data);
    t.add_row({fmt_fixed(sigma, 1), "FedAvg (sync)", fmt_fixed(sync_wall, 1),
               fmt_fixed(sync_acc * 100, 2), "0.0"});
    std::cerr << "done: sync sigma=" << sigma << "\n";

    SessionConfig acfg;
    acfg.mode = SessionMode::Async;
    acfg.async.concurrency = per_round;
    acfg.async.buffer_size = per_round;
    acfg.async.aggregations = updates;
    acfg.local = preset.fedtrans.local;
    acfg.seed = preset.fedtrans.seed;
    FederationEngine async_runner(std::make_unique<FedBuffStrategy>(init), data,
                                  fleet, acfg);
    async_runner.run();
    const double async_acc = mean_client_accuracy(
        async_runner.strategy_as<FedBuffStrategy>().model(), data);
    t.add_row({fmt_fixed(sigma, 1), "FedBuff (async)",
               fmt_fixed(async_runner.now_s(), 1),
               fmt_fixed(async_acc * 100, 2),
               fmt_fixed(async_runner.mean_staleness(), 2)});
    std::cerr << "done: async sigma=" << sigma << "\n";
  }
  t.print(std::cout);
  std::cout << "\nshape check: async completes the same update count in "
               "less wall-clock, and the gap widens with fleet "
               "heterogeneity (stragglers stop gating rounds); accuracy "
               "stays comparable at modest staleness.\n";
  return 0;
}
