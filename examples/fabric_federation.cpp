// Federation fabric: run FedAvg as a real message-passing system — a
// multithreaded FederationServer broadcasting ModelDown frames over a
// simulated lossy transport to ClientAgent workers — first fault-free
// (bitwise identical to the in-process path), then under message loss,
// duplication, reordering, and mid-round client dropout.

#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"
#include "net/server.hpp"

using namespace fedtrans;

namespace {

void print_history(const FederationEngine& runner) {
  TablePrinter t({"round", "loss", "participants", "lost"});
  for (const auto& rec : runner.history())
    t.add_row({std::to_string(rec.round), fmt_fixed(rec.avg_loss, 4),
               std::to_string(rec.participants),
               std::to_string(rec.lost_updates)});
  t.print(std::cout);
}

}  // namespace

int main() {
  ExperimentPreset preset = femnist_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);
  auto fleet = sample_fleet(preset.fleet);

  Rng rng(7);
  Model init(preset.initial_model, rng);
  auto fedavg = [&] {
    return std::make_unique<FedAvgStrategy>(init, FedAvgOptions{});
  };

  SessionConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = preset.fedtrans.clients_per_round;
  cfg.local = preset.fedtrans.local;
  cfg.seed = 3;

  // In-process reference vs. fault-free fabric: bitwise identical.
  FederationEngine in_proc(fedavg(), data, fleet, cfg);
  in_proc.run();

  SessionConfig fab = cfg;
  fab.use_fabric = true;
  FederationEngine fabric(fedavg(), data, fleet, fab);
  fabric.run();

  double max_diff = 0.0;
  auto wa = in_proc.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = fabric.strategy_as<FedAvgStrategy>().model().weights();
  for (std::size_t i = 0; i < wa.size(); ++i)
    for (std::int64_t j = 0; j < wa[i].numel(); ++j)
      max_diff = std::max(
          max_diff, static_cast<double>(std::abs(wa[i][j] - wb[i][j])));
  std::cout << "fault-free fabric vs in-process max |dw| = " << max_diff
            << (max_diff == 0.0 ? "  (bitwise identical)\n\n" : "  (BUG)\n\n");

  const FabricStats& clean = fabric.fabric()->stats();
  std::cout << "fault-free fabric: " << clean.frames_sent.load()
            << " frames, " << fmt_bytes(static_cast<double>(
                                   clean.bytes_sent.load()))
            << " on the wire\n\n";

  // Same run on a hostile network: drop/duplicate/reorder frames, and let
  // devices vanish mid-round. Rounds still close; losses are accounted.
  SessionConfig lossy = fab;
  lossy.fabric_faults.drop_prob = 0.15;
  lossy.fabric_faults.dup_prob = 0.05;
  lossy.fabric_faults.reorder_prob = 0.1;
  lossy.fabric_faults.dropout_prob = 0.15;
  FedAvgOptions overselect;
  overselect.overcommit = 0.5;         // over-select to absorb the losses
  overselect.deadline_quantile = 0.8;  // close the round at the 80th pct
  FederationEngine hostile(std::make_unique<FedAvgStrategy>(init, overselect),
                           data, fleet, lossy);
  hostile.run();

  std::cout << "lossy fabric (15% loss, 15% dropout, over-commit 1.5x):\n";
  print_history(hostile);

  const FabricStats& s = hostile.fabric()->stats();
  std::cout << "\ntransport: sent " << s.frames_sent.load() << " frames ("
            << fmt_bytes(static_cast<double>(s.bytes_sent.load()))
            << "), dropped " << s.frames_dropped.load() << ", duplicated "
            << s.frames_duplicated.load() << ", reordered "
            << s.frames_reordered.load() << ", client dropouts "
            << s.client_dropouts.load() << "\n";
  const double acc = mean_client_accuracy(
      hostile.strategy_as<FedAvgStrategy>().model(), data);
  std::cout << "final mean client accuracy: " << fmt_fixed(100.0 * acc, 1)
            << "%\n";
  return 0;
}
