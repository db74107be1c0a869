// Sharded federation: run FedAvg over a 2-level aggregation tree — the
// root ships one bundled ShardDown frame per shard, leaf aggregators fan
// out to their client partition and forward one bundled PartialUp back —
// and confirm the result is bitwise identical to the flat fabric. Then a
// 3-level tree with numeric partial aggregation (pre-summed PartialUps
// collapse root fan-in to O(branching)) and leaf failover under leaf
// death, a lossy sharded round with the retry policy (bounded resend of
// lost frames), and finally FedBuff's async event loop over the same
// fabric. Every session is one FederationEngine: a Strategy plus a
// SessionConfig that picks the topology, faults and scheduling mode.

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "harness/presets.hpp"
#include "net/server.hpp"

using namespace fedtrans;

namespace {

double max_weight_diff(FederationEngine& a, FederationEngine& b) {
  double max_diff = 0.0;
  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  for (std::size_t i = 0; i < wa.size(); ++i)
    for (std::int64_t j = 0; j < wa[i].numel(); ++j)
      max_diff = std::max(
          max_diff, static_cast<double>(std::abs(wa[i][j] - wb[i][j])));
  return max_diff;
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
  cfg.use_fabric = true;

  // Flat fabric vs the 2-level tree with 4 shards: same wire protocol,
  // same engine reduction, bitwise-identical weights — the tree only
  // changes who talks to whom.
  FederationEngine flat(fedavg(), data, fleet, cfg);
  flat.run();

  SessionConfig sharded_cfg = cfg;
  sharded_cfg.topology.levels = 2;
  sharded_cfg.topology.shards = 4;
  FederationEngine sharded(fedavg(), data, fleet, sharded_cfg);
  sharded.run();

  const double diff = max_weight_diff(flat, sharded);
  std::cout << "flat vs 2x4-sharded fabric max |dw| = " << diff
            << (diff == 0.0 ? "  (bitwise identical)\n" : "  (BUG)\n");
  std::cout << "flat:    " << flat.fabric()->stats().frames_sent.load()
            << " frames on the wire\n"
            << "sharded: " << sharded.fabric()->stats().frames_sent.load()
            << " frames on the wire (bundled ShardDown/PartialUp "
               "replace per-client root traffic)\n\n";

  // A 3-level tree (root → 2 interiors → 4 leaves) with numeric partial
  // aggregation: leaves and interiors pre-sum their updates per reduce
  // group, so the root receives one small group per child instead of
  // every client delta — O(branching) fan-in. Weights match the flat run
  // to numeric tolerance (only float summation order moved).
  SessionConfig numeric_cfg = cfg;
  numeric_cfg.topology.levels = 3;
  numeric_cfg.topology.shards = 4;
  numeric_cfg.topology.branching = 2;
  numeric_cfg.topology.partial_aggregation = true;
  FederationEngine numeric(fedavg(), data, fleet, numeric_cfg);
  numeric.run();
  std::cout << "flat vs 3-level numeric tree max |dw| = "
            << max_weight_diff(flat, numeric)
            << "  (tolerance-equal: the tree pre-sums the reduction)\n"
            << "root fan-in: "
            << fmt_bytes(static_cast<double>(
                   numeric.fabric()->stats().bytes_root_in.load()))
            << " vs "
            << fmt_bytes(static_cast<double>(
                   sharded.fabric()->stats().bytes_root_in.load()))
            << " verbatim\n\n";

  // Per-shard fault domains: a leaf dead for a round has its partition
  // redirected to an alive sibling one ack-timeout later — billed as
  // failover traffic, recorded per round.
  SessionConfig flaky = cfg;
  flaky.topology.levels = 2;
  flaky.topology.shards = 4;
  flaky.fabric_faults.leaf_death_prob = 0.25;
  FederationEngine failover(fedavg(), data, fleet, flaky);
  failover.run();
  int failovers = 0;
  for (const auto& rec : failover.history()) failovers += rec.leaf_failovers;
  std::cout << "25% leaf death over " << flaky.rounds << " rounds: "
            << failovers << " partitions failed over to siblings ("
            << fmt_bytes(static_cast<double>(
                   failover.fabric()->stats().failover_bytes_down.load()))
            << " redirect traffic, billed)\n\n";

  // A hostile network with the retry policy: lost UpdateUps are resent up
  // to max_retries times, ack_timeout_s apart; resends are flagged on the
  // wire, counted in FabricStats and billed through CostMeter.
  SessionConfig lossy = sharded_cfg;
  lossy.fabric_faults.drop_prob = 0.25;
  lossy.fabric_faults.dropout_prob = 0.1;
  lossy.topology.max_retries = 2;
  lossy.topology.ack_timeout_s = 10.0;
  FederationEngine hostile(fedavg(), data, fleet, lossy);
  hostile.run();

  int participants = 0, lost = 0;
  for (const auto& rec : hostile.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  const FabricStats& s = hostile.fabric()->stats();
  std::cout << "lossy sharded fabric (25% loss, 10% dropout, 2 retries): "
            << participants << " updates aggregated, " << lost
            << " lost, " << s.frames_retried.load() << " resends ("
            << fmt_bytes(static_cast<double>(s.retry_bytes_up.load() +
                                             s.retry_bytes_down.load()))
            << " retry traffic)\n\n";

  // FedBuff over the fabric: every dispatch is a one-task round (JoinRound
  // and ModelDown down, UpdateUp back under the retry policy); completions
  // fold in server-side delivery order.
  SessionConfig async_cfg;
  async_cfg.mode = SessionMode::Async;
  async_cfg.async.concurrency = 8;
  async_cfg.async.buffer_size = 4;
  async_cfg.async.aggregations = 10;
  async_cfg.local = preset.fedtrans.local;
  async_cfg.seed = 3;
  async_cfg.use_fabric = true;
  async_cfg.fabric_faults.drop_prob = 0.1;
  async_cfg.topology.max_retries = 2;
  async_cfg.topology.ack_timeout_s = 120.0;

  FederationEngine buff(std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}),
                        data, fleet, async_cfg);
  buff.run();

  TablePrinter t({"version", "loss", "shipped at (s)", "lost"});
  for (const auto& rec : buff.history())
    t.add_row({std::to_string(rec.round), fmt_fixed(rec.avg_loss, 4),
               fmt_fixed(rec.round_time_s, 1),
               std::to_string(rec.lost_updates)});
  std::cout << "fabric-backed FedBuff (10% loss, 2 retries):\n";
  t.print(std::cout);
  std::cout << "mean staleness: " << fmt_fixed(buff.mean_staleness(), 2)
            << " versions, " << buff.fabric()->stats()
                                     .frames_sent.load()
            << " frames on the wire\n";
  return 0;
}
