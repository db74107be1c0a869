// Tests for deadline-based over-selection (FedScale-style over-commit):
// the synchronous-round straggler remedy that complements FedTrans's
// capacity-aware assignment (paper Appendix C).

#include <gtest/gtest.h>

#include <algorithm>

#include "fl/runner.hpp"
#include "harness/experiments.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 14) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 18;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 41;
  return cfg;
}

std::vector<DeviceProfile> long_tail_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = 1.8;  // heavy straggler tail
  cfg.seed = 4;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

FedAvgOptions overselect(double overcommit, double deadline_quantile) {
  FedAvgOptions opts;
  opts.overcommit = overcommit;
  opts.deadline_quantile = deadline_quantile;
  return opts;
}

SessionConfig base_cfg() {
  SessionConfig cfg;
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 11;
  return cfg;
}

TEST(OverSelectionTest, DefaultConfigReproducesLegacyRunExactly) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = long_tail_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FederationEngine a(testing::fedavg(init), data, fleet, base_cfg());
  a.run();
  FederationEngine b(
      testing::fedavg(init, overselect(/*overcommit=*/0.0,
                                       /*deadline_quantile=*/1.0)),
      data, fleet, base_cfg());
  b.run();

  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0);
}

TEST(OverSelectionTest, DeadlineCutsRoundTime) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = long_tail_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FederationEngine plain(testing::fedavg(init), data, fleet, base_cfg());
  plain.run();
  double plain_wall = 0.0;
  for (const auto& rec : plain.history()) plain_wall += rec.round_time_s;

  // Drop the slowest ~30%.
  FederationEngine fast(testing::fedavg(init, overselect(0.5, 0.7)), data,
                        fleet, base_cfg());
  fast.run();
  double fast_wall = 0.0;
  for (const auto& rec : fast.history()) fast_wall += rec.round_time_s;

  EXPECT_LT(fast_wall, plain_wall)
      << "dropping the straggler tail must shorten synchronous rounds";
}

TEST(OverSelectionTest, DroppedClientsAreStillBilled) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = long_tail_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig oc = base_cfg();
  oc.rounds = 3;
  // Select 2k, aggregate at most k.
  FederationEngine runner(testing::fedavg(init, overselect(1.0, 0.5)), data,
                          fleet, oc);
  runner.run();

  SessionConfig plain = base_cfg();
  plain.rounds = 3;
  FederationEngine reference(testing::fedavg(init), data, fleet, plain);
  reference.run();

  // Over-commit burns strictly more device compute (late clients train too).
  EXPECT_GT(runner.costs().total_macs(), reference.costs().total_macs());
}

TEST(OverSelectionTest, StillLearnsWithAggressiveDeadline) {
  auto data = FederatedDataset::generate(tiny_data(10));
  auto fleet = long_tail_fleet(10);
  Rng rng(5);
  Model init(tiny_model(), rng);
  FederationEngine probe(testing::fedavg(init), data, fleet, base_cfg());
  const double acc0 =
      mean_client_accuracy(probe.strategy_as<FedAvgStrategy>().model(), data);

  SessionConfig oc = base_cfg();
  oc.rounds = 22;
  oc.clients_per_round = 5;
  oc.local.steps = 6;
  oc.local.batch = 8;
  FederationEngine runner(testing::fedavg(init, overselect(0.6, 0.6)), data,
                          fleet, oc);
  runner.run();
  EXPECT_GT(
      mean_client_accuracy(runner.strategy_as<FedAvgStrategy>().model(), data),
      acc0 + 0.15);
}

TEST(OverSelectionTest, QuantileOneWithOvercommitTrimsToTargetCount) {
  // With a deadline quantile of 1.0 nobody is late; over-commit must still
  // trim the participant list back to clients_per_round (fastest-first).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = long_tail_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  SessionConfig oc = base_cfg();
  oc.rounds = 1;
  FederationEngine runner(testing::fedavg(init, overselect(1.0, 1.0)), data,
                          fleet, oc);
  runner.run();
  // k on-time participants uploaded; the over-committed remainder only
  // downloaded. Uplink < downlink in byte accounting proves the trim.
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double expected_down =
      model_bytes * (2.0 * base_cfg().clients_per_round);
  EXPECT_NEAR(runner.costs().network_bytes(),
              expected_down + model_bytes * base_cfg().clients_per_round,
              1.0);
}

TEST(OverSelectionTest, KeepsTheFastestClientsAtTheirBilledTimes) {
  // Over-commit selects all 8 clients every round and keeps k = 4. The
  // four it keeps, and so the four times the round bills, must be the
  // fleet's four fastest as the ledger times them: at the session's wire
  // width, so half-precision sessions predict half-width transfers.
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = long_tail_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  for (bool half : {false, true}) {
    SessionConfig cfg = base_cfg();
    cfg.clients_per_round = 4;
    if (half) cfg.with_precision(Dtype::F16);
    FederationEngine runner(testing::fedavg(init, overselect(1.0, 1.0)), data,
                            fleet, cfg);
    runner.run();

    const Model& m = runner.strategy_as<FedAvgStrategy>().model();
    std::vector<double> fastest;
    for (const DeviceProfile& d : fleet)
      fastest.push_back(client_round_time_s(
          d, static_cast<double>(m.macs()), cfg.local.steps, cfg.local.batch,
          static_cast<double>(m.param_bytes()) * wire_dtype_scale(cfg)));
    std::sort(fastest.begin(), fastest.end());
    fastest.resize(4);
    const std::vector<double>& billed = runner.costs().client_times_s();
    ASSERT_EQ(billed.size(), 4u * static_cast<std::size_t>(cfg.rounds));
    for (std::size_t r = 0; r < static_cast<std::size_t>(cfg.rounds); ++r) {
      std::vector<double> kept(billed.begin() + 4 * r,
                               billed.begin() + 4 * r + 4);
      std::sort(kept.begin(), kept.end());
      EXPECT_EQ(kept, fastest) << (half ? "fp16" : "fp32") << " round " << r;
    }
  }
}

}  // namespace
}  // namespace fedtrans
