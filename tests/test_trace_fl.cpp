#include <gtest/gtest.h>

#include "common/check.hpp"
#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "fl/runner.hpp"
#include "fl/server_opt.hpp"
#include "harness/experiments.hpp"
#include "test_util.hpp"
#include "trace/device.hpp"

namespace fedtrans {
namespace {

TEST(Trace, FleetSizeAndDeterminism) {
  FleetConfig cfg;
  cfg.num_devices = 50;
  auto a = sample_fleet(cfg);
  auto b = sample_fleet(cfg);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a[7].compute_macs_per_s, b[7].compute_macs_per_s);
}

TEST(Trace, DisparityAtLeast29xForRealisticFleet) {
  // Paper §5.1: the FedScale trace disparity exceeds 29×. Our log-normal
  // fleet reproduces that at n >= 100.
  FleetConfig cfg;
  cfg.num_devices = 150;
  cfg.sigma_compute = 1.0;
  auto fleet = sample_fleet(cfg);
  EXPECT_GE(fleet_disparity(fleet), 29.0);
}

TEST(Trace, CapacityDerivedFromLatencyBudget) {
  FleetConfig cfg;
  cfg.num_devices = 10;
  cfg.latency_budget_s = 0.01;
  auto fleet = sample_fleet(cfg);
  for (const auto& d : fleet)
    EXPECT_DOUBLE_EQ(d.capacity_macs, d.compute_macs_per_s * 0.01);
}

TEST(Trace, WithMedianCapacityCalibration) {
  FleetConfig cfg;
  cfg.latency_budget_s = 0.004;
  cfg.with_median_capacity(8e5);
  EXPECT_DOUBLE_EQ(cfg.median_compute_macs_per_s, 2e8);
}

TEST(Trace, RoundTimeComputePlusComm) {
  DeviceProfile d;
  d.compute_macs_per_s = 1e6;
  d.bandwidth_bytes_per_s = 1e3;
  // 3*1000*2*5/1e6 + 2*500/1e3 = 0.03 + 1.0
  EXPECT_NEAR(client_round_time_s(d, 1000, 2, 5, 500), 1.03, 1e-9);
}

TEST(Trace, InferenceLatencyMs) {
  DeviceProfile d;
  d.compute_macs_per_s = 2e6;
  EXPECT_DOUBLE_EQ(inference_latency_ms(d, 1e6), 500.0);
}

TEST(Trace, MostCapableFit) {
  DeviceProfile d;
  d.capacity_macs = 100;
  EXPECT_EQ(most_capable_fit(d, {50, 90, 120}), 1);
  EXPECT_EQ(most_capable_fit(d, {120, 200}), -1);
}

DatasetConfig tiny_data(int clients = 8) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 24;
  cfg.min_train_samples = 12;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 5;
  return cfg;
}

std::vector<DeviceProfile> ample_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.with_median_capacity(1e7);
  return sample_fleet(cfg);
}

TEST(LocalTrain, ReducesLossAndReportsDelta) {
  auto data = FederatedDataset::generate(tiny_data());
  Rng rng(3);
  Model model(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  const double before = evaluate_loss(model, data.client(0));
  auto start = model.weights();
  LocalTrainConfig cfg;
  cfg.steps = 40;
  cfg.batch = 8;
  auto res = local_train(model, data.client(0), cfg, rng);
  const double after = evaluate_loss(model, data.client(0));
  EXPECT_LT(after, before);
  EXPECT_EQ(res.num_samples, data.client(0).train_size());
  EXPECT_GT(res.macs_used, 0.0);
  // delta = start - end, elementwise.
  auto end = model.weights();
  for (std::size_t i = 0; i < start.size(); ++i)
    for (std::int64_t j = 0; j < start[i].numel(); ++j)
      EXPECT_NEAR(res.delta[i][j], start[i][j] - end[i][j], 1e-6);
}

TEST(LocalTrain, EmptyClientThrows) {
  Rng rng(4);
  Model model(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  ClientData empty;
  EXPECT_THROW(local_train(model, empty, {}, rng), Error);
}

TEST(FedAvgStrategyTest, LearnsSeparableTask) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = ample_fleet(data.num_clients());
  Rng rng(6);
  SessionConfig cfg;
  cfg.rounds = 15;
  cfg.clients_per_round = 4;
  cfg.local.steps = 10;
  cfg.local.batch = 8;
  cfg.seed = 6;
  FederationEngine runner(
      testing::fedavg(Model(ModelSpec::conv(1, 8, 4, 4, {6}), rng)), data,
      fleet, cfg);
  const Model& model = runner.strategy_as<FedAvgStrategy>().model();
  const double acc0 = mean_client_accuracy(model, data);
  runner.run();
  const double acc1 = mean_client_accuracy(model, data);
  EXPECT_GT(acc1, acc0 + 0.15);
  EXPECT_GT(runner.costs().total_macs(), 0.0);
  EXPECT_EQ(runner.history().size(), 15u);
}

TEST(FedAvgStrategyTest, CostAccountingConsistent) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = ample_fleet(data.num_clients());
  Rng rng(7);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  const double model_bytes = static_cast<double>(init.param_bytes());
  const double model_macs = static_cast<double>(init.macs());
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 5;
  cfg.local.batch = 6;
  FederationEngine runner(testing::fedavg(std::move(init)), data, fleet, cfg);
  runner.run();
  // 3 rounds × 4 clients × (3 × macs × steps × batch).
  EXPECT_NEAR(runner.costs().total_macs(), 12 * 3 * model_macs * 5 * 6, 1.0);
  EXPECT_NEAR(runner.costs().network_bytes(), 12 * 2 * model_bytes, 1.0);
}

TEST(FedAvgStrategyTest, RespectCapacitySkipsWeakClients) {
  auto data = FederatedDataset::generate(tiny_data());
  // All devices too weak for the model.
  std::vector<DeviceProfile> fleet(static_cast<std::size_t>(data.num_clients()));
  for (auto& d : fleet) {
    d.compute_macs_per_s = 1e3;
    d.bandwidth_bytes_per_s = 1e3;
    d.capacity_macs = 1.0;
  }
  Rng rng(8);
  SessionConfig cfg;
  cfg.rounds = 2;
  FedAvgOptions opts;
  opts.respect_capacity = true;
  FederationEngine runner(
      testing::fedavg(Model(ModelSpec::conv(1, 8, 4, 4, {6}), rng), opts),
      data, fleet, cfg);
  runner.run();
  EXPECT_EQ(runner.costs().total_macs(), 0.0);
}

TEST(UniformSelectTest, SelectClientsDistinctAndBounded) {
  Rng rng(9);
  auto sel = uniform_select(10, 4, rng);
  ASSERT_EQ(sel.size(), 4u);
  std::sort(sel.begin(), sel.end());
  EXPECT_EQ(std::unique(sel.begin(), sel.end()), sel.end());
  auto all = uniform_select(3, 10, rng);
  EXPECT_EQ(all.size(), 3u);
}

TEST(ServerOpt, FedAvgAppliesNegativeDelta) {
  WeightSet w{Tensor::from({2}, {1.0f, 2.0f})};
  WeightSet d{Tensor::from({2}, {0.5f, -0.5f})};
  FedAvgServerOpt opt(1.0);
  opt.apply(w, d);
  EXPECT_FLOAT_EQ(w[0][0], 0.5f);
  EXPECT_FLOAT_EQ(w[0][1], 2.5f);
}

TEST(ServerOpt, FedYogiMovesAgainstDelta) {
  WeightSet w{Tensor::from({1}, {1.0f})};
  FedYogiServerOpt opt(/*eta=*/0.1);
  for (int i = 0; i < 5; ++i) {
    WeightSet d{Tensor::from({1}, {1.0f})};
    opt.apply(w, d);
  }
  EXPECT_LT(w[0][0], 1.0f);  // consistent positive delta => weight decreases
}

TEST(ServerOpt, FactoryNames) {
  EXPECT_EQ(make_server_opt(ServerOptKind::FedAvg)->name(), "FedAvg");
  EXPECT_EQ(make_server_opt(ServerOptKind::FedYogi)->name(), "FedYogi");
}

TEST(Weights, SetOperations) {
  WeightSet a{Tensor::from({2}, {1, 2})};
  WeightSet b{Tensor::from({2}, {3, 4})};
  ws_add(a, b);
  EXPECT_FLOAT_EQ(a[0][1], 6.0f);
  ws_sub(a, b);
  ws_scale(a, 2.0f);
  EXPECT_FLOAT_EQ(a[0][0], 2.0f);
  ws_axpy(a, -1.0f, b);
  EXPECT_FLOAT_EQ(a[0][0], -1.0f);
  EXPECT_EQ(ws_numel(a), 2);
  auto z = ws_zeros_like(a);
  EXPECT_EQ(z[0].l2_norm(), 0.0);
  EXPECT_GT(ws_l2_norm(a), 0.0);
}

}  // namespace
}  // namespace fedtrans
