#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "fl/runner.hpp"
#include "model/transform.hpp"

namespace fedtrans {
namespace {

// Failure injection / degenerate-input behaviour: the library must fail
// loudly on contract violations and keep running on survivable weirdness.

TEST(FailureModes, TrainerRejectsFleetSizeMismatch) {
  DatasetConfig dcfg;
  dcfg.num_clients = 5;
  dcfg.num_classes = 3;
  dcfg.hw = 8;
  auto data = FederatedDataset::generate(dcfg);
  std::vector<DeviceProfile> fleet(3);  // wrong size
  FedTransConfig cfg;
  EXPECT_THROW(FederationEngine(std::make_unique<FedTransStrategy>(
                                    ModelSpec::conv(1, 8, 3, 4, {6}), cfg),
                                data, fleet, SessionConfig::from(cfg)),
               Error);
}

TEST(FailureModes, SingleClientFleetStillRuns) {
  DatasetConfig dcfg;
  dcfg.num_clients = 1;
  dcfg.num_classes = 3;
  dcfg.hw = 8;
  dcfg.mean_train_samples = 16;
  auto data = FederatedDataset::generate(dcfg);
  std::vector<DeviceProfile> fleet(1);
  fleet[0].capacity_macs = 1e9;
  FedTransConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 3;  // more than exist: clamped
  cfg.local.steps = 3;
  FederationEngine engine(
      std::make_unique<FedTransStrategy>(ModelSpec::conv(1, 8, 3, 4, {6}), cfg),
      data, fleet, SessionConfig::from(cfg));
  EXPECT_NO_THROW(engine.run());
  auto ev = engine.strategy_as<FedTransStrategy>().evaluate_final();
  EXPECT_EQ(ev.client_accuracy.size(), 1u);
}

TEST(FailureModes, AllClientsIncompatibleFallBackToInitialModel) {
  DatasetConfig dcfg;
  dcfg.num_clients = 6;
  dcfg.num_classes = 3;
  dcfg.hw = 8;
  auto data = FederatedDataset::generate(dcfg);
  std::vector<DeviceProfile> fleet(6);
  for (auto& d : fleet) {
    d.capacity_macs = 1.0;  // nothing fits
    d.compute_macs_per_s = 1e6;
    d.bandwidth_bytes_per_s = 1e4;
  }
  FedTransConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 3;
  cfg.local.steps = 2;
  FederationEngine engine(
      std::make_unique<FedTransStrategy>(ModelSpec::conv(1, 8, 3, 4, {6}), cfg),
      data, fleet, SessionConfig::from(cfg));
  EXPECT_NO_THROW(engine.run());
  auto ev = engine.strategy_as<FedTransStrategy>().evaluate_final();
  for (int m : ev.client_model) EXPECT_EQ(m, 0);
}

TEST(FailureModes, ZeroVarianceLossesAreSafe) {
  // standardize() of identical losses returns zeros — utilities unchanged.
  std::vector<double> losses{1.5, 1.5, 1.5};
  const auto z = standardize(losses);
  for (double v : z) EXPECT_EQ(v, 0.0);
}

TEST(FailureModes, DegenerateDatasetMinimums) {
  DatasetConfig dcfg;
  dcfg.num_clients = 2;
  dcfg.num_classes = 2;
  dcfg.hw = 4;               // smallest sane resolution
  dcfg.min_train_samples = 1;
  dcfg.mean_train_samples = 1;
  dcfg.eval_samples = 1;
  auto data = FederatedDataset::generate(dcfg);
  EXPECT_GE(data.client(0).train_size(), 1);
  EXPECT_EQ(data.client(0).eval_size(), 1);
}

TEST(FailureModes, TransformOnSingleCellModel) {
  Rng rng(5);
  Model parent(ModelSpec::conv(1, 8, 3, 4, {6}), rng);
  // Both operations must work when there is only one cell.
  EXPECT_NO_THROW(widen_cell(parent, 0, 2.0, 1, rng));
  EXPECT_NO_THROW(deepen_cell(parent, 0, 1, 2, rng));
}

TEST(FailureModes, RepeatedTransformationsStayFunctionPreserving) {
  // Chain 4 transformations; the composite must still match the original.
  Rng rng(6);
  Model m0(ModelSpec::conv(1, 8, 3, 4, {6, 8}), rng);
  Tensor x({2, 1, 8, 8});
  x.randn(rng);
  Tensor y0 = m0.forward(x, false);

  Model m1 = widen_cell(m0, 0, 1.5, 1, rng);
  Model m2 = deepen_cell(m1, 1, 1, 2, rng);
  Model m3 = widen_cell(m2, 2, 2.0, 3, rng);
  Model m4 = deepen_cell(m3, 0, 2, 4, rng);
  Tensor y4 = m4.forward(x, false);
  for (std::int64_t i = 0; i < y0.numel(); ++i)
    EXPECT_NEAR(y0[i], y4[i], 2e-3) << "chained transforms diverged at " << i;
}

TEST(FailureModes, SessionWithZeroRoundsIsNoOp) {
  DatasetConfig dcfg;
  dcfg.num_clients = 4;
  dcfg.num_classes = 3;
  dcfg.hw = 8;
  auto data = FederatedDataset::generate(dcfg);
  std::vector<DeviceProfile> fleet(4);
  for (auto& d : fleet) d.capacity_macs = 1e9;
  Rng rng(7);
  SessionConfig cfg;
  cfg.rounds = 0;
  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(
          Model(ModelSpec::conv(1, 8, 3, 4, {6}), rng), FedAvgOptions{}),
      data, fleet, cfg);
  engine.run();
  EXPECT_EQ(engine.history().size(), 0u);
  EXPECT_EQ(engine.costs().total_macs(), 0.0);
}

}  // namespace
}  // namespace fedtrans
