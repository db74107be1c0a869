// Integration tests for FedTrans sessions with the extension knobs: pluggable
// participant selection and alternative server optimizers, plus checkpoint
// interaction with a stateful selector.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/trainer.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 20;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 51;
  return cfg;
}

std::vector<DeviceProfile> fleet_with_capacity(int n, double macs) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = 0.8;
  cfg.seed = 4;
  cfg.with_median_capacity(macs);
  return sample_fleet(cfg);
}

FedTransConfig fast_cfg() {
  FedTransConfig cfg;
  cfg.rounds = 10;
  cfg.clients_per_round = 4;
  cfg.local.steps = 4;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 61;
  return cfg;
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

std::unique_ptr<FederationEngine> fedtrans_engine(
    const FederatedDataset& data, std::vector<DeviceProfile> fleet,
    const FedTransConfig& cfg, SelectorKind selector = SelectorKind::Uniform) {
  return testing::make_engine<FedTransStrategy>(
      data, std::move(fleet),
      SessionConfig::from(cfg).with_selector(selector), tiny_model(), cfg);
}

TEST(TrainerSelectorTest, OortSelectorTrainsAndTransforms) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  auto engine = fedtrans_engine(data, fleet, cfg, SelectorKind::Oort);
  engine->run();
  auto& trainer = engine->strategy_as<FedTransStrategy>();
  EXPECT_GE(trainer.num_models(), 2);
  auto ev = trainer.evaluate_final();
  EXPECT_GT(ev.mean_accuracy, 0.0);
}

TEST(TrainerSelectorTest, SelectorChangesParticipantTrajectory) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto uniform_cfg = fast_cfg();
  auto oort_cfg = fast_cfg();
  auto a = fedtrans_engine(data, fleet, uniform_cfg);
  auto b = fedtrans_engine(data, fleet, oort_cfg, SelectorKind::Oort);
  a->run();
  b->run();
  // Different selection → different training trajectories (loss history).
  bool differs = false;
  for (std::size_t i = 0; i < a->history().size() && !differs; ++i)
    differs = a->history()[i].avg_loss != b->history()[i].avg_loss;
  EXPECT_TRUE(differs);
}

TEST(TrainerSelectorTest, CheckpointRoundTripsOortState) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();

  auto ref = fedtrans_engine(data, fleet, cfg, SelectorKind::Oort);
  for (int r = 0; r < 5; ++r) ref->run_round();
  std::stringstream ss;
  ref->save_checkpoint(ss);
  for (int r = 0; r < 5; ++r) ref->run_round();

  auto resumed = fedtrans_engine(data, fleet, cfg, SelectorKind::Oort);
  resumed->load_checkpoint(ss);
  for (int r = 0; r < 5; ++r) resumed->run_round();

  // Oort's exploration state must be part of the checkpoint, or the resumed
  // trajectory diverges. Compare loss histories exactly.
  ASSERT_EQ(ref->history().size(), resumed->history().size());
  for (std::size_t i = 0; i < ref->history().size(); ++i)
    EXPECT_EQ(ref->history()[i].avg_loss, resumed->history()[i].avg_loss)
        << "round " << i;
}

TEST(TrainerServerOptTest, FedAdamComposesWithFedTrans) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  cfg.server_opt = ServerOptKind::FedAdam;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  EXPECT_GE(engine->strategy_as<FedTransStrategy>().num_models(), 2);
  // Loss must broadly decrease from the first to the last third of rounds.
  const auto& h = engine->history();
  double early = 0.0, late = 0.0;
  const std::size_t third = h.size() / 3;
  for (std::size_t i = 0; i < third; ++i) early += h[i].avg_loss;
  for (std::size_t i = h.size() - third; i < h.size(); ++i)
    late += h[i].avg_loss;
  EXPECT_LT(late, early);
}

TEST(TrainerServerOptTest, EveryServerOptKindRunsToCompletion) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = fleet_with_capacity(8, 5e6);
  for (ServerOptKind kind :
       {ServerOptKind::FedAvg, ServerOptKind::FedAvgM, ServerOptKind::FedYogi,
        ServerOptKind::FedAdam, ServerOptKind::FedAdagrad}) {
    auto cfg = fast_cfg();
    cfg.rounds = 4;
    cfg.server_opt = kind;
    auto engine = fedtrans_engine(data, fleet, cfg);
    engine->run();
    EXPECT_EQ(engine->rounds_done(), 4) << server_opt_name(kind);
  }
}

}  // namespace
}  // namespace fedtrans
