// Determinism invariants: the README promises whole runs replay
// bit-identically from a seed. These tests pin that promise for the
// extension components (async runner, selectors, RNG state transplant).

#include <gtest/gtest.h>

#include <sstream>

#include "fl/runner.hpp"
#include "fl/selection.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data() {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = 10;
  cfg.mean_train_samples = 18;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.seed = 71;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet() {
  FleetConfig cfg;
  cfg.num_devices = 10;
  cfg.seed = 4;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

TEST(DeterminismTest, RngStateTransplantReplaysStream) {
  Rng a(123);
  for (int i = 0; i < 17; ++i) a.next_u64();
  Rng b(999);  // different seed, state overwritten below
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(DeterminismTest, RngStateUnaffectedByReading) {
  Rng a(5);
  const auto s1 = a.state();
  const auto s2 = a.state();
  EXPECT_EQ(s1, s2);
  Rng b(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(DeterminismTest, FedBuffSameSeedSameTrajectory) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet();
  Rng rng(8);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  SessionConfig cfg;
  cfg.with_async(AsyncBlock{3, 2, 5, 0.5});
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 42;

  auto a = testing::make_engine<FedAvgStrategy>(data, fleet, cfg, init,
                                               FedAvgOptions{});
  auto b = testing::make_engine<FedAvgStrategy>(data, fleet, cfg, init,
                                               FedAvgOptions{});
  a->run();
  b->run();
  EXPECT_EQ(a->now_s(), b->now_s());
  auto wa = a->strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b->strategy_as<FedAvgStrategy>().model().weights();
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0);
}

TEST(DeterminismTest, FedBuffDifferentSeedDiverges) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet();
  Rng rng(8);
  Model init(ModelSpec::conv(1, 8, 4, 4, {6}), rng);
  SessionConfig cfg;
  cfg.with_async(AsyncBlock{3, 2, 5, 0.5});
  cfg.local.steps = 3;
  cfg.local.batch = 6;

  cfg.seed = 1;
  auto a = testing::make_engine<FedAvgStrategy>(data, fleet, cfg, init,
                                               FedAvgOptions{});
  cfg.seed = 2;
  auto b = testing::make_engine<FedAvgStrategy>(data, fleet, cfg, init,
                                               FedAvgOptions{});
  a->run();
  b->run();
  double diff = 0.0;
  auto wa = a->strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b->strategy_as<FedAvgStrategy>().model().weights();
  for (std::size_t i = 0; i < wa.size(); ++i)
    diff += testing::max_abs_diff(wa[i], wb[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(DeterminismTest, SelectorsAreDeterministicGivenRngState) {
  for (SelectorKind kind : {SelectorKind::Uniform, SelectorKind::Oort,
                            SelectorKind::PowerOfChoice}) {
    auto sa = make_selector(kind);
    auto sb = make_selector(kind);
    Rng ra(77), rb(77);
    for (int round = 0; round < 8; ++round) {
      auto pa = sa->select(30, 6, ra);
      auto pb = sb->select(30, 6, rb);
      EXPECT_EQ(pa, pb) << sa->name() << " round " << round;
      for (int c : pa) {
        sa->report(c, 0.1 * c, 10);
        sb->report(c, 0.1 * c, 10);
      }
    }
  }
}

TEST(DeterminismTest, OortStateRoundTripPreservesDecisions) {
  OortSelector a;
  Rng seed_rng(13);
  for (int round = 0; round < 5; ++round)
    for (int c : a.select(20, 5, seed_rng)) a.report(c, seed_rng.uniform(), 8);

  std::stringstream ss;
  a.save_state(ss);
  OortSelector b;
  b.load_state(ss);

  Rng ra(99), rb(99);
  for (int round = 0; round < 5; ++round)
    EXPECT_EQ(a.select(20, 5, ra), b.select(20, 5, rb)) << round;
}

}  // namespace
}  // namespace fedtrans
