// Tests for the FL extension modules: client selection strategies, the
// extended server-optimizer family, the FedBuff asynchronous runner, the
// FedRolex rolling-submodel baseline, the width-scaled baselines' round
// loss, and the probe-vs-deployment check every strategy shares.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/robust.hpp"
#include "baselines/split_mix.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "fl/runner.hpp"
#include "fl/selection.hpp"
#include "harness/experiments.hpp"
#include "model/align.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 22;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 9;
  return cfg;
}

std::vector<DeviceProfile> fleet_with_capacity(int n, double macs,
                                               double sigma = 0.8) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = sigma;
  cfg.seed = 4;
  cfg.with_median_capacity(macs);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

// ---------------------------------------------------------------- selection

TEST(UniformSelectorTest, SelectsDistinctClientsWithinRange) {
  UniformSelector sel;
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    auto picks = sel.select(50, 10, rng);
    EXPECT_EQ(picks.size(), 10u);
    std::set<int> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), picks.size());
    for (int c : picks) EXPECT_TRUE(c >= 0 && c < 50);
  }
}

TEST(UniformSelectorTest, ClampsWhenPopulationSmallerThanK) {
  UniformSelector sel;
  Rng rng(2);
  auto picks = sel.select(3, 10, rng);
  EXPECT_EQ(picks.size(), 3u);
}

TEST(UniformSelectorTest, CoversThePopulationOverManyRounds) {
  UniformSelector sel;
  Rng rng(3);
  std::set<int> seen;
  for (int r = 0; r < 200; ++r)
    for (int c : sel.select(30, 5, rng)) seen.insert(c);
  EXPECT_EQ(seen.size(), 30u);
}

TEST(UniformSelectorTest, RejectsEmptyPopulation) {
  UniformSelector sel;
  Rng rng(4);
  EXPECT_THROW(sel.select(0, 5, rng), Error);
}

TEST(OortSelectorTest, ExploresEveryoneEventually) {
  OortSelector sel;
  Rng rng(5);
  std::set<int> seen;
  for (int r = 0; r < 30; ++r)
    for (int c : sel.select(40, 8, rng)) {
      seen.insert(c);
      sel.report(c, 1.0, 10);
    }
  EXPECT_EQ(seen.size(), 40u);
}

TEST(OortSelectorTest, ExploitsHighUtilityClients) {
  OortSelector sel(OortSelector::Options{/*epsilon=*/0.0,
                                         /*staleness_bonus=*/0.0});
  Rng rng(6);
  // First pass: everyone explored once, client 7 reports a huge loss.
  for (int c = 0; c < 10; ++c) sel.report(c, c == 7 ? 50.0 : 0.1, 16);
  // Mark all as explored by selecting the full population once.
  sel.select(10, 10, rng);
  for (int c = 0; c < 10; ++c) sel.report(c, c == 7 ? 50.0 : 0.1, 16);
  auto picks = sel.select(10, 3, rng);
  EXPECT_TRUE(std::find(picks.begin(), picks.end(), 7) != picks.end())
      << "highest-utility client should be exploited";
}

TEST(OortSelectorTest, UtilityIsLossTimesSqrtSamples) {
  OortSelector sel;
  sel.report(0, 2.0, 16);
  EXPECT_NEAR(sel.utility(0), 2.0 * 4.0, 1e-9);
}

TEST(OortSelectorTest, NonFiniteLossScoresZero) {
  OortSelector sel;
  sel.report(0, std::numeric_limits<double>::quiet_NaN(), 16);
  EXPECT_EQ(sel.utility(0), 0.0);
}

TEST(OortSelectorTest, SelectionsAreDistinct) {
  OortSelector sel;
  Rng rng(7);
  for (int r = 0; r < 10; ++r) {
    auto picks = sel.select(20, 6, rng);
    std::set<int> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), picks.size());
    for (int c : picks) sel.report(c, rng.uniform(), 10);
  }
}

TEST(PowerOfChoiceTest, PrefersHighLossCandidates) {
  PowerOfChoiceSelector sel(/*candidate_factor=*/10);
  Rng rng(8);
  for (int c = 0; c < 10; ++c) sel.report(c, c == 3 ? 9.0 : 0.1, 10);
  // With factor 10 and k=1 the candidate pool is the whole population, so
  // the max-loss client must win.
  auto picks = sel.select(10, 1, rng);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 3);
}

TEST(SelectorFactoryTest, MakesEveryKind) {
  EXPECT_EQ(make_selector(SelectorKind::Uniform)->name(), "uniform");
  EXPECT_EQ(make_selector(SelectorKind::Oort)->name(), "oort");
  EXPECT_EQ(make_selector(SelectorKind::PowerOfChoice)->name(), "pow-d");
}

// ------------------------------------------------------------- server opts

// All server optimizers should reduce a quadratic when fed its gradient as
// the "average delta": apply() must move weights against the delta.
class ServerOptConvergence
    : public ::testing::TestWithParam<ServerOptKind> {};

TEST_P(ServerOptConvergence, DrivesQuadraticTowardMinimum) {
  auto opt = make_server_opt(GetParam());
  WeightSet w{Tensor::from({3}, {4.0f, -3.0f, 2.0f})};
  const double initial = ws_l2_norm(w);
  for (int it = 0; it < 300; ++it) {
    // Gradient of 0.5‖w‖² is w itself; the server treats it as the delta.
    // Momentum kinds oscillate through the minimum (no monotonicity), but
    // every kind must end far closer than it started.
    WeightSet delta{w[0]};
    opt->apply(w, delta);
  }
  // FedAdagrad's steps decay like 1/sqrt(t) — at the default server lr it
  // makes bounded progress by design; the adaptive/momentum kinds converge.
  const double bound = GetParam() == ServerOptKind::FedAdagrad ? 0.85 : 0.2;
  EXPECT_LT(ws_l2_norm(w), bound * initial)
      << server_opt_name(GetParam()) << " failed to reduce the quadratic";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ServerOptConvergence,
    ::testing::Values(ServerOptKind::FedAvg, ServerOptKind::FedAvgM,
                      ServerOptKind::FedYogi, ServerOptKind::FedAdam,
                      ServerOptKind::FedAdagrad),
    [](const ::testing::TestParamInfo<ServerOptKind>& info) {
      return server_opt_name(info.param);
    });

TEST(ServerOptStateTest, SaveLoadRoundTripsAdaptiveState) {
  FedAdamServerOpt a, b;
  WeightSet w{Tensor::from({2}, {1.0f, -2.0f})};
  WeightSet w2 = w;
  for (int it = 0; it < 5; ++it) {
    WeightSet d{w[0]};
    a.apply(w, d);
  }
  std::stringstream ss;
  a.save_state(ss);
  b.load_state(ss);
  // After state transfer, both must produce identical next steps.
  WeightSet wa = w, wb = w;
  WeightSet d{w[0]};
  a.apply(wa, d);
  b.apply(wb, d);
  EXPECT_EQ(testing::max_abs_diff(wa[0], wb[0]), 0.0);
}

TEST(ServerOptStateTest, TruncatedStateThrows) {
  FedYogiServerOpt opt;
  std::stringstream ss;  // empty stream
  EXPECT_THROW(opt.load_state(ss), Error);
}

TEST(ServerOptStateTest, StatelessOptimizerStateIsEmpty) {
  FedAvgServerOpt opt;
  std::stringstream ss;
  opt.save_state(ss);
  EXPECT_TRUE(ss.str().empty());
}

TEST(ServerOptTest, FedAvgMMomentumAcceleratesRepeatedDeltas) {
  FedAvgMServerOpt with_m(1.0, 0.9);
  FedAvgServerOpt without_m(1.0);
  WeightSet wa{Tensor::from({1}, {10.0f})};
  WeightSet wb{Tensor::from({1}, {10.0f})};
  WeightSet d{Tensor::from({1}, {1.0f})};
  for (int it = 0; it < 5; ++it) {
    with_m.apply(wa, d);
    without_m.apply(wb, d);
  }
  // Momentum accumulates: the FedAvgM trajectory moves strictly farther.
  EXPECT_LT(wa[0][0], wb[0][0]);
}

// ------------------------------------------------------------------- async

TEST(FedBuffTest, CompletesRequestedAggregations) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(11);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 4;
  cfg.async.buffer_size = 3;
  cfg.async.aggregations = 6;
  cfg.local.steps = 4;
  cfg.local.batch = 6;
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, cfg);
  runner.run();
  EXPECT_EQ(runner.versions_done(), 6);
  EXPECT_EQ(runner.history().size(), 6u);
  EXPECT_GT(runner.now_s(), 0.0);
  for (const auto& rec : runner.history())
    EXPECT_EQ(rec.participants, cfg.async.buffer_size)
        << "version " << rec.round;
}

TEST(FedBuffTest, WallClockIsMonotone) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(12);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 4;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 8;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, cfg);
  runner.run();
  double prev = 0.0;
  for (const auto& rec : runner.history()) {
    EXPECT_GE(rec.round_time_s, prev);
    prev = rec.round_time_s;
  }
}

TEST(FedBuffTest, FreshRunnerMetersAreZeroNotNan) {
  // Zero-updates guard: every meter must be well-defined on a runner that
  // has not folded in a single update yet (no division by zero / NaN).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(99);
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, SessionConfig{}.with_async(AsyncBlock{}));
  EXPECT_EQ(runner.mean_staleness(), 0.0);
  EXPECT_EQ(runner.versions_done(), 0);
  EXPECT_EQ(runner.now_s(), 0.0);
  EXPECT_TRUE(runner.history().empty());
  EXPECT_EQ(runner.costs().total_macs(), 0.0);
}

TEST(FedBuffTest, StalenessIsBoundedByConcurrencyWindow) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6, /*sigma=*/1.5);
  Rng rng(13);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 6;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 10;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, cfg);
  runner.run();
  // With C in flight and buffer K, an update can be at most
  // ceil(C/K) + aggregations behind only if it never returns; mean
  // staleness must at least be finite and non-negative.
  EXPECT_GE(runner.mean_staleness(), 0.0);
  EXPECT_LE(runner.mean_staleness(), cfg.async.aggregations);
}

TEST(FedBuffTest, LearnsOnSeparableData) {
  auto data = FederatedDataset::generate(tiny_data(10));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(14);
  Model init(tiny_model(), rng);
  const double acc0 = mean_client_accuracy(init, data);

  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 5;
  cfg.async.buffer_size = 5;
  cfg.async.aggregations = 30;
  cfg.local.steps = 8;
  cfg.local.batch = 8;
  cfg.seed = 3;
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();
  EXPECT_GT(
      mean_client_accuracy(runner.strategy_as<FedAvgStrategy>().model(), data),
      acc0 + 0.15)
      << "async training should improve over the random initialization";
}

TEST(FedBuffTest, AsyncBeatsSyncWallClockUnderStragglers) {
  // The headline property (paper Appendix C context): with a highly
  // heterogeneous fleet, synchronous rounds pay the straggler tax; async
  // aggregations ship as fast updates arrive.
  auto data = FederatedDataset::generate(tiny_data(16));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6, /*sigma=*/2.0);
  Rng rng(15);
  Model init(tiny_model(), rng);

  SessionConfig scfg;
  scfg.rounds = 6;
  scfg.clients_per_round = 6;
  scfg.local.steps = 4;
  scfg.local.batch = 6;
  FederationEngine sync(testing::fedavg(init), data, fleet, scfg);
  sync.run();
  double sync_wall = 0.0;
  for (const auto& rec : sync.history()) sync_wall += rec.round_time_s;

  SessionConfig acfg;
  acfg.mode = SessionMode::Async;
  acfg.async.concurrency = 6;
  acfg.async.buffer_size = 6;
  acfg.async.aggregations = 6;  // same number of server updates
  acfg.local.steps = 4;
  acfg.local.batch = 6;
  FederationEngine async_runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      acfg);
  async_runner.run();

  EXPECT_LT(async_runner.now_s(), sync_wall)
      << "async should finish the same number of aggregations sooner";
}

TEST(FedBuffTest, RejectsInvalidConfig) {
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(16);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 0;
  EXPECT_THROW(
      FederationEngine(
          std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                           FedAvgOptions{}),
          data, fleet, cfg),
      Error);
}

SessionConfig small_async_session() {
  SessionConfig cfg;
  cfg.with_async(AsyncBlock{3, 2, 3, 0.5});
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  return cfg;
}

TEST(FedBuffTest, AsyncSessionRefusesSyncOnlyFedAvgOptions) {
  // Compression, over-selection and respect_capacity are read only by a
  // synchronous round; an async session must refuse them, not drop them.
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(17);
  const Model init(tiny_model(), rng);
  FedAvgOptions compressed;
  compressed.compression = CompressionKind::TopK;
  FedAvgOptions overcommit;
  overcommit.overcommit = 0.5;
  FedAvgOptions deadline;
  deadline.deadline_quantile = 0.8;
  FedAvgOptions capacity;
  capacity.respect_capacity = true;
  for (const FedAvgOptions& opts :
       {compressed, overcommit, deadline, capacity})
    EXPECT_THROW(FederationEngine(std::make_unique<FedAvgStrategy>(init, opts),
                                  data, fleet, small_async_session()),
                 Error);
  // The same options build a synchronous session.
  SessionConfig sync = small_async_session();
  sync.mode = SessionMode::Sync;
  FederationEngine ok(std::make_unique<FedAvgStrategy>(init, compressed),
                      data, fleet, sync);
}

TEST(FedBuffTest, StrategiesWithoutAsyncModeFailLoudly) {
  // A shared-model strategy without an async mode builds, then refuses
  // the first arrival instead of running forever without a version.
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(18);
  FederationEngine robust(
      std::make_unique<RobustStrategy>(Model(tiny_model(), rng)), data,
      fleet, small_async_session());
  EXPECT_THROW(robust.run(), Error);
  EXPECT_EQ(robust.versions_done(), 0);
}

TEST(FedBuffTest, MultiModelStrategiesAreRefusedAtConstruction) {
  // A multi-model strategy has no model every client downloads: the
  // engine refuses an async session on it before anything runs.
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FedTransConfig ft;
  EXPECT_THROW(
      FederationEngine(std::make_unique<FedTransStrategy>(tiny_model(), ft),
                       data, fleet, small_async_session()),
      Error);
}

// ---------------------------------------------------------------- FedRolex

TEST(FedRolexTest, OffsetsRollByOneEachRound) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 6;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  EXPECT_EQ(rolex.offset_for_space(0), 0);
  runner.run_round();
  EXPECT_EQ(rolex.offset_for_space(0), 1);
  runner.run_round();
  EXPECT_EQ(rolex.offset_for_space(0), 2);
}

TEST(FedRolexTest, OffsetWrapsAtSpaceWidth) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  SessionConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 2;
  cfg.local.steps = 1;
  cfg.local.batch = 4;
  // tiny_model stem width is 4 → offset cycles with period 4.
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  for (int r = 0; r < 9; ++r) runner.run_round();
  EXPECT_EQ(rolex.offset_for_space(0), 9 % 4);
}

TEST(FedRolexTest, SubmodelWindowMatchesGlobalChannels) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  SessionConfig cfg;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();

  // Level 1 = half width. At round 0 (offset 0) the submodel is the prefix
  // crop, i.e. identical to HeteroFL's extraction.
  Model sub = rolex.submodel(1);
  auto gp = rolex.global().params();
  auto sp = sub.params();
  ASSERT_EQ(gp.size(), sp.size());
  // Stem conv weight: sub rows must equal the first rows of the global.
  const Tensor& gw = *gp[0].value;
  const Tensor& sw = *sp[0].value;
  for (int r = 0; r < sw.dim(0); ++r)
    for (int c = 0; c < sw.dim(1); ++c)
      for (int y = 0; y < sw.dim(2); ++y)
        for (int x = 0; x < sw.dim(3); ++x)
          EXPECT_EQ(sw.at(r, c, y, x), gw.at(r, c, y, x));
}

TEST(FedRolexTest, FullWidthSubmodelIsBijective) {
  // The level-0 (ratio 1.0) submodel is a channel permutation of the global
  // model: same parameter count, same multiset of values per tensor.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  SessionConfig cfg;
  cfg.clients_per_round = 3;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  runner.run_round();  // offset becomes 1 → genuinely rolled
  Model sub = rolex.submodel(0);
  auto gp = rolex.global().params();
  auto sp = sub.params();
  for (std::size_t i = 0; i < gp.size(); ++i) {
    ASSERT_TRUE(gp[i].value->same_shape(*sp[i].value));
    std::multiset<float> a, b;
    for (std::int64_t j = 0; j < gp[i].value->numel(); ++j) {
      a.insert((*gp[i].value)[j]);
      b.insert((*sp[i].value)[j]);
    }
    EXPECT_EQ(a, b) << "param " << i << " not a permutation";
  }
}

TEST(FedRolexTest, EveryGlobalChannelEventuallyTrains) {
  // HeteroFL's pathology: suffix channels only ever see full-width clients.
  // FedRolex's rolling window must touch ALL stem rows even when every
  // client runs the half-width submodel.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1.0);  // tiny caps →
                                                              // weakest level
  SessionConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  auto before = rolex.global().weights();
  runner.run();
  auto after = rolex.global().weights();
  // Stem conv weight rows: every row must have changed in ≥1 element.
  const Tensor& b0 = before[0];
  const Tensor& a0 = after[0];
  const int rows = b0.dim(0);
  const std::int64_t per_row = b0.numel() / rows;
  for (int r = 0; r < rows; ++r) {
    double diff = 0.0;
    for (std::int64_t j = 0; j < per_row; ++j)
      diff += std::fabs(a0[r * per_row + j] - b0[r * per_row + j]);
    EXPECT_GT(diff, 0.0) << "row " << r << " never trained";
  }
}

TEST(FedRolexTest, LevelAssignmentRespectsCapacity) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6, /*sigma=*/1.5);
  SessionConfig cfg;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  for (int c = 0; c < data.num_clients(); ++c) {
    const int lvl = rolex.level_for(c);
    Model sub = rolex.submodel(lvl);
    if (lvl < rolex.num_levels() - 1) {
      EXPECT_LE(static_cast<double>(sub.macs()),
                fleet[static_cast<std::size_t>(c)].capacity_macs);
    }
  }
}

TEST(FedRolexTest, LearnsOnSeparableData) {
  auto data = FederatedDataset::generate(tiny_data(10));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  SessionConfig cfg;
  cfg.rounds = 25;
  cfg.clients_per_round = 5;
  cfg.local.steps = 8;
  cfg.local.batch = 8;
  cfg.seed = 5;
  FederationEngine runner(std::make_unique<FedRolexStrategy>(tiny_model()),
                          data, fleet, cfg);
  auto& rolex = runner.strategy_as<FedRolexStrategy>();
  auto rep_before = baseline_report(runner, client_accuracy(rolex, data));
  runner.run();
  auto rep_after = baseline_report(runner, client_accuracy(rolex, data));
  EXPECT_GT(rep_after.mean_accuracy, rep_before.mean_accuracy + 0.1);
}

TEST(FedRolexTest, RejectsAttentionModels) {
  auto vit = ModelSpec::attention(1, 8, 4, 2, 8, {16});
  EXPECT_THROW(FedRolexStrategy{vit}, Error);
}

TEST(FedRolexTest, RejectsRatiosNotStartingAtOne) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  EXPECT_THROW(
      FederationEngine(std::make_unique<FedRolexStrategy>(
                           tiny_model(), std::vector<double>{0.5, 0.25}),
                       data, fleet, SessionConfig{}),
      Error);
}

TEST(FedRolexTest, RejectsLaddersNotStrictlyDescending) {
  // level_for takes the first level that fits, so an unordered ladder
  // would put clients on a smaller submodel than they can afford.
  EXPECT_THROW(FedRolexStrategy(tiny_model(), {1.0, 0.25, 0.5}), Error);
  EXPECT_THROW(FedRolexStrategy(tiny_model(), {1.0, 0.5, 0.5}), Error);
  EXPECT_NO_THROW(FedRolexStrategy(tiny_model(), {1.0, 0.5, 0.25}));
}

// -------------------------------------------------- width-scaled baselines

/// Forwards the hooks of a verbatim synchronous session without probes to
/// the wrapped strategy, and records per round the mean loss of the updates
/// it absorbed.
class AbsorbedLossRecorder : public Strategy {
 public:
  explicit AbsorbedLossRecorder(std::unique_ptr<Strategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void attach(RoundContext& ctx, Rng& rng) override {
    inner_->attach(ctx, rng);
  }
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override {
    losses_.clear();
    return inner_->plan_round(ctx, rng);
  }
  void prepare_task(ClientTask& task, Rng& rng, RoundContext& ctx) override {
    inner_->prepare_task(task, rng, ctx);
  }
  Model client_payload(const ClientTask& task) override {
    return inner_->client_payload(task);
  }
  Model* shared_model() override { return inner_->shared_model(); }
  int payload_key(const ClientTask& task) const override {
    return inner_->payload_key(task);
  }
  const Model& reference_model() const override {
    return inner_->reference_model();
  }
  double initial_storage_bytes() const override {
    return inner_->initial_storage_bytes();
  }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override {
    losses_.push_back(res.avg_loss);
    inner_->absorb_update(task, trained, res, ctx);
  }
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override {
    inner_->lost_update(task, outcome, ctx);
  }
  void finish_round(RoundContext& ctx, RoundRecord& rec) override {
    inner_->finish_round(ctx, rec);
    round_means_.push_back(mean(losses_));
  }

  const std::vector<double>& round_means() const { return round_means_; }

 private:
  std::unique_ptr<Strategy> inner_;
  std::vector<double> losses_;
  std::vector<double> round_means_;
};

template <typename S>
void expect_round_loss_averages_absorbed_updates() {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1.5e5);
  FaultConfig faults;
  faults.dropout_prob = 0.35;
  SessionConfig cfg = SessionConfig{}.with_fabric(faults);
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 8;
  cfg.seed = 3;
  FederationEngine engine(std::make_unique<AbsorbedLossRecorder>(
                              std::make_unique<S>(tiny_model())),
                          data, fleet, cfg);
  engine.run();
  const auto& means =
      engine.strategy_as<AbsorbedLossRecorder>().round_means();
  int lost = 0;
  for (const RoundRecord& rec : engine.history()) {
    lost += rec.lost_updates;
    EXPECT_DOUBLE_EQ(rec.avg_loss, means[static_cast<std::size_t>(rec.round)])
        << engine.strategy().name() << ", round " << rec.round << " lost "
        << rec.lost_updates << " of " << rec.participants + rec.lost_updates;
  }
  EXPECT_GT(lost, 0) << "the faults should drop some updates";
}

TEST(SubmodelBaselinesTest, RoundLossAveragesTheAbsorbedUpdates) {
  // A lost update reports no loss, so the round mean must not count it.
  expect_round_loss_averages_absorbed_updates<HeteroFLStrategy>();
  expect_round_loss_averages_absorbed_updates<FedRolexStrategy>();
  expect_round_loss_averages_absorbed_updates<FluidStrategy>();
}

// ------------------------------------------------ probe vs deployment

/// Run `strategy` with the session's probes covering every client, then
/// check that the last probe read the mean of what the strategy deploys
/// once the run ends. The session must probe its last round.
std::unique_ptr<FederationEngine> expect_last_probe_scores_deployment(
    std::unique_ptr<Strategy> strategy, const ClientDataProvider& data,
    std::vector<DeviceProfile> fleet, SessionConfig cfg) {
  cfg.eval_clients = 0;  // probe every client
  auto engine = std::make_unique<FederationEngine>(
      std::move(strategy), data, std::move(fleet), cfg);
  engine->run();
  const double probed = engine->history().back().accuracy;
  EXPECT_GE(probed, 0.0) << "the last round was not probed";
  EXPECT_DOUBLE_EQ(probed, mean(client_accuracy(engine->strategy(), data)))
      << engine->strategy().name() << ", seed " << cfg.seed << ", "
      << engine->history().size() << " rounds";
  return engine;
}

SessionConfig probed_every_round(std::uint64_t seed, int rounds) {
  SessionConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 5;
  cfg.local.steps = 6;
  cfg.local.batch = 8;
  cfg.eval_every = 1;
  cfg.seed = seed;
  return cfg;
}

TEST(SubmodelBaselinesTest, LastProbeScoresTheDeployedSubmodels) {
  // The periodic probe runs after finish_round, so it must score the
  // submodels the harness deploys once the run ends. FedRolex once probed
  // the window it had just trained, one round behind its deployment.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1.5e5);
  for (std::uint64_t seed : {1ULL, 2ULL})
    for (int rounds : {4, 6}) {
      const SessionConfig cfg = probed_every_round(seed, rounds);
      expect_last_probe_scores_deployment(
          std::make_unique<HeteroFLStrategy>(tiny_model()), data, fleet, cfg);
      expect_last_probe_scores_deployment(
          std::make_unique<FedRolexStrategy>(tiny_model()), data, fleet, cfg);
      expect_last_probe_scores_deployment(
          std::make_unique<FluidStrategy>(tiny_model()), data, fleet, cfg);
    }
}

TEST(DeploymentProbeTest, LastProbeScoresSharedModelsAndSplitMixEnsembles) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1.5e5);
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const SessionConfig cfg = probed_every_round(seed, 4);
    Rng rng(seed);
    expect_last_probe_scores_deployment(
        std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                         FedAvgOptions{}),
        data, fleet, cfg);
    RobustConfig trimmed;
    trimmed.aggregator = RobustAggregator::TrimmedMean;
    expect_last_probe_scores_deployment(
        std::make_unique<RobustStrategy>(Model(tiny_model(), rng), trimmed),
        data, fleet, cfg);
    auto splitmix = expect_last_probe_scores_deployment(
        std::make_unique<SplitMixStrategy>(tiny_model()), data, fleet, cfg);
    auto& sm = splitmix->strategy_as<SplitMixStrategy>();
    int ensembles = 0;
    for (int c = 0; c < data.num_clients(); ++c)
      ensembles += sm.budget_for(c) > 1 ? 1 : 0;
    EXPECT_GT(ensembles, 0) << "some client should ensemble several bases";

    // FedBuff probes by shipped server version; 6 versions, every 3rd
    // probed, so the last one is.
    SessionConfig async = cfg;
    async.mode = SessionMode::Async;
    async.async.concurrency = 4;
    async.async.buffer_size = 3;
    async.async.aggregations = 6;
    async.eval_every = 3;
    expect_last_probe_scores_deployment(
        std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                         FedAvgOptions{}),
        data, fleet, async);
  }
}

TEST(FedTransDeploymentTest, LastProbeScoresTheFinalAssignment) {
  // FedTrans deploys the family member cfg.final_assignment picks, so its
  // probe must score that choice. Under LossProbe the pick can differ from
  // the utility-best member only once the family has grown.
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const auto p = cifar_like(Scale::Tiny, seed);
    auto data = FederatedDataset::generate(p.dataset);
    for (auto assignment : {FedTransConfig::FinalAssignment::LossProbe,
                            FedTransConfig::FinalAssignment::Utility}) {
      FedTransConfig ft = p.fedtrans;
      ft.final_assignment = assignment;
      SessionConfig cfg = SessionConfig::from(ft);
      cfg.eval_every = cfg.rounds - 1;  // probes the first and last rounds
      auto engine = expect_last_probe_scores_deployment(
          std::make_unique<FedTransStrategy>(p.initial_model, ft), data,
          sample_fleet(p.fleet), cfg);
      auto& s = engine->strategy_as<FedTransStrategy>();
      EXPECT_GT(s.num_models(), 1) << "the family should grow, seed " << seed;
      EXPECT_DOUBLE_EQ(engine->history().back().accuracy,
                       s.evaluate_final().mean_accuracy)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace fedtrans
