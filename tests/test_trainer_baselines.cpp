#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.hpp"
#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "core/trainer.hpp"
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
  cfg.rounds = 14;
  cfg.clients_per_round = 5;
  cfg.local.steps = 6;
  cfg.local.batch = 8;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;  // elbow always "reached": forces transformation early
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 21;
  return cfg;
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

std::unique_ptr<FederationEngine> fedtrans_engine(
    const FederatedDataset& data, std::vector<DeviceProfile> fleet,
    const FedTransConfig& cfg) {
  return testing::make_engine<FedTransStrategy>(
      data, std::move(fleet), SessionConfig::from(cfg), tiny_model(), cfg);
}

TEST(FedTransStrategyTest, SpawnsModelsWhenElbowForced) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto engine = fedtrans_engine(data, fleet, fast_cfg());
  engine->run();
  auto& trainer = engine->strategy_as<FedTransStrategy>();
  EXPECT_GE(trainer.num_models(), 2);
  EXPECT_EQ(trainer.transforms_done(), trainer.num_models() - 1);
  // Children are strictly larger.
  for (int i = 1; i < trainer.num_models(); ++i)
    EXPECT_GT(trainer.model(i).macs(), trainer.model(i - 1).macs());
}

TEST(FedTransStrategyTest, NoTransformWhenDisabled) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  cfg.enable_transform = false;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  EXPECT_EQ(engine->strategy_as<FedTransStrategy>().num_models(), 1);
}

TEST(FedTransStrategyTest, RespectsMaxModels) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.rounds = 20;
  cfg.max_models = 2;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  EXPECT_LE(engine->strategy_as<FedTransStrategy>().num_models(), 2);
}

TEST(FedTransStrategyTest, StopsGrowingAtFleetCeiling) {
  auto data = FederatedDataset::generate(tiny_data());
  // Tight fleet: even one doubling overshoots every device.
  Rng tmp(1);
  const double m0 = static_cast<double>(Model(tiny_model(), tmp).macs());
  std::vector<DeviceProfile> fleet(static_cast<std::size_t>(data.num_clients()));
  for (auto& d : fleet) {
    d.compute_macs_per_s = 1e8;
    d.bandwidth_bytes_per_s = 1e6;
    d.capacity_macs = m0 * 1.05;
  }
  auto engine = fedtrans_engine(data, fleet, fast_cfg());
  engine->run();
  // Child would exceed every client.
  EXPECT_EQ(engine->strategy_as<FedTransStrategy>().num_models(), 1);
}

TEST(FedTransStrategyTest, NeverAssignsIncompatibleModels) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto engine = fedtrans_engine(data, fleet, fast_cfg());
  engine->run();
  auto& trainer = engine->strategy_as<FedTransStrategy>();
  auto ev = trainer.evaluate_final();
  const auto& cm = trainer.client_manager();
  for (int c = 0; c < data.num_clients(); ++c) {
    const int k = ev.client_model[static_cast<std::size_t>(c)];
    if (k == 0) continue;  // initial model is the sanctioned fallback
    EXPECT_LE(static_cast<double>(trainer.model(k).macs()), cm.capacity(c));
  }
}

TEST(FedTransStrategyTest, LearnsAndReportsCosts) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  cfg.rounds = 18;
  cfg.local.steps = 10;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  auto ev = engine->strategy_as<FedTransStrategy>().evaluate_final();
  EXPECT_GT(ev.mean_accuracy, 0.3);  // 4 classes, random = 0.25
  EXPECT_GT(engine->costs().total_macs(), 0.0);
  EXPECT_GT(engine->costs().network_bytes(), 0.0);
  EXPECT_GT(engine->costs().storage_bytes(), 0.0);
  EXPECT_EQ(engine->history().size(), 18u);
  EXPECT_EQ(ev.client_accuracy.size(),
            static_cast<std::size_t>(data.num_clients()));
}

TEST(FedTransStrategyTest, AblationFlagsAllRun) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  for (int variant = 0; variant < 5; ++variant) {
    auto cfg = fast_cfg();
    cfg.rounds = 8;
    cfg.enable_layer_selection = variant < 1;
    cfg.enable_soft_agg = variant < 2;
    cfg.enable_warmup = variant < 3;
    cfg.enable_decay = variant < 4;
    cfg.enable_l2s = variant == 4;
    auto engine = fedtrans_engine(data, fleet, cfg);
    EXPECT_NO_THROW(engine->run()) << "variant " << variant;
    EXPECT_NO_THROW(engine->strategy_as<FedTransStrategy>().evaluate_final());
  }
}

TEST(FedTransStrategyTest, DeterministicForSeed) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  cfg.rounds = 6;
  auto ea = fedtrans_engine(data, fleet, cfg);
  auto eb = fedtrans_engine(data, fleet, cfg);
  ea->run();
  eb->run();
  auto& a = ea->strategy_as<FedTransStrategy>();
  auto& b = eb->strategy_as<FedTransStrategy>();
  EXPECT_EQ(a.num_models(), b.num_models());
  EXPECT_DOUBLE_EQ(a.evaluate_final().mean_accuracy,
                   b.evaluate_final().mean_accuracy);
}

// ------------------------------------------------------------ Presets ---

TEST(Presets, ParseScaleRoundTripsAndRejectsUnknownNames) {
  for (Scale s : {Scale::Tiny, Scale::Small, Scale::Full})
    EXPECT_EQ(parse_scale(scale_name(s)), s);
  EXPECT_THROW(parse_scale("Small"), Error);
  try {
    parse_scale("medium");
    ADD_FAILURE() << "\"medium\" parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tiny|small|full"),
              std::string::npos);
  }
}

// ----------------------------------------------------------- HeteroFL ---

TEST(HeteroFL, SubmodelIsPrefixCropOfGlobal) {
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 1e6);
  SessionConfig cfg;
  cfg.rounds = 2;
  auto engine = testing::make_engine<HeteroFLStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 8, {8, 16}));
  auto& runner = engine->strategy_as<HeteroFLStrategy>();
  Model sub = runner.submodel(1);  // half width
  auto pairs = align_params(sub, runner.global());
  ASSERT_FALSE(pairs.empty());
  for (auto& p : pairs)
    for_each_overlap(*p.dst, *p.src, [&](std::int64_t di, std::int64_t si) {
      EXPECT_EQ((*p.dst)[di], (*p.src)[si]);
    });
}

TEST(HeteroFL, LevelAssignmentFitsCapacity) {
  auto data = FederatedDataset::generate(tiny_data(10));
  auto fleet = fleet_with_capacity(data.num_clients(), 3e5);
  SessionConfig cfg;
  auto engine = testing::make_engine<HeteroFLStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 8, {8, 16}));
  auto& runner = engine->strategy_as<HeteroFLStrategy>();
  for (int c = 0; c < data.num_clients(); ++c) {
    const int lvl = runner.level_for(c);
    Model sub = runner.submodel(lvl);
    if (lvl < runner.num_levels() - 1) {  // deepest level is the fallback
      EXPECT_LE(static_cast<double>(sub.macs()),
                fleet[static_cast<std::size_t>(c)].capacity_macs);
    }
  }
}

TEST(HeteroFL, TrainsAndImproves) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 2e6);
  SessionConfig cfg;
  cfg.rounds = 12;
  cfg.clients_per_round = 5;
  cfg.local.steps = 8;
  cfg.local.batch = 8;
  auto engine = testing::make_engine<HeteroFLStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 6, {8, 12}));
  auto& runner = engine->strategy_as<HeteroFLStrategy>();
  auto before =
      baseline_report(*engine, client_accuracy(runner, data)).mean_accuracy;
  engine->run();
  auto rep = baseline_report(*engine, client_accuracy(runner, data));
  EXPECT_GT(rep.mean_accuracy, before);
  EXPECT_GT(rep.costs.total_macs(), 0.0);
}

TEST(HeteroFL, RejectsLaddersNotStrictlyDescending) {
  // level_for takes the first level that fits, so an unordered ladder
  // would put clients on a smaller submodel than they can afford.
  const ModelSpec spec = ModelSpec::conv(1, 8, 4, 4, {6, 8});
  EXPECT_THROW(HeteroFLStrategy(spec, {1.0, 0.25, 0.5}), Error);
  EXPECT_THROW(HeteroFLStrategy(spec, {1.0, 0.5, 0.5}), Error);
  EXPECT_NO_THROW(HeteroFLStrategy(spec, {1.0, 0.5, 0.25}));
}

// --------------------------------------------- width-scaled baselines ---

// The element-map contract of SubmodelStrategy: every element of every
// level's submodel is a copy of one global element, and no two submodel
// elements share one. Numbering the global elements 1..N makes both
// visible in the extracted values.
template <typename S>
void expect_submodels_take_distinct_global_elements() {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = fleet_with_capacity(data.num_clients(), 1e6);
  SessionConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  auto engine = testing::make_engine<S>(data, fleet, cfg,
                                        ModelSpec::conv(1, 8, 4, 6, {8, 12}));
  engine->run();  // FedRolex rolls its window, FLuID re-ranks its channels
  auto& s = engine->template strategy_as<S>();
  WeightSet w = s.global().weights();
  float next = 1.0f;
  for (Tensor& t : w)
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = next++;
  s.global().set_weights(w);
  for (int level = 0; level < s.num_levels(); ++level) {
    Model sub = s.submodel(level);
    std::set<float> seen;
    std::int64_t elements = 0;
    for (const Tensor& t : sub.weights())
      for (std::int64_t i = 0; i < t.numel(); ++i, ++elements) {
        const float v = t[i];
        EXPECT_TRUE(v >= 1.0f && v < next && v == std::floor(v))
            << s.name() << " level " << level << ": " << v
            << " is no global element";
        seen.insert(v);
      }
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), elements)
        << s.name() << " level " << level;
  }
}

TEST(SubmodelStrategies, EveryLevelTakesDistinctGlobalElements) {
  expect_submodels_take_distinct_global_elements<HeteroFLStrategy>();
  expect_submodels_take_distinct_global_elements<FedRolexStrategy>();
  expect_submodels_take_distinct_global_elements<FluidStrategy>();
}

// ----------------------------------------------------------- SplitMix ---

TEST(SplitMix, BudgetClampedToBaseCount) {
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 1e8);
  SessionConfig cfg;
  auto engine = testing::make_engine<SplitMixStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 8, {8, 16}), /*num_bases=*/4);
  auto& runner = engine->strategy_as<SplitMixStrategy>();
  for (int c = 0; c < data.num_clients(); ++c) {
    EXPECT_GE(runner.budget_for(c), 1);
    EXPECT_LE(runner.budget_for(c), 4);
  }
}

TEST(SplitMix, TrainsAndReports) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 2e6);
  SessionConfig cfg;
  cfg.rounds = 8;
  cfg.clients_per_round = 4;
  cfg.local.steps = 6;
  auto engine = testing::make_engine<SplitMixStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 8, {8, 16}), 4);
  engine->run();
  auto rep = baseline_report(
      *engine, client_accuracy(engine->strategy_as<SplitMixStrategy>(), data));
  EXPECT_EQ(rep.client_accuracy.size(),
            static_cast<std::size_t>(data.num_clients()));
  EXPECT_GT(rep.costs.network_bytes(), 0.0);
}

// -------------------------------------------------------------- FLuID ---

TEST(Fluid, RatioRespectsCapacityGrid) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = fleet_with_capacity(data.num_clients(), 5e5);
  SessionConfig cfg;
  auto engine = testing::make_engine<FluidStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 8, {8, 16}));
  auto& runner = engine->strategy_as<FluidStrategy>();
  for (int c = 0; c < data.num_clients(); ++c) {
    const double r = runner.ratio_for(c);
    EXPECT_GE(r, 0.05);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Fluid, ExtractFullRatioEqualsGlobal) {
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  SessionConfig cfg;
  auto engine = testing::make_engine<FluidStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 6, {8, 12}));
  auto& runner = engine->strategy_as<FluidStrategy>();
  // Every client's ratio is 1.0 under this fleet: extraction = identity.
  Rng rng(3);
  Tensor x({2, 1, 8, 8});
  x.randn(rng);
  // ratio 1.0 keeps all channels; outputs must match the global model.
  for (int c = 0; c < 2; ++c) {
    ASSERT_DOUBLE_EQ(runner.ratio_for(c), 1.0);
  }
  engine->run_round();  // also exercises merge with full coverage
  EXPECT_EQ(baseline_report(*engine, client_accuracy(runner, data))
                .client_accuracy.size(),
            static_cast<std::size_t>(data.num_clients()));
}

TEST(Fluid, TrainsAndImproves) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 2e6);
  SessionConfig cfg;
  cfg.rounds = 12;
  cfg.clients_per_round = 5;
  cfg.local.steps = 8;
  auto engine = testing::make_engine<FluidStrategy>(
      data, fleet, cfg, ModelSpec::conv(1, 8, 4, 6, {8, 12}));
  auto& runner = engine->strategy_as<FluidStrategy>();
  auto before =
      baseline_report(*engine, client_accuracy(runner, data)).mean_accuracy;
  engine->run();
  EXPECT_GT(
      baseline_report(*engine, client_accuracy(runner, data)).mean_accuracy,
      before);
}

TEST(Fluid, RejectsNonConvModels) {
  auto data = FederatedDataset::generate(tiny_data(6));
  auto fleet = fleet_with_capacity(data.num_clients(), 1e6);
  SessionConfig cfg;
  EXPECT_THROW(testing::make_engine<FluidStrategy>(
                   data, fleet, cfg, ModelSpec::mlp(64, 4, 8, {16})),
               Error);
}

}  // namespace
}  // namespace fedtrans
