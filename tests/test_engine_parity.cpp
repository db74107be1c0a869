// Engine/Strategy parity tests:
//
//  (1) async sessions honor eval_every;
//  (2) fault-free fabric rounds are bitwise identical to the in-process
//      path for non-FedAvg strategies too (the heterogeneous submodels of
//      HeteroFL, FedRolex and FLuID, SplitMix's multiple tasks per client,
//      FedTrans's model family), and faulty runs still terminate with
//      losses accounted;
//  (3) the layered SessionConfig shared block is the single definition of
//      the runtime fields;
//  (4) the RoundObserver callback API reports exactly the records the
//      history collects.

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/async.hpp"
#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 10) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 14;
  cfg.min_train_samples = 8;
  cfg.eval_samples = 6;
  cfg.noise = 0.35;
  cfg.seed = 31;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n, double macs = 5e6,
                                      std::uint64_t seed = 6) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = 0.8;
  cfg.seed = seed;
  cfg.with_median_capacity(macs);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

void expect_same_weights(WeightSet wa, WeightSet wb, const char* what) {
  ASSERT_EQ(wa.size(), wb.size()) << what;
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
        << what << " tensor " << i;
}

void expect_same_history(const std::vector<RoundRecord>& ha,
                         const std::vector<RoundRecord>& hb) {
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t r = 0; r < ha.size(); ++r) {
    EXPECT_EQ(ha[r].round, hb[r].round);
    EXPECT_EQ(ha[r].avg_loss, hb[r].avg_loss) << "round " << r;
    EXPECT_EQ(ha[r].cum_macs, hb[r].cum_macs) << "round " << r;
    EXPECT_EQ(ha[r].round_time_s, hb[r].round_time_s) << "round " << r;
    EXPECT_EQ(ha[r].accuracy, hb[r].accuracy) << "round " << r;
    EXPECT_EQ(ha[r].participants, hb[r].participants) << "round " << r;
    EXPECT_EQ(ha[r].lost_updates, hb[r].lost_updates) << "round " << r;
  }
}

void expect_same_costs(const CostMeter& a, const CostMeter& b) {
  EXPECT_EQ(a.total_macs(), b.total_macs());
  EXPECT_EQ(a.network_bytes(), b.network_bytes());
  EXPECT_EQ(a.storage_bytes(), b.storage_bytes());
}

SessionConfig baseline_cfg(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 5;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// (1) eval_every is honored in async mode too: every k-th shipped server
// version carries an accuracy probe, the rest keep the -1 sentinel.
TEST(EngineParity, AsyncSessionHonorsEvalEvery) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  SessionConfig cfg;
  cfg.with_async(AsyncBlock{4, 3, 6, 0.5});
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 5;
  cfg.eval_every = 2;
  cfg.eval_clients = 4;
  Rng rng(cfg.seed + 1);
  Model init(tiny_model(), rng);

  FederationEngine engine(std::make_unique<FedBuffStrategy>(init), data,
                          fleet, cfg);
  engine.run();

  ASSERT_EQ(engine.history().size(), 6u);
  for (const RoundRecord& rec : engine.history()) {
    if (rec.round % cfg.eval_every == 0) {
      EXPECT_GE(rec.accuracy, 0.0) << "version " << rec.round;
    } else {
      EXPECT_EQ(rec.accuracy, -1.0) << "version " << rec.round;
    }
  }
}

// ---------------------------------------------------------------------------
// (2) Fabric parity beyond FedAvg: heterogeneous submodels, multiple tasks
// per client, and model families all ride the wire bit-exactly.

template <typename MakeEngine>
void expect_fabric_parity(MakeEngine&& make) {
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {7ULL, 19ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      auto a = make(seed, /*use_fabric=*/false);
      auto b = make(seed, /*use_fabric=*/true);
      a->run();
      b->run();
      ASSERT_NE(b->fabric(), nullptr);
      EXPECT_EQ(b->fabric()->stats().frames_dropped.load(), 0u);
      EXPECT_EQ(b->fabric()->stats().frames_rejected.load(), 0u)
          << "undecodable frames on a clean transport mean a codec bug";
      expect_same_history(a->history(), b->history());
      expect_same_costs(a->costs(), b->costs());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(FabricStrategyParity, HeteroFLFabricMatchesInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), 1e6);
  expect_fabric_parity([&](std::uint64_t seed, bool use_fabric) {
    auto cfg = baseline_cfg(seed);
    cfg.use_fabric = use_fabric;
    return testing::make_engine<HeteroFLStrategy>(data, fleet, cfg,
                                                  tiny_model());
  });
  // Weight-level check on one configuration.
  auto cfg = baseline_cfg(7);
  auto a = testing::make_engine<HeteroFLStrategy>(data, fleet, cfg,
                                                  tiny_model());
  cfg.use_fabric = true;
  auto b = testing::make_engine<HeteroFLStrategy>(data, fleet, cfg,
                                                  tiny_model());
  a->run();
  b->run();
  expect_same_weights(a->strategy_as<HeteroFLStrategy>().global().weights(),
                      b->strategy_as<HeteroFLStrategy>().global().weights(),
                      "heterofl fabric");
}

// The width-scaled baselines at a fleet median of 2e4 MACs, where clients
// spread over several levels: HeteroFL's prefix crops, FedRolex's rolled
// windows and FLuID's ranked channel subsets all cross the wire.
template <typename S>
void expect_submodel_fabric_parity(const char* what) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), 2e4);
  auto make = [&](std::uint64_t seed, bool use_fabric) {
    auto cfg = baseline_cfg(seed);
    cfg.use_fabric = use_fabric;
    return testing::make_engine<S>(data, fleet, cfg, tiny_model());
  };
  expect_fabric_parity(make);
  auto a = make(7, false);
  auto b = make(7, true);
  auto& sa = a->template strategy_as<S>();
  std::set<int> levels;
  for (int c = 0; c < data.num_clients(); ++c) levels.insert(sa.level_for(c));
  EXPECT_GT(levels.size(), 1u) << what << ": clients share one level";
  a->run();
  b->run();
  expect_same_weights(sa.global().weights(),
                      b->template strategy_as<S>().global().weights(), what);
}

TEST(FabricStrategyParity, SubmodelBaselinesAcrossLevelsMatchInProcess) {
  expect_submodel_fabric_parity<HeteroFLStrategy>("heterofl fabric");
  expect_submodel_fabric_parity<FedRolexStrategy>("fedrolex fabric");
  expect_submodel_fabric_parity<FluidStrategy>("fluid fabric");
}

TEST(FabricStrategyParity, SplitMixFabricMatchesInProcessBitwise) {
  // SplitMix schedules several tasks per client per round — exercises the
  // wire protocol's per-task slots (one client trains multiple payloads).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), 1e7);
  expect_fabric_parity([&](std::uint64_t seed, bool use_fabric) {
    auto cfg = baseline_cfg(seed);
    cfg.use_fabric = use_fabric;
    return testing::make_engine<SplitMixStrategy>(data, fleet, cfg,
                                                  tiny_model(), 4);
  });
}

TEST(FabricStrategyParity, FedTransFabricMatchesInProcessBitwise) {
  // The full multi-model coordinator over the fabric: per-client payloads
  // are members of a *growing* model family, shipped spec+weights.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();
  for (int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    FedTransConfig cfg;
    cfg.rounds = 6;
    cfg.clients_per_round = 4;
    cfg.local.steps = 3;
    cfg.local.batch = 6;
    cfg.gamma = 2;
    cfg.doc_delta = 2;
    cfg.beta = 10.0;
    cfg.act_window = 2;
    cfg.max_models = 3;
    cfg.seed = 13;

    SessionConfig session = SessionConfig::from(cfg);
    auto ea = testing::make_engine<FedTransStrategy>(data, fleet, session,
                                                     tiny_model(), cfg);
    session.use_fabric = true;
    auto eb = testing::make_engine<FedTransStrategy>(data, fleet, session,
                                                     tiny_model(), cfg);
    ea->run();
    eb->run();
    auto& a = ea->strategy_as<FedTransStrategy>();
    auto& b = eb->strategy_as<FedTransStrategy>();

    ASSERT_NE(eb->fabric(), nullptr);
    ASSERT_EQ(a.num_models(), b.num_models());
    EXPECT_GE(a.num_models(), 2) << "transformation should have fired";
    for (int k = 0; k < a.num_models(); ++k)
      expect_same_weights(a.model(k).weights(), b.model(k).weights(),
                          "fedtrans fabric model");
    expect_same_history(ea->history(), eb->history());
    expect_same_costs(ea->costs(), eb->costs());
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(FabricStrategyParity, HeteroFLFaultyRunTerminatesAndAccountsLosses) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), 1e6);
  auto cfg = baseline_cfg(3);
  cfg.rounds = 5;
  cfg.clients_per_round = 5;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.25;
  cfg.fabric_faults.dropout_prob = 0.25;
  cfg.fabric_faults.seed = 99;

  auto engine = testing::make_engine<HeteroFLStrategy>(data, fleet, cfg,
                                                       tiny_model());
  engine->run();  // must terminate despite losses

  ASSERT_EQ(engine->history().size(), static_cast<std::size_t>(cfg.rounds));
  int participants = 0, lost = 0;
  for (const auto& rec : engine->history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0) << "some updates must still get through";
  EXPECT_GT(lost, 0) << "heavy fault injection must lose some updates";
  ASSERT_NE(engine->fabric(), nullptr);
  EXPECT_GT(engine->fabric()->stats().frames_dropped.load(), 0u);
  EXPECT_EQ(engine->fabric()->stats().frames_rejected.load(), 0u);
}

// ---------------------------------------------------------------------------
// (3) Layered config: the shared block is the single definition.

static_assert(std::is_base_of_v<SessionRuntime, SessionConfig>);
// FedTransConfig carries only the runtime block; engine-level knobs live on
// the SessionConfig the engine runs with.
static_assert(std::is_base_of_v<SessionRuntime, FedTransConfig>);
static_assert(!std::is_base_of_v<SessionConfig, FedTransConfig>);

TEST(SessionConfigTest, DefaultsMatchLegacyDefaults) {
  EXPECT_EQ(FedTransConfig{}.rounds, 60);
  EXPECT_EQ(SessionConfig{}.eval_clients, 32);
}

TEST(SessionConfigTest, FluentBuilderComposes) {
  const auto cfg = SessionConfig{}
                       .with_rounds(12)
                       .with_clients_per_round(6)
                       .with_eval(3, 8)
                       .with_seed(42)
                       .with_selector(SelectorKind::PowerOfChoice)
                       .with_fabric();
  EXPECT_EQ(cfg.rounds, 12);
  EXPECT_EQ(cfg.clients_per_round, 6);
  EXPECT_EQ(cfg.eval_every, 3);
  EXPECT_EQ(cfg.eval_clients, 8);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.selector, SelectorKind::PowerOfChoice);
  EXPECT_TRUE(cfg.use_fabric);
  EXPECT_EQ(cfg.mode, SessionMode::Sync);
}

// ---------------------------------------------------------------------------
// (4) RoundObserver: the structured replacement for ad-hoc history
// plumbing.

class CountingObserver : public RoundObserver {
 public:
  void on_round_start(int round) override { starts.push_back(round); }
  void on_round_end(const RoundRecord& rec) override {
    records.push_back(rec);
  }
  std::vector<int> starts;
  std::vector<RoundRecord> records;
};

TEST(RoundObserverTest, ObserverSeesEveryRoundRecord) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 3;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.eval_every = 2;
  cfg.seed = 9;
  Rng rng(2);

  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, cfg);

  CountingObserver obs;
  engine.add_observer(&obs);
  int callback_rounds = 0;
  engine.on_round([&](const RoundRecord&) { ++callback_rounds; });
  engine.run();

  ASSERT_EQ(obs.records.size(), engine.history().size());
  ASSERT_EQ(obs.starts.size(), engine.history().size());
  EXPECT_EQ(callback_rounds, cfg.rounds);
  for (std::size_t r = 0; r < obs.records.size(); ++r) {
    EXPECT_EQ(obs.records[r].round, engine.history()[r].round);
    EXPECT_EQ(obs.records[r].avg_loss, engine.history()[r].avg_loss);
    EXPECT_EQ(obs.records[r].accuracy, engine.history()[r].accuracy);
  }
}

}  // namespace
}  // namespace fedtrans
