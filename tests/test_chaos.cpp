// Chaos-scenario sweep: a deterministic harness that drives short FedAvg,
// FedTrans and FedBuff sessions through every combination of
//
//   topology  ∈ {flat, 2-level tree, 3-level tree}
//   fault     ∈ {frame drop (+retries), duplication, reordering, leaf death}
//   seed      ∈ {11, 42}
//
// plus every linear strategy (FedAvg, FedTrans, HeteroFL, FedRolex, FLuID,
// SplitMix) through all of those faults at once on a numeric 3-level tree,
//
// plus a Byzantine adversarial sweep — the same invariant harness driven by
// hostile *clients* instead of a hostile wire:
//
//   strategy  ∈ {FedAvg, FedTrans, robust-median, trimmed-mean, norm-clip}
//   attack    ∈ {honest, {sign-flip, scaled-update, label-flip} × {10%, 30%}}
//               (+ utility-inflation against FedTrans's task assignment)
//   topology  ∈ {flat, 3-level tree}
//   seed      ∈ {11, 42}
//
// and asserts *invariants* rather than golden values:
//
//   1. no deadlock — every session terminates with the full round/version
//      history, whatever the fabric loses;
//   2. conservation — every planned task is accounted for, either as a
//      participant or a lost update (participants + lost_updates == tasks);
//   3. byte reconciliation — CostMeter's network bytes equal the strategy's
//      per-update billing plus exactly the transport's retry/failover
//      counters (FedAvg and SplitMix sessions, where the per-update cost is
//      closed-form);
//   4. bitwise determinism — the same scenario replays identically at 1 and
//      4 threads (fault draws are counter-hashed, reductions fixed-order);
//   5. clean decode — the transport never corrupts bytes, so a single
//      rejected frame means a codec bug, chaos or not.
//
// The sweep runs under parallel ctest with a pinned FEDTRANS_THREADS (see
// CMakeLists set_tests_properties), so its timing does not wobble with the
// host load of sibling tests.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/robust.hpp"
#include "baselines/split_mix.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

struct TopoCase {
  const char* name;
  int levels;
  int shards;
  int branching;
};

struct FaultCase {
  const char* name;
  FaultConfig faults;
  int max_retries;
};

std::vector<TopoCase> topologies() {
  return {{"flat", 1, 1, 0}, {"two-level", 2, 3, 0}, {"three-level", 3, 4, 2}};
}

std::vector<FaultCase> fault_cases() {
  FaultConfig drop;
  drop.drop_prob = 0.25;
  FaultConfig dup;
  dup.dup_prob = 0.3;
  FaultConfig reorder;
  reorder.reorder_prob = 0.35;
  FaultConfig death;
  death.leaf_death_prob = 0.35;
  // Drops get a retry budget so the sweep exercises the resend path and
  // its billing; the others keep the historical no-retry behavior.
  return {{"drop", drop, 2},
          {"dup", dup, 0},
          {"reorder", reorder, 0},
          {"leaf-death", death, 0}};
}

DatasetConfig chaos_data() {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = 10;
  cfg.mean_train_samples = 14;
  cfg.min_train_samples = 8;
  cfg.eval_samples = 6;
  cfg.noise = 0.35;
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> chaos_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 9;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec chaos_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

void apply_scenario(FabricTopology& topo, FaultConfig& faults,
                    const TopoCase& t, const FaultCase& f,
                    std::uint64_t seed) {
  topo.levels = t.levels;
  topo.shards = t.shards;
  topo.branching = t.branching;
  topo.max_retries = f.max_retries;
  topo.ack_timeout_s = 5.0;
  faults = f.faults;
  faults.seed = 0x9e3779b9ULL ^ seed;  // decorrelate from the session seed
}

std::string scenario_name(const TopoCase& t, const FaultCase& f,
                          std::uint64_t seed) {
  return std::string(t.name) + " x " + f.name + " x seed " +
         std::to_string(seed);
}

void expect_same_weights(const WeightSet& wa, const WeightSet& wb,
                         const std::string& what) {
  ASSERT_EQ(wa.size(), wb.size()) << what;
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
        << what << " tensor " << i;
}

/// Run one FedAvg session; verify termination, conservation and byte
/// reconciliation; return the final weights + history for the determinism
/// comparison.
struct SyncOutcome {
  WeightSet weights;
  std::vector<RoundRecord> history;
  double network_bytes = 0.0;
};

SyncOutcome run_fedavg(const FederatedDataset& data,
                       const std::vector<DeviceProfile>& fleet,
                       const Model& init, const TopoCase& t,
                       const FaultCase& f, std::uint64_t seed) {
  const std::string what = "fedavg " + scenario_name(t, f, seed);
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 5;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.eval_every = 0;
  cfg.seed = seed;
  cfg.use_fabric = true;
  apply_scenario(cfg.topology, cfg.fabric_faults, t, f, seed);

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();  // invariant 1: terminates under every fault mix

  EXPECT_EQ(runner.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    // Invariant 2: conservation — no task vanishes unaccounted.
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;
    EXPECT_GE(rec.leaf_failovers, 0) << what;
    participants += rec.participants;
    lost += rec.lost_updates;
  }

  const FabricStats& stats = runner.fabric()->stats();
  // Invariant 3: byte reconciliation — each aggregated update moved the
  // model down and up, each lost one spent its downlink, and resends /
  // failover redirects are billed exactly as the transport counted them.
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double extra =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load()) +
      static_cast<double>(stats.failover_bytes_down.load());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + extra, 1.0)
      << what;
  // Invariant 5: chaos drops/duplicates/delays whole frames, never bytes.
  EXPECT_EQ(stats.frames_rejected.load(), 0u) << what;

  SyncOutcome out;
  out.weights = runner.strategy_as<FedAvgStrategy>().model().weights();
  out.history = runner.history();
  out.network_bytes = runner.costs().network_bytes();
  return out;
}

SyncOutcome run_fedtrans(const FederatedDataset& data,
                         const std::vector<DeviceProfile>& fleet,
                         const TopoCase& t, const FaultCase& f,
                         std::uint64_t seed) {
  const std::string what = "fedtrans " + scenario_name(t, f, seed);
  FedTransConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 2;
  cfg.seed = seed;
  SessionConfig session = SessionConfig::from(cfg);
  session.use_fabric = true;
  apply_scenario(session.topology, session.fabric_faults, t, f, seed);

  FederationEngine trainer(
      std::make_unique<FedTransStrategy>(chaos_model(), cfg), data, fleet,
      session);
  trainer.run();

  EXPECT_EQ(trainer.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  for (const auto& rec : trainer.history())
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;
  EXPECT_EQ(trainer.fabric()->stats().frames_rejected.load(), 0u)
      << what;

  SyncOutcome out;
  out.weights = trainer.strategy_as<FedTransStrategy>().model(0).weights();
  out.history = trainer.history();
  out.network_bytes = trainer.costs().network_bytes();
  return out;
}

struct AsyncOutcome {
  WeightSet weights;
  std::vector<RoundRecord> history;
  double now_s = 0.0;
};

AsyncOutcome run_fedbuff(const FederatedDataset& data,
                         const std::vector<DeviceProfile>& fleet,
                         const Model& init, const TopoCase& t,
                         const FaultCase& f, std::uint64_t seed) {
  const std::string what = "fedbuff " + scenario_name(t, f, seed);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = seed;
  cfg.use_fabric = true;
  apply_scenario(cfg.topology, cfg.fabric_faults, t, f, seed);
  cfg.topology.ack_timeout_s = 30.0;  // above the tiny fleet's round trip

  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();  // invariant 1: ack-timeouts replace lost clients

  EXPECT_EQ(runner.versions_done(), cfg.async.aggregations) << what;
  EXPECT_EQ(runner.history().size(),
            static_cast<std::size_t>(cfg.async.aggregations))
      << what;
  for (const auto& rec : runner.history())
    EXPECT_GE(rec.lost_updates, 0) << what;
  EXPECT_EQ(runner.fabric()->stats().frames_rejected.load(), 0u)
      << what;
  EXPECT_GT(runner.costs().network_bytes(), 0.0) << what;

  AsyncOutcome out;
  out.weights = runner.strategy_as<FedAvgStrategy>().model().weights();
  out.history = runner.history();
  out.now_s = runner.now_s();
  return out;
}

void expect_same_history(const std::vector<RoundRecord>& a,
                         const std::vector<RoundRecord>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].avg_loss, b[r].avg_loss) << what << " round " << r;
    EXPECT_EQ(a[r].round_time_s, b[r].round_time_s) << what << " round " << r;
    EXPECT_EQ(a[r].participants, b[r].participants) << what << " round " << r;
    EXPECT_EQ(a[r].lost_updates, b[r].lost_updates) << what << " round " << r;
    EXPECT_EQ(a[r].leaf_failovers, b[r].leaf_failovers)
        << what << " round " << r;
    EXPECT_EQ(a[r].byzantine_updates, b[r].byzantine_updates)
        << what << " round " << r;
    EXPECT_EQ(a[r].byzantine_clients, b[r].byzantine_clients)
        << what << " round " << r;
    EXPECT_EQ(a[r].byzantine_l2, b[r].byzantine_l2) << what << " round " << r;
  }
}

TEST(ChaosSweepTest, FedAvgSurvivesEveryScenarioDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  for (const TopoCase& t : topologies()) {
    for (const FaultCase& f : fault_cases()) {
      for (std::uint64_t seed : {11ULL, 42ULL}) {
        const std::string what = "fedavg " + scenario_name(t, f, seed);
        ThreadPool::set_global_threads(1);
        const SyncOutcome a = run_fedavg(data, fleet, init, t, f, seed);
        ThreadPool::set_global_threads(4);
        const SyncOutcome b = run_fedavg(data, fleet, init, t, f, seed);
        // Invariant 4: bitwise determinism across thread counts.
        expect_same_weights(a.weights, b.weights, what);
        expect_same_history(a.history, b.history, what);
        EXPECT_EQ(a.network_bytes, b.network_bytes) << what;
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ChaosSweepTest, FedTransSurvivesEveryScenarioDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (const TopoCase& t : topologies()) {
    for (const FaultCase& f : fault_cases()) {
      for (std::uint64_t seed : {11ULL, 42ULL}) {
        const std::string what = "fedtrans " + scenario_name(t, f, seed);
        ThreadPool::set_global_threads(1);
        const SyncOutcome a = run_fedtrans(data, fleet, t, f, seed);
        ThreadPool::set_global_threads(4);
        const SyncOutcome b = run_fedtrans(data, fleet, t, f, seed);
        expect_same_weights(a.weights, b.weights, what);
        expect_same_history(a.history, b.history, what);
        EXPECT_EQ(a.network_bytes, b.network_bytes) << what;
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ChaosSweepTest, FedBuffSurvivesEveryScenarioDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  for (const TopoCase& t : topologies()) {
    for (const FaultCase& f : fault_cases()) {
      for (std::uint64_t seed : {11ULL, 42ULL}) {
        const std::string what = "fedbuff " + scenario_name(t, f, seed);
        ThreadPool::set_global_threads(1);
        const AsyncOutcome a = run_fedbuff(data, fleet, init, t, f, seed);
        ThreadPool::set_global_threads(4);
        const AsyncOutcome b = run_fedbuff(data, fleet, init, t, f, seed);
        expect_same_weights(a.weights, b.weights, what);
        expect_same_history(a.history, b.history, what);
        EXPECT_EQ(a.now_s, b.now_s) << what;
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

/// Records how many tasks each round planned, so conservation holds for a
/// strategy that schedules several tasks per client (SplitMix) too.
struct PlanLog {
  std::vector<int> planned;
};

template <typename S>
class Planned : public S, public PlanLog {
 public:
  using S::S;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override {
    auto tasks = S::plan_round(ctx, rng);
    planned.push_back(static_cast<int>(tasks.size()));
    return tasks;
  }
};

/// A linear strategy of the combined-fault leg: how to build it, its server
/// models, and, where every task bills one fixed model size, that size.
struct LinearCase {
  const char* name;
  std::function<std::unique_ptr<Strategy>()> make;
  std::function<WeightSet(FederationEngine&)> weights;
  std::function<double(FederationEngine&)> unit_bytes;  // null: per-task sizes
};

std::vector<LinearCase> linear_cases(const Model& init,
                                     const FedTransConfig& ft) {
  auto global = [](FederationEngine& e) {
    return static_cast<SubmodelStrategy&>(e.strategy()).global().weights();
  };
  return {
      {"fedavg",
       [&init] {
         return std::make_unique<Planned<FedAvgStrategy>>(init,
                                                          FedAvgOptions{});
       },
       [](FederationEngine& e) {
         return e.strategy_as<FedAvgStrategy>().model().weights();
       },
       [](FederationEngine& e) {
         return static_cast<double>(
             e.strategy_as<FedAvgStrategy>().model().param_bytes());
       }},
      {"fedtrans",
       [&ft] {
         return std::make_unique<Planned<FedTransStrategy>>(chaos_model(), ft);
       },
       [](FederationEngine& e) {
         return e.strategy_as<FedTransStrategy>().model(0).weights();
       },
       nullptr},
      {"heterofl",
       [] { return std::make_unique<Planned<HeteroFLStrategy>>(chaos_model()); },
       global, nullptr},
      {"fedrolex",
       [] { return std::make_unique<Planned<FedRolexStrategy>>(chaos_model()); },
       global, nullptr},
      {"fluid",
       [] { return std::make_unique<Planned<FluidStrategy>>(chaos_model()); },
       global, nullptr},
      {"splitmix",
       [] {
         return std::make_unique<Planned<SplitMixStrategy>>(chaos_model(), 4);
       },
       [](FederationEngine& e) {
         return e.strategy_as<SplitMixStrategy>().base(0).weights();
       },
       [](FederationEngine& e) {
         return static_cast<double>(
             e.strategy_as<SplitMixStrategy>().base(0).param_bytes());
       }},
  };
}

TEST(ChaosSweepTest, CombinedFaultsOnDeepTreeStillConserveAndTerminate) {
  // Everything at once — drops with retries, duplicates, reordering, leaf
  // death, client dropout — over the 3-level tree, numeric mode on, for
  // every linear strategy: the harshest corner of the sweep still
  // terminates, conserves tasks, decodes every frame and replays bitwise;
  // strategies billing one model size per task reconcile their bytes.
  auto data = FederatedDataset::generate(chaos_data());
  // Capacities around the width ladders' middle: clients train several
  // levels and one to four of SplitMix's bases.
  FleetConfig mixed;
  mixed.num_devices = data.num_clients();
  mixed.seed = 9;
  mixed.with_median_capacity(2e4);
  const auto fleet = sample_fleet(mixed);
  Rng rng(3);
  Model init(chaos_model(), rng);

  FedTransConfig ft;
  ft.rounds = 4;
  ft.clients_per_round = 6;
  ft.local.steps = 2;
  ft.local.batch = 4;
  ft.eval_every = 0;
  ft.seed = 5;
  ft.gamma = 2;
  ft.doc_delta = 2;
  ft.beta = 10.0;
  ft.act_window = 2;
  ft.max_models = 2;
  SessionConfig cfg = SessionConfig::from(ft);
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 5.0;
  cfg.fabric_faults.drop_prob = 0.15;
  cfg.fabric_faults.dup_prob = 0.1;
  cfg.fabric_faults.reorder_prob = 0.15;
  cfg.fabric_faults.dropout_prob = 0.1;
  cfg.fabric_faults.leaf_death_prob = 0.2;
  cfg.fabric_faults.seed = 4242;
  const int prev_threads = ThreadPool::global().size();

  for (const LinearCase& c : linear_cases(init, ft)) {
    SCOPED_TRACE(c.name);
    ThreadPool::set_global_threads(1);
    FederationEngine runner(c.make(), data, fleet, cfg);
    runner.run();

    ASSERT_EQ(runner.history().size(), 4u);
    const auto& planned =
        dynamic_cast<const PlanLog&>(runner.strategy()).planned;
    ASSERT_EQ(planned.size(), 4u);
    int participants = 0, lost = 0;
    for (const auto& rec : runner.history()) {
      EXPECT_EQ(rec.participants + rec.lost_updates,
                planned[static_cast<std::size_t>(rec.round)])
          << "round " << rec.round;
      participants += rec.participants;
      lost += rec.lost_updates;
    }
    EXPECT_GT(participants, 0) << "some updates must still get through";
    const FabricStats& stats = runner.fabric()->stats();
    if (c.unit_bytes) {
      const double extra =
          static_cast<double>(stats.retry_bytes_down.load()) +
          static_cast<double>(stats.retry_bytes_up.load()) +
          static_cast<double>(stats.failover_bytes_down.load());
      EXPECT_NEAR(runner.costs().network_bytes(),
                  c.unit_bytes(runner) * (2.0 * participants + lost) + extra,
                  1.0);
    }
    EXPECT_EQ(stats.frames_rejected.load(), 0u);

    ThreadPool::set_global_threads(4);
    FederationEngine again(c.make(), data, fleet, cfg);
    again.run();
    expect_same_weights(c.weights(runner), c.weights(again),
                        "combined chaos replay");
    expect_same_history(runner.history(), again.history(), "combined chaos");
    EXPECT_EQ(runner.costs().network_bytes(), again.costs().network_bytes());
  }
  ThreadPool::set_global_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// Wire v6 bandwidth-reducer legs: the same invariant harness with quantized
// tree partials, interior broadcast caches and delta downlinks switched on
// (separately and together) under every fault mix. The standing invariants
// are unchanged except byte reconciliation, which gains the delta credit:
// delta ModelDowns ship fewer bytes than the full payload the strategy
// billed, and the engine credits exactly the transport's counter back.

struct FeatureCase {
  const char* name;
  PartialQuant quant;
  bool cache;
  bool delta;
};

std::vector<FeatureCase> feature_cases() {
  return {{"quant-int8", PartialQuant::Int8, false, false},
          {"cache", PartialQuant::None, true, false},
          {"delta", PartialQuant::None, false, true},
          {"all-on", PartialQuant::Int8, true, true}};
}

SyncOutcome run_fedavg_v6(const FederatedDataset& data,
                          const std::vector<DeviceProfile>& fleet,
                          const Model& init, const TopoCase& t,
                          const FaultCase& f, const FeatureCase& v,
                          std::uint64_t seed) {
  const std::string what =
      "fedavg-v6 " + std::string(v.name) + " " + scenario_name(t, f, seed);
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 5;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.eval_every = 0;
  cfg.seed = seed;
  cfg.use_fabric = true;
  apply_scenario(cfg.topology, cfg.fabric_faults, t, f, seed);
  cfg.topology.quantize_partials = v.quant;
  cfg.topology.partial_aggregation = v.quant != PartialQuant::None;
  cfg.topology.broadcast_cache = v.cache;
  cfg.topology.delta_downlink = v.delta;

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();  // invariant 1: terminates under every fault mix

  EXPECT_EQ(runner.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;  // invariant 2: conservation
    participants += rec.participants;
    lost += rec.lost_updates;
  }

  const FabricStats& stats = runner.fabric()->stats();
  // Invariant 3, v6 form: per-update billing + resend/failover traffic
  // − the delta-downlink credit. Cache elision never enters CostMeter —
  // it only trims the free backbone — so no cache term appears.
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double extra =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load()) +
      static_cast<double>(stats.failover_bytes_down.load()) -
      static_cast<double>(stats.delta_saved_bytes.load());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + extra, 1.0)
      << what;
  EXPECT_EQ(stats.frames_rejected.load(), 0u) << what;  // invariant 5

  SyncOutcome out;
  out.weights = runner.strategy_as<FedAvgStrategy>().model().weights();
  out.history = runner.history();
  out.network_bytes = runner.costs().network_bytes();
  return out;
}

TEST(ChaosSweepTest, BandwidthReducersSurviveEveryScenarioDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  for (const FeatureCase& v : feature_cases()) {
    for (const TopoCase& t : topologies()) {
      // The reducers are tree machinery (quantized partials and broadcast
      // caches need aggregators); delta downlinks also run flat, which the
      // flat case covers for the delta-bearing features.
      if (t.levels < 2 && (v.quant != PartialQuant::None || v.cache)) continue;
      for (const FaultCase& f : fault_cases()) {
        for (std::uint64_t seed : {11ULL, 42ULL}) {
          const std::string what = "fedavg-v6 " + std::string(v.name) + " " +
                                   scenario_name(t, f, seed);
          ThreadPool::set_global_threads(1);
          const SyncOutcome a =
              run_fedavg_v6(data, fleet, init, t, f, v, seed);
          ThreadPool::set_global_threads(4);
          const SyncOutcome b =
              run_fedavg_v6(data, fleet, init, t, f, v, seed);
          // Invariant 4: bitwise determinism across thread counts.
          expect_same_weights(a.weights, b.weights, what);
          expect_same_history(a.history, b.history, what);
          EXPECT_EQ(a.network_bytes, b.network_bytes) << what;
        }
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// Byzantine adversarial sweep. The wire is honest here — the *clients*
// misbehave — so the standing invariants (termination, conservation, byte
// reconciliation, clean decode, 1-vs-4-thread bitwise determinism) must
// hold with attackers in the round, and the per-round Byzantine accounting
// must name exactly the counter-hashed (seed, round, client) draw.

struct ByzCase {
  const char* name;
  double prob;
  ByzantineMode mode;
};

std::vector<ByzCase> byzantine_cases() {
  return {{"honest", 0.0, ByzantineMode::None},
          {"sign-flip-10", 0.1, ByzantineMode::SignFlip},
          {"sign-flip-30", 0.3, ByzantineMode::SignFlip},
          {"scaled-10", 0.1, ByzantineMode::ScaledUpdate},
          {"scaled-30", 0.3, ByzantineMode::ScaledUpdate},
          {"label-flip-10", 0.1, ByzantineMode::LabelFlip},
          {"label-flip-30", 0.3, ByzantineMode::LabelFlip}};
}

/// flat + the deepest tree: the Byzantine draw is keyed on (seed, round,
/// client), so topology must not change who attacks or what they send.
std::vector<TopoCase> byzantine_topologies() {
  return {{"flat", 1, 1, 0}, {"three-level", 3, 4, 2}};
}

void apply_byzantine(FaultConfig& faults, const ByzCase& b,
                     std::uint64_t seed) {
  faults.byzantine_prob = b.prob;
  faults.byzantine_mode = b.mode;
  faults.byzantine_lambda = 10.0;
  faults.seed = 0x9e3779b9ULL ^ seed;
}

std::string byz_scenario_name(const char* strategy, const TopoCase& t,
                              const ByzCase& b, std::uint64_t seed) {
  return std::string(strategy) + " " + t.name + " x " + b.name + " x seed " +
         std::to_string(seed);
}

/// Byzantine bookkeeping invariants shared by every strategy in the sweep:
/// the record's attacker set re-derives from the pure draw, honest rounds
/// stay clean, and the 30% scenarios (deterministically) land attacks.
void check_byzantine_accounting(const std::vector<RoundRecord>& history,
                                const FaultConfig& faults, const ByzCase& b,
                                const std::string& what) {
  int total_byz = 0;
  for (const auto& rec : history) {
    EXPECT_GE(rec.byzantine_updates, 0) << what;
    EXPECT_LE(rec.byzantine_updates, rec.participants) << what;
    EXPECT_EQ(static_cast<int>(rec.byzantine_clients.size()),
              rec.byzantine_updates)
        << what;
    for (std::int32_t c : rec.byzantine_clients)
      EXPECT_TRUE(byzantine_client(
          faults, static_cast<std::uint32_t>(rec.round), c))
          << what << " round " << rec.round << " client " << c;
    total_byz += rec.byzantine_updates;
  }
  if (b.prob == 0.0) {
    EXPECT_EQ(total_byz, 0) << what;
  } else if (b.prob >= 0.3) {
    // Counter-hashed draws are fixed per (seed, round, client): at 30%
    // over every (round, client) pair the sweep visits, some attack lands.
    EXPECT_GT(total_byz, 0) << what;
  }
}

SyncOutcome run_fedavg_byzantine(const FederatedDataset& data,
                                 const std::vector<DeviceProfile>& fleet,
                                 const Model& init, const TopoCase& t,
                                 const ByzCase& b, std::uint64_t seed) {
  const std::string what = byz_scenario_name("fedavg", t, b, seed);
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 5;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.eval_every = 0;
  cfg.seed = seed;
  cfg.use_fabric = true;
  cfg.topology.levels = t.levels;
  cfg.topology.shards = t.shards;
  cfg.topology.branching = t.branching;
  apply_byzantine(cfg.fabric_faults, b, seed);

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();

  EXPECT_EQ(runner.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  check_byzantine_accounting(runner.history(), cfg.fabric_faults, b, what);
  // Attackers move the same bytes as honest clients — the reconciliation
  // is unchanged, and an honest wire never rejects a frame.
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost), 1.0)
      << what;
  EXPECT_EQ(runner.fabric()->stats().frames_rejected.load(), 0u) << what;

  SyncOutcome out;
  out.weights = runner.strategy_as<FedAvgStrategy>().model().weights();
  out.history = runner.history();
  out.network_bytes = runner.costs().network_bytes();
  return out;
}

SyncOutcome run_fedtrans_byzantine(const FederatedDataset& data,
                                   const std::vector<DeviceProfile>& fleet,
                                   const TopoCase& t, const ByzCase& b,
                                   std::uint64_t seed) {
  const std::string what = byz_scenario_name("fedtrans", t, b, seed);
  FedTransConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 2;
  cfg.seed = seed;
  SessionConfig session = SessionConfig::from(cfg);
  session.use_fabric = true;
  session.topology.levels = t.levels;
  session.topology.shards = t.shards;
  session.topology.branching = t.branching;
  apply_byzantine(session.fabric_faults, b, seed);

  FederationEngine trainer(
      std::make_unique<FedTransStrategy>(chaos_model(), cfg), data, fleet,
      session);
  trainer.run();

  EXPECT_EQ(trainer.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  for (const auto& rec : trainer.history())
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;
  check_byzantine_accounting(trainer.history(), session.fabric_faults, b,
                             what);
  EXPECT_EQ(trainer.fabric()->stats().frames_rejected.load(), 0u)
      << what;

  SyncOutcome out;
  out.weights = trainer.strategy_as<FedTransStrategy>().model(0).weights();
  out.history = trainer.history();
  out.network_bytes = trainer.costs().network_bytes();
  return out;
}

SyncOutcome run_robust_byzantine(const FederatedDataset& data,
                                 const std::vector<DeviceProfile>& fleet,
                                 const Model& init, RobustAggregator agg,
                                 const TopoCase& t, const ByzCase& b,
                                 std::uint64_t seed) {
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  SessionConfig cfg = SessionConfig{}
                          .with_rounds(3)
                          .with_clients_per_round(5)
                          .with_local(local)
                          .with_seed(seed)
                          .with_tree(t.levels, t.shards, t.branching);
  apply_byzantine(cfg.fabric_faults, b, seed);

  FederationEngine engine(
      std::make_unique<RobustStrategy>(init, RobustConfig{agg}), data, fleet,
      cfg);
  const std::string what =
      byz_scenario_name(engine.strategy().name().c_str(), t, b, seed);
  engine.run();

  EXPECT_EQ(engine.history().size(), static_cast<std::size_t>(cfg.rounds))
      << what;
  int participants = 0, lost = 0;
  for (const auto& rec : engine.history()) {
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round)
        << what << " round " << rec.round;
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  check_byzantine_accounting(engine.history(), cfg.fabric_faults, b, what);
  const double model_bytes = static_cast<double>(
      engine.strategy_as<RobustStrategy>().model().param_bytes());
  EXPECT_NEAR(engine.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost), 1.0)
      << what;
  EXPECT_EQ(engine.fabric()->transport().stats().frames_rejected.load(), 0u)
      << what;

  SyncOutcome out;
  out.weights = engine.strategy_as<RobustStrategy>().model().weights();
  out.history = engine.history();
  out.network_bytes = engine.costs().network_bytes();
  return out;
}

TEST(ByzantineSweepTest, FedAvgSurvivesEveryAttackDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  for (const TopoCase& t : byzantine_topologies()) {
    for (const ByzCase& b : byzantine_cases()) {
      for (std::uint64_t seed : {11ULL, 42ULL}) {
        const std::string what = byz_scenario_name("fedavg", t, b, seed);
        ThreadPool::set_global_threads(1);
        const SyncOutcome a =
            run_fedavg_byzantine(data, fleet, init, t, b, seed);
        ThreadPool::set_global_threads(4);
        const SyncOutcome c =
            run_fedavg_byzantine(data, fleet, init, t, b, seed);
        expect_same_weights(a.weights, c.weights, what);
        expect_same_history(a.history, c.history, what);
        EXPECT_EQ(a.network_bytes, c.network_bytes) << what;
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ByzantineSweepTest, FedTransSurvivesEveryAttackDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  // FedTrans additionally faces the utility-inflation attack aimed at its
  // prepare_task assignment loop.
  auto cases = byzantine_cases();
  cases.push_back({"utility-inflate-10", 0.1, ByzantineMode::UtilityInflate});
  cases.push_back({"utility-inflate-30", 0.3, ByzantineMode::UtilityInflate});

  for (const TopoCase& t : byzantine_topologies()) {
    for (const ByzCase& b : cases) {
      for (std::uint64_t seed : {11ULL, 42ULL}) {
        const std::string what = byz_scenario_name("fedtrans", t, b, seed);
        ThreadPool::set_global_threads(1);
        const SyncOutcome a = run_fedtrans_byzantine(data, fleet, t, b, seed);
        ThreadPool::set_global_threads(4);
        const SyncOutcome c = run_fedtrans_byzantine(data, fleet, t, b, seed);
        expect_same_weights(a.weights, c.weights, what);
        expect_same_history(a.history, c.history, what);
        EXPECT_EQ(a.network_bytes, c.network_bytes) << what;
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ByzantineSweepTest, RobustStrategiesSurviveEveryAttackDeterministically) {
  auto data = FederatedDataset::generate(chaos_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  const auto aggregators = std::vector<RobustAggregator>{
      RobustAggregator::CoordinateMedian, RobustAggregator::TrimmedMean,
      RobustAggregator::NormClip};
  for (RobustAggregator agg : aggregators) {
    for (const TopoCase& t : byzantine_topologies()) {
      for (const ByzCase& b : byzantine_cases()) {
        for (std::uint64_t seed : {11ULL, 42ULL}) {
          const std::string what = byz_scenario_name("robust", t, b, seed);
          ThreadPool::set_global_threads(1);
          const SyncOutcome a =
              run_robust_byzantine(data, fleet, init, agg, t, b, seed);
          ThreadPool::set_global_threads(4);
          const SyncOutcome c =
              run_robust_byzantine(data, fleet, init, agg, t, b, seed);
          expect_same_weights(a.weights, c.weights, what);
          expect_same_history(a.history, c.history, what);
          EXPECT_EQ(a.network_bytes, c.network_bytes) << what;
        }
      }
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// The headline robustness claim, asserted end to end: under 30% sign-flip
// Byzantine clients, mean aggregation (FedAvg) settles measurably below its
// honest accuracy while every robust reducer climbs back to within 5% of
// its own honest level — and beats the attacked FedAvg outright.
//
// The scenario needs honest updates that *cluster*: robust statistics only
// separate attackers from honest clients when the honest per-coordinate
// spread is smaller than the attack displacement, so this test uses a
// lower-noise, larger-sample dataset than the chaos sweep (with the sweep's
// dataset the honest deltas are so heterogeneous that trimming mostly
// removes signal). 9 clients per round keeps the median an odd-count order
// statistic, and the asserts read the settled tail of the learning curve —
// mean of the last kTail evals for "where did it converge", best-of-tail
// for "does it still reach honest accuracy" — because per-round Byzantine
// draws make single-round reads a coin flip on breakdown rounds.

constexpr int kDegRounds = 20;
constexpr int kTail = 6;

DatasetConfig clustered_data() {
  DatasetConfig cfg = chaos_data();
  cfg.noise = 0.15;
  cfg.mean_train_samples = 30;
  cfg.min_train_samples = 15;
  return cfg;
}

double tail_mean(const std::vector<RoundRecord>& history) {
  double sum = 0.0;
  for (int i = 0; i < kTail; ++i)
    sum += history[history.size() - 1 - static_cast<std::size_t>(i)].accuracy;
  return sum / kTail;
}

double tail_best(const std::vector<RoundRecord>& history) {
  double best = 0.0;
  for (int i = 0; i < kTail; ++i)
    best = std::max(
        best, history[history.size() - 1 - static_cast<std::size_t>(i)].accuracy);
  return best;
}

std::vector<RoundRecord> degradation_run_fedavg(
    const FederatedDataset& data, const std::vector<DeviceProfile>& fleet,
    const Model& init, double byz_prob, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.rounds = kDegRounds;
  cfg.clients_per_round = 9;
  cfg.local.steps = 6;
  cfg.local.batch = 6;
  cfg.eval_every = 1;
  cfg.eval_clients = 0;  // every client, every round: a full learning curve
  cfg.seed = seed;
  apply_byzantine(cfg.fabric_faults,
                  {"sign-flip", byz_prob, ByzantineMode::SignFlip}, seed);

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();
  return runner.history();
}

std::vector<RoundRecord> degradation_run_robust(
    const FederatedDataset& data, const std::vector<DeviceProfile>& fleet,
    const Model& init, RobustAggregator agg, double byz_prob,
    std::uint64_t seed) {
  LocalTrainConfig local;
  local.steps = 6;
  local.batch = 6;
  SessionConfig cfg = SessionConfig{}
                          .with_rounds(kDegRounds)
                          .with_clients_per_round(9)
                          .with_local(local)
                          .with_eval(1, 0)
                          .with_seed(seed);
  apply_byzantine(cfg.fabric_faults,
                  {"sign-flip", byz_prob, ByzantineMode::SignFlip}, seed);

  FederationEngine engine(
      std::make_unique<RobustStrategy>(
          init, RobustConfig{agg, /*trim_fraction=*/0.3,
                             /*clip_multiplier=*/2.0}),
      data, fleet, cfg);
  engine.run();
  return engine.history();
}

TEST(ByzantineDegradationTest, RobustAggregatorsHoldWhereMeanFolds) {
  auto data = FederatedDataset::generate(clustered_data());
  auto fleet = chaos_fleet(data.num_clients());
  Rng rng(3);
  Model init(chaos_model(), rng);

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    const double fedavg_honest =
        tail_mean(degradation_run_fedavg(data, fleet, init, 0.0, seed));
    const double fedavg_attacked =
        tail_mean(degradation_run_fedavg(data, fleet, init, 0.3, seed));
    // Mean aggregation has no defense: 30% sign-flipped mass must leave
    // its settled accuracy a test-visible chunk below the honest run.
    EXPECT_LT(fedavg_attacked, fedavg_honest - 0.10)
        << "seed " << seed << " honest " << fedavg_honest << " attacked "
        << fedavg_attacked;

    for (RobustAggregator agg : {RobustAggregator::CoordinateMedian,
                                 RobustAggregator::TrimmedMean,
                                 RobustAggregator::NormClip}) {
      const std::string what =
          "agg " + std::to_string(static_cast<int>(agg)) + " seed " +
          std::to_string(seed);
      const double honest = tail_mean(
          degradation_run_robust(data, fleet, init, agg, 0.0, seed));
      const auto attacked =
          degradation_run_robust(data, fleet, init, agg, 0.3, seed);
      // The robust reducers shrug the same attack off: back to within 5%
      // of their own honest settled accuracy (the headline bound)...
      EXPECT_GE(tail_best(attacked), honest - 0.05)
          << what << " honest " << honest << " attacked best "
          << tail_best(attacked);
      // ...and clearly ahead of undefended mean aggregation.
      EXPECT_GE(tail_mean(attacked), fedavg_attacked + 0.05)
          << what << " robust settled " << tail_mean(attacked)
          << " vs attacked fedavg " << fedavg_attacked;
    }
  }
}

}  // namespace
}  // namespace fedtrans
