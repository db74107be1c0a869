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
//      history collects;
//  (5) the round ledger: every strategy, in-process and over faulty flat
//      and tree fabrics, in fp32 and fp16, bills, times and reports each
//      task by one rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <type_traits>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/robust.hpp"
#include "baselines/split_mix.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
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

  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
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

// ---------------------------------------------------------------------------
// (5) The round ledger. A decorator records each task from the strategy's
// own hooks (outcome, loss, samples, compute) with the bytes and MACs of
// the model it trained, from client_payload or shared_model; the selector
// records its reports. The CostMeter and the reports must then follow from
// the tasks alone, by one rule, for every strategy and exchange mode.

struct TaskEntry {
  int round = 0;
  int client = 0;
  ClientOutcome outcome = ClientOutcome::Trained;
  double bytes = 0.0;  // fp32 param_bytes of the model the task trained
  double macs = 0.0;   // its forward MACs
  double uplink = -1.0;  // compressed uplink bytes; negative means dense
  LocalTrainResult res;  // metrics of a trained task (delta not kept)
};

class LedgerRecorder : public Strategy {
 public:
  LedgerRecorder(std::unique_ptr<Strategy> inner,
                 std::unique_ptr<DeltaCompressor> compressor = nullptr)
      : inner_(std::move(inner)), compressor_(std::move(compressor)) {}

  std::string name() const override { return inner_->name(); }
  void attach(RoundContext& ctx, Rng& rng) override {
    inner_->attach(ctx, rng);
  }
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override {
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
    // compressed_bytes depends only on the delta's shape.
    record(task, ClientOutcome::Trained, &res,
           compressor_ ? compressor_->compressed_bytes(res.delta) : -1.0, ctx);
    inner_->absorb_update(task, trained, res, ctx);
  }
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override {
    record(task, outcome, nullptr, -1.0, ctx);
    inner_->lost_update(task, outcome, ctx);
  }
  bool supports_partial_aggregation() const override {
    return inner_->supports_partial_aggregation();
  }
  int reduce_key(const ClientTask& task) const override {
    return inner_->reduce_key(task);
  }
  void absorb_metrics(const ClientTask& task, const LocalTrainResult& res,
                      RoundContext& ctx) override {
    record(task, ClientOutcome::Trained, &res, -1.0, ctx);
    inner_->absorb_metrics(task, res, ctx);
  }
  void absorb_reduced(const ClientTask& task, Model* payload, WeightSet& sum,
                      double weight, int count, RoundContext& ctx) override {
    inner_->absorb_reduced(task, payload, sum, weight, count, ctx);
  }
  void finish_round(RoundContext& ctx, RoundRecord& rec) override {
    inner_->finish_round(ctx, rec);
  }
  double deployed_accuracy(int client, const ClientData& data) override {
    return inner_->deployed_accuracy(client, data);
  }
  std::optional<double> absorb_async(int client, LocalTrainResult& res,
                                     double discount,
                                     RoundContext& ctx) override {
    record(ClientTask{client, 0}, ClientOutcome::Trained, &res, -1.0, ctx);
    return inner_->absorb_async(client, res, discount, ctx);
  }

  const std::vector<TaskEntry>& entries() const { return entries_; }

 private:
  void record(const ClientTask& task, ClientOutcome outcome,
              const LocalTrainResult* res, double uplink,
              const RoundContext& ctx) {
    TaskEntry e;
    e.round = ctx.round;
    e.client = task.client;
    e.outcome = outcome;
    e.uplink = uplink;
    if (Model* shared = inner_->shared_model()) {
      e.bytes = static_cast<double>(shared->param_bytes());
      e.macs = static_cast<double>(shared->macs());
    } else {
      const Model payload = inner_->client_payload(task);
      e.bytes = static_cast<double>(payload.param_bytes());
      e.macs = static_cast<double>(payload.macs());
    }
    if (res != nullptr) {
      e.res.avg_loss = res->avg_loss;
      e.res.num_samples = res->num_samples;
      e.res.macs_used = res->macs_used;
    }
    entries_.push_back(e);
  }

  std::unique_ptr<Strategy> inner_;
  std::unique_ptr<DeltaCompressor> compressor_;
  std::vector<TaskEntry> entries_;
};

/// The uniform selector, recording every report it receives.
class RecordingSelector : public ClientSelector {
 public:
  struct Report {
    int client;
    double loss;
    int samples;
    bool operator==(const Report&) const = default;
  };
  std::vector<int> select(int population, int k, Rng& rng) override {
    return uniform_.select(population, k, rng);
  }
  void report(int client, double loss, int samples) override {
    reports.push_back({client, loss, samples});
    uniform_.report(client, loss, samples);
  }
  std::string name() const override { return uniform_.name(); }
  std::vector<Report> reports;

 private:
  UniformSelector uniform_;
};

/// What the fabric moved beyond one down- and one uplink per task.
struct FabricExtra {
  double down = 0.0;
  double up = 0.0;
};

FabricExtra fabric_extra(const FederationEngine& e) {
  FabricExtra x;
  if (const FederationServer* f = e.fabric()) {
    const FabricStats& s = f->stats();
    x.down = static_cast<double>(s.retry_bytes_down.load() +
                                 s.failover_bytes_down.load());
    x.up = static_cast<double>(s.retry_bytes_up.load());
  }
  return x;
}

struct LedgerCoverage {
  int lost = 0;
  int lost_down = 0;
  int multi_task_runs = 0;
  double fabric_extra = 0.0;
};

/// A synchronous session's ledger, rebuilt from its recorded tasks.
void expect_sync_ledger(FederationEngine& e, const std::string& what,
                        LedgerCoverage& cov) {
  SCOPED_TRACE(what);
  const auto& entries = e.strategy_as<LedgerRecorder>().entries();
  const auto& reports =
      dynamic_cast<RecordingSelector&>(e.selector()).reports;
  const SessionConfig& cfg = e.config();
  const double scale = wire_dtype_scale(cfg);
  const FabricExtra extra = fabric_extra(e);
  double down = extra.down;
  double up = extra.up;
  double macs = 0.0;
  std::vector<RecordingSelector::Report> runs;
  int run_tasks = 0;
  double run_loss = 0.0;
  int run_round = -1;
  auto end_run = [&] {
    if (run_tasks == 0) return;
    runs.back().loss = run_loss / run_tasks;
    if (run_tasks > 1) ++cov.multi_task_runs;
    run_tasks = 0;
    run_loss = 0.0;
  };
  for (const TaskEntry& t : entries) {
    down += t.bytes * scale;
    if (t.outcome != ClientOutcome::Trained) {
      ++cov.lost;
      if (t.outcome == ClientOutcome::LostDown)
        ++cov.lost_down;
      else
        macs += 3.0 * t.macs * cfg.local.steps * cfg.local.batch;
      continue;
    }
    up += t.uplink >= 0.0 ? t.uplink : t.bytes * scale;
    macs += t.res.macs_used;
    if (run_tasks == 0 || t.round != run_round ||
        t.client != runs.back().client) {
      end_run();
      runs.push_back({t.client, 0.0, 0});
      run_round = t.round;
    }
    ++run_tasks;
    run_loss += t.res.avg_loss;
    runs.back().samples += t.res.num_samples;
  }
  end_run();
  cov.fabric_extra += extra.down + extra.up;

  EXPECT_EQ(e.costs().bytes_down(), down);
  EXPECT_EQ(e.costs().bytes_up(), up);
  EXPECT_EQ(e.costs().total_macs(), macs);
  EXPECT_EQ(e.costs().client_time_count(), runs.size());
  EXPECT_EQ(reports, runs) << "one selector report per client run";
}

struct LedgerRow {
  const char* name;
  std::function<std::unique_ptr<Strategy>()> make;
  std::function<std::unique_ptr<DeltaCompressor>()> compressor;
};

TEST(RoundLedger, EveryStrategyBillsTimesAndReportsByOneRule) {
  auto data = FederatedDataset::generate(tiny_data());
  // Capacities around the width ladders' middle: clients train several
  // levels and one to four of SplitMix's bases.
  const auto fleet = tiny_fleet(data.num_clients(), 2e4, 9);
  Rng rng(3);
  const Model init(tiny_model(), rng);

  FedTransConfig ft;
  ft.rounds = 3;
  ft.clients_per_round = 5;
  ft.local.steps = 2;
  ft.local.batch = 4;
  ft.eval_every = 0;
  ft.seed = 5;
  ft.gamma = 2;
  ft.doc_delta = 2;
  ft.beta = 10.0;
  ft.act_window = 2;
  ft.max_models = 2;
  FedAvgOptions topk;
  topk.compression = CompressionKind::TopK;
  topk.topk_ratio = 0.2;
  topk.error_feedback = true;

  const std::vector<LedgerRow> rows = {
      {"fedavg",
       [&] { return std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}); },
       nullptr},
      {"fedavg-topk-ef",
       [&] { return std::make_unique<FedAvgStrategy>(init, topk); },
       [&] { return make_compressor(topk.compression, topk.topk_ratio); }},
      {"fedtrans",
       [&] { return std::make_unique<FedTransStrategy>(tiny_model(), ft); },
       nullptr},
      {"heterofl",
       [] { return std::make_unique<HeteroFLStrategy>(tiny_model()); },
       nullptr},
      {"fedrolex",
       [] { return std::make_unique<FedRolexStrategy>(tiny_model()); },
       nullptr},
      {"fluid", [] { return std::make_unique<FluidStrategy>(tiny_model()); },
       nullptr},
      {"splitmix",
       [] { return std::make_unique<SplitMixStrategy>(tiny_model(), 4); },
       nullptr},
      {"robust", [&] { return std::make_unique<RobustStrategy>(init); },
       nullptr},
  };

  FaultConfig flat_faults;
  flat_faults.drop_prob = 0.2;
  flat_faults.dup_prob = 0.1;
  flat_faults.dropout_prob = 0.15;
  flat_faults.seed = 77;
  FaultConfig tree_faults = flat_faults;
  tree_faults.drop_prob = 0.15;
  tree_faults.reorder_prob = 0.15;
  tree_faults.dropout_prob = 0.1;
  tree_faults.leaf_death_prob = 0.2;
  const std::vector<std::pair<const char*,
                              std::function<void(SessionConfig&)>>>
      modes = {
          {"in-process", [](SessionConfig&) {}},
          {"flat", [&](SessionConfig& c) {
             c.with_fabric(flat_faults).with_retries(1, 5.0);
           }},
          {"tree", [&](SessionConfig& c) {
             c.with_fabric(tree_faults).with_tree(3, 4, 2).with_retries(1,
                                                                         5.0);
           }},
      };

  LedgerCoverage cov;
  for (const LedgerRow& row : rows)
    for (const auto& [mode, apply] : modes)
      for (bool half : {false, true}) {
        SessionConfig cfg = SessionConfig::from(ft);
        apply(cfg);
        if (half) cfg.with_precision(Dtype::F16);
        FederationEngine e(
            std::make_unique<LedgerRecorder>(
                row.make(), row.compressor ? row.compressor() : nullptr),
            data, fleet, cfg);
        e.set_selector(std::make_unique<RecordingSelector>());
        e.run();
        expect_sync_ledger(e, std::string(row.name) + " " + mode +
                                  (half ? " fp16" : " fp32"),
                           cov);
      }
  // The table exercised what it claims to.
  EXPECT_GT(cov.lost, 0);
  EXPECT_GT(cov.lost_down, 0);
  EXPECT_GT(cov.multi_task_runs, 0);
  EXPECT_GT(cov.fabric_extra, 0.0);
}

TEST(RoundLedger, AsyncSessionsBillEveryDispatch) {
  // FedBuff: every dispatch bills its downlink, and its compute unless the
  // downlink was lost; a dispatch whose client trained is timed once; an
  // update that arrived bills its uplink. The loop stops dispatching when
  // the last version ships, and the jobs still in flight are billed as
  // lost. Async dispatch draws clients from the engine Rng, so the
  // selector hears nothing.
  auto data = FederatedDataset::generate(tiny_data());
  const auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  const Model init(tiny_model(), rng);
  const AsyncBlock async{6, 4, 5, 0.5};
  FaultConfig faults;
  faults.drop_prob = 0.2;
  faults.dup_prob = 0.1;
  faults.dropout_prob = 0.15;
  faults.seed = 77;
  FaultConfig tree_faults = faults;
  tree_faults.leaf_death_prob = 0.2;

  int lost_down = 0;
  double tree_failover_bytes = 0.0;
  struct Mode {
    const char* name;
    bool fabric;
    bool tree;
  };
  for (const Mode mode : {Mode{"in-process", false, false},
                          Mode{"faulty flat fabric", true, false},
                          Mode{"faulty 3-level tree", true, true}})
    for (bool half : {false, true}) {
      SCOPED_TRACE(std::string(mode.name) + (half ? " fp16" : " fp32"));
      SessionConfig cfg;
      cfg.with_async(async);
      cfg.local.steps = 2;
      cfg.local.batch = 4;
      cfg.seed = 5;
      if (mode.fabric)
        cfg.with_fabric(mode.tree ? tree_faults : faults)
            .with_retries(1, 60.0);
      if (mode.tree) cfg.with_tree(3, 4, 2);
      if (half) cfg.with_precision(Dtype::F16);
      FederationEngine e(
          std::make_unique<LedgerRecorder>(
              std::make_unique<FedAvgStrategy>(init, FedAvgOptions{})),
          data, fleet, cfg);
      e.set_selector(std::make_unique<RecordingSelector>());
      e.run();
      ASSERT_EQ(e.versions_done(), async.aggregations);

      const auto& arrivals = e.strategy_as<LedgerRecorder>().entries();
      int timeouts = 0;
      for (const RoundRecord& rec : e.history()) {
        timeouts += rec.lost_updates;
        EXPECT_EQ(rec.participants, async.buffer_size)
            << "version " << rec.round;
      }
      // Every processed event but the last ship dispatched a replacement.
      const auto dispatches = static_cast<std::uint64_t>(
          async.concurrency + static_cast<int>(arrivals.size()) + timeouts -
          1);
      // One sample per dispatch whose client trained, its client's
      // task_round_time_s; a dispatch whose downlink was lost is not timed.
      const auto& times = e.costs().client_times_s();
      EXPECT_EQ(times.size(), e.costs().client_time_count());
      std::set<double> task_times;
      for (const DeviceProfile& dev : fleet)
        task_times.insert(task_round_time_s(cfg, dev, init));
      for (double t : times) EXPECT_EQ(task_times.count(t), 1u) << t;
      ASSERT_LE(times.size(), dispatches);
      const std::uint64_t downs_lost = dispatches - times.size();
      if (!mode.fabric) {
        EXPECT_EQ(downs_lost, 0u);
      }
      lost_down += static_cast<int>(downs_lost);

      const double bytes = static_cast<double>(init.param_bytes()) *
                           wire_dtype_scale(cfg);
      const double task_macs = 3.0 * static_cast<double>(init.macs()) *
                               cfg.local.steps * cfg.local.batch;
      const FabricExtra extra = fabric_extra(e);
      double macs = 0.0;
      for (const TaskEntry& t : arrivals) macs += t.res.macs_used;
      macs += task_macs * static_cast<double>(dispatches - arrivals.size() -
                                              downs_lost);
      EXPECT_EQ(e.costs().bytes_down(),
                static_cast<double>(dispatches) * bytes + extra.down);
      EXPECT_EQ(e.costs().bytes_up(),
                static_cast<double>(arrivals.size()) * bytes + extra.up);
      EXPECT_EQ(e.costs().total_macs(), macs);
      EXPECT_TRUE(
          dynamic_cast<RecordingSelector&>(e.selector()).reports.empty());
      if (mode.tree)
        tree_failover_bytes += static_cast<double>(
            e.fabric()->stats().failover_bytes_down.load());
    }
  EXPECT_GT(lost_down, 0);
  EXPECT_GT(tree_failover_bytes, 0.0)
      << "a dead leaf's wasted bundle is billed as failover traffic";
}

}  // namespace
}  // namespace fedtrans
