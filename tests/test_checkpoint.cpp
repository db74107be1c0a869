// Checkpoint/resume tests: a FederationEngine restored from a checkpoint
// must continue bit-identically to an uninterrupted run — weights,
// utilities, costs, round history, RNG trajectory and the transformation
// schedule — and a rejected checkpoint must leave the session untouched.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "model/serialize.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {
DatasetConfig tiny_data(int clients = 10) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 20;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 31;
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
  cfg.rounds = 12;
  cfg.clients_per_round = 4;
  cfg.local.steps = 4;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;  // forces transformation as soon as DoC is ready
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 77;
  return cfg;
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

std::unique_ptr<FederationEngine> fedtrans_engine(
    const FederatedDataset& data, std::vector<DeviceProfile> fleet,
    const FedTransConfig& cfg, SessionConfig session) {
  return testing::make_engine<FedTransStrategy>(data, std::move(fleet),
                                                session, tiny_model(), cfg);
}

std::unique_ptr<FederationEngine> fedtrans_engine(
    const FederatedDataset& data, std::vector<DeviceProfile> fleet,
    const FedTransConfig& cfg = fast_cfg()) {
  return fedtrans_engine(data, std::move(fleet), cfg,
                         SessionConfig::from(cfg));
}

void expect_same_state(FederationEngine& ea, FederationEngine& eb) {
  auto& a = ea.strategy_as<FedTransStrategy>();
  auto& b = eb.strategy_as<FedTransStrategy>();
  ASSERT_EQ(a.num_models(), b.num_models());
  EXPECT_EQ(ea.rounds_done(), eb.rounds_done());
  EXPECT_EQ(a.transforms_done(), b.transforms_done());
  for (int k = 0; k < a.num_models(); ++k) {
    EXPECT_EQ(a.model(k).spec(), b.model(k).spec()) << "model " << k;
    auto wa = a.model(k).weights();
    auto wb = b.model(k).weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
          << "model " << k << " tensor " << i;
  }
  // Utilities drive assignment; they must match exactly too.
  const auto& cma = a.client_manager();
  const auto& cmb = b.client_manager();
  for (int c = 0; c < cma.num_clients(); ++c)
    for (int k = 0; k < a.num_models(); ++k)
      EXPECT_EQ(cma.utility(c, k), cmb.utility(c, k))
          << "client " << c << " model " << k;
  EXPECT_EQ(ea.costs().total_macs(), eb.costs().total_macs());
  EXPECT_EQ(ea.costs().network_bytes(), eb.costs().network_bytes());
  EXPECT_EQ(ea.costs().storage_bytes(), eb.costs().storage_bytes());
  ASSERT_EQ(ea.history().size(), eb.history().size());
  for (std::size_t i = 0; i < ea.history().size(); ++i) {
    EXPECT_EQ(ea.history()[i].avg_loss, eb.history()[i].avg_loss) << i;
    EXPECT_EQ(ea.history()[i].cum_macs, eb.history()[i].cum_macs) << i;
  }
}

void run_rounds(FederationEngine& e, int n) {
  for (int r = 0; r < n; ++r) e.run_round();
}

std::string checkpoint_of(const FederationEngine& e) {
  std::stringstream ss;
  e.save_checkpoint(ss);
  return ss.str();
}

template <typename T>
void patch(std::string& bytes, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

TEST(CheckpointTest, RoundTripRestoresIdenticalState) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto a = fedtrans_engine(data, fleet);
  run_rounds(*a, 6);

  std::stringstream ss;
  a->save_checkpoint(ss);

  auto b = fedtrans_engine(data, fleet);
  b->load_checkpoint(ss);
  expect_same_state(*a, *b);
}

TEST(CheckpointTest, ResumedRunReplaysBitIdentically) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);

  // Uninterrupted reference: 6 + 6 rounds.
  auto ref = fedtrans_engine(data, fleet);
  run_rounds(*ref, 6);
  std::stringstream ss;
  ref->save_checkpoint(ss);
  run_rounds(*ref, 6);

  // Interrupted run: restore at round 6, then the same 6 more rounds.
  auto resumed = fedtrans_engine(data, fleet);
  resumed->load_checkpoint(ss);
  EXPECT_EQ(resumed->rounds_done(), 6);
  run_rounds(*resumed, 6);

  expect_same_state(*ref, *resumed);
}

TEST(CheckpointTest, ResumeContinuesTransformationSchedule) {
  // Checkpoint *before* the first transformation; the resumed run must
  // still spawn models on the same schedule as the reference.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();

  auto ref = fedtrans_engine(data, fleet, cfg);
  ref->run_round();
  ref->run_round();
  ASSERT_EQ(ref->strategy_as<FedTransStrategy>().num_models(), 1)
      << "transform fired earlier than expected";
  std::stringstream ss;
  ref->save_checkpoint(ss);
  run_rounds(*ref, cfg.rounds - 2);
  ASSERT_GE(ref->strategy_as<FedTransStrategy>().num_models(), 2);

  auto resumed = fedtrans_engine(data, fleet, cfg);
  resumed->load_checkpoint(ss);
  run_rounds(*resumed, cfg.rounds - 2);
  expect_same_state(*ref, *resumed);
}

TEST(CheckpointTest, RejectsGarbageMagic) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto t = fedtrans_engine(data, fleet);
  std::stringstream ss;
  ss << "not a checkpoint at all";
  EXPECT_THROW(t->load_checkpoint(ss), Error);
}

TEST(CheckpointTest, RejectsTruncatedStream) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto a = fedtrans_engine(data, fleet);
  run_rounds(*a, 3);
  const std::string full = checkpoint_of(*a);
  std::stringstream cut(full.substr(0, full.size() / 2));
  auto b = fedtrans_engine(data, fleet);
  EXPECT_THROW(b->load_checkpoint(cut), Error);
}

TEST(CheckpointTest, RejectsMismatchedSeed) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto a = fedtrans_engine(data, fleet);
  a->run_round();
  std::stringstream ss;
  a->save_checkpoint(ss);

  auto other = fast_cfg();
  other.seed = 1234;
  auto b = fedtrans_engine(data, fleet, other);
  EXPECT_THROW(b->load_checkpoint(ss), Error);
}

TEST(CheckpointTest, RejectsMismatchedFleet) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto a = fedtrans_engine(data, fleet);
  a->run_round();
  std::stringstream ss;
  a->save_checkpoint(ss);

  auto small = FederatedDataset::generate(tiny_data(6));
  auto small_fleet = fleet_with_capacity(6, 5e6);
  auto b = fedtrans_engine(small, small_fleet);
  EXPECT_THROW(b->load_checkpoint(ss), Error);
}

TEST(CheckpointTest, MidTrainingEvaluationUnaffectedBySaving) {
  // Saving is a read-only operation: run → save → run must equal run → run.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto a = fedtrans_engine(data, fleet);
  auto b = fedtrans_engine(data, fleet);
  for (int r = 0; r < 3; ++r) {
    a->run_round();
    std::stringstream ss;
    a->save_checkpoint(ss);  // interleaved saves
    b->run_round();
  }
  expect_same_state(*a, *b);
}

TEST(CheckpointTest, RejectedLoadLeavesSessionUntouched) {
  // A checkpoint cut anywhere must fail as an Error, and the session that
  // refused it must keep running exactly like a twin that never tried —
  // even after cuts deep in the strategy blob, where the engine state and
  // part of the model family had already been read.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto donor = fedtrans_engine(data, fleet);
  run_rounds(*donor, 8);
  ASSERT_GE(donor->strategy_as<FedTransStrategy>().num_models(), 2);
  const std::string full = checkpoint_of(*donor);

  auto session = fedtrans_engine(data, fleet);
  auto twin = fedtrans_engine(data, fleet);
  run_rounds(*session, 3);
  run_rounds(*twin, 3);
  for (std::size_t cut : {std::size_t{0}, std::size_t{30}, full.size() / 8,
                          full.size() / 4, full.size() / 2,
                          3 * full.size() / 4, full.size() - 40,
                          full.size() - 1}) {
    std::stringstream ss(full.substr(0, cut));
    EXPECT_THROW(session->load_checkpoint(ss), Error) << "cut at " << cut;
  }
  expect_same_state(*session, *twin);
  run_rounds(*session, 4);
  run_rounds(*twin, 4);
  expect_same_state(*session, *twin);
}

TEST(CheckpointTest, HostileCountsThrowInsteadOfAllocating) {
  // FedYogi keeps two weight-sized moment sets per model, so the blob holds
  // optimizer weight sets. Each count the loader sizes an allocation from
  // — the history length, an optimizer weight-set length, a tensor dim, a
  // model spec's width — patched to a huge value must fail as an Error,
  // not as bad_alloc.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();
  cfg.server_opt = ServerOptKind::FedYogi;
  auto a = fedtrans_engine(data, fleet, cfg);
  run_rounds(*a, 3);
  const std::string full = checkpoint_of(*a);

  // Layout: … [u64 history count][history] [strategy blob]; the blob opens
  // with [u32 model count][i32 id][i32 created_round][model 0]
  // [model 0's FedYogi m: u32 count, tensors…][v: …].
  auto& ft = a->strategy_as<FedTransStrategy>();
  std::stringstream blob, model0;
  ft.save_state(blob);
  save_model(ft.model(0), model0);
  const std::size_t blob_at = full.size() - blob.str().size();
  std::size_t history_bytes = 0;
  for (const RoundRecord& r : a->history()) {
    ASSERT_TRUE(r.byzantine_clients.empty());
    history_bytes += 5 * sizeof(std::int32_t) + 5 * sizeof(double) +
                     sizeof(std::uint64_t);
  }
  const std::size_t history_count_at =
      blob_at - history_bytes - sizeof(std::uint64_t);
  const std::size_t moment_count_at =
      blob_at + 3 * sizeof(std::int32_t) + model0.str().size();
  const std::size_t tensor_dim_at =
      moment_count_at + sizeof(std::uint32_t) + sizeof(std::int32_t);

  std::uint64_t hist = 0;
  std::memcpy(&hist, full.data() + history_count_at, sizeof(hist));
  ASSERT_EQ(hist, a->history().size()) << "layout drifted";
  std::uint32_t moments = 0;
  std::memcpy(&moments, full.data() + moment_count_at, sizeof(moments));
  ASSERT_EQ(moments, ft.model(0).weights().size()) << "layout drifted";
  std::int32_t dim = 0;
  std::memcpy(&dim, full.data() + tensor_dim_at, sizeof(dim));
  ASSERT_EQ(dim, ft.model(0).weights().front().dim(0)) << "layout drifted";

  auto b = fedtrans_engine(data, fleet, cfg);
  auto expect_rejected = [&](std::string bytes, const char* what) {
    std::stringstream ss(bytes);
    EXPECT_THROW(b->load_checkpoint(ss), Error) << what;
  };
  std::string bytes = full;
  patch<std::uint64_t>(bytes, history_count_at, std::uint64_t{1} << 40);
  expect_rejected(bytes, "history count");
  bytes = full;
  patch<std::uint32_t>(bytes, moment_count_at, 0xffffffffu);
  expect_rejected(bytes, "optimizer weight-set count");
  bytes = full;
  patch<std::int32_t>(bytes, tensor_dim_at, 0x7fffffff);
  expect_rejected(bytes, "tensor dim");

  // Model 0 opens with [u32 magic][u32 spec length][spec text]. A spec
  // whose first Cell is 2·10^9 wide would size a 288 GB conv weight if
  // the loader built the model before checking the spec.
  const std::size_t spec_at = blob_at + 3 * sizeof(std::int32_t) +
                              2 * sizeof(std::uint32_t);
  const std::string spec_text = ft.model(0).spec().serialize();
  ASSERT_EQ(full.compare(spec_at, spec_text.size(), spec_text), 0)
      << "layout drifted";
  ModelSpec wide = ft.model(0).spec();
  wide.cells.front().width = 2000000000;
  const std::string wide_text = wide.serialize();
  bytes = full.substr(0, spec_at - sizeof(std::uint32_t));
  const auto wide_len = static_cast<std::uint32_t>(wide_text.size());
  bytes.append(reinterpret_cast<const char*>(&wide_len), sizeof(wide_len));
  bytes += wide_text;
  bytes += full.substr(spec_at + spec_text.size());
  expect_rejected(bytes, "model width");

  // The untouched checkpoint still loads.
  std::stringstream ok(full);
  b->load_checkpoint(ok);
  expect_same_state(*a, *b);
}

TEST(CheckpointTest, TreeFabricSessionResumesBitwise) {
  // Round-keyed faults (client dropout, leaf death) draw from (seed,
  // round, …) alone, so they resume like the fault-free tree does.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FaultConfig round_keyed;
  round_keyed.dropout_prob = 0.2;
  round_keyed.leaf_death_prob = 0.2;
  for (const FaultConfig& faults : {FaultConfig{}, round_keyed}) {
    auto cfg = fast_cfg();
    cfg.rounds = 8;
    SessionConfig session = SessionConfig::from(cfg);
    session.with_fabric(faults).with_tree(3, 4);

    auto ref = fedtrans_engine(data, fleet, cfg, session);
    run_rounds(*ref, 4);
    std::stringstream ss;
    ref->save_checkpoint(ss);
    run_rounds(*ref, 4);

    auto resumed = fedtrans_engine(data, fleet, cfg, session);
    resumed->load_checkpoint(ss);
    run_rounds(*resumed, 4);
    expect_same_state(*ref, *resumed);
    for (std::size_t r = 0; r < ref->history().size(); ++r) {
      EXPECT_EQ(ref->history()[r].participants,
                resumed->history()[r].participants);
      EXPECT_EQ(ref->history()[r].lost_updates,
                resumed->history()[r].lost_updates);
      EXPECT_EQ(ref->history()[r].leaf_failovers,
                resumed->history()[r].leaf_failovers);
    }
  }
}

TEST(CheckpointTest, RefusesSequenceKeyedFabricFaults) {
  // Drop / duplicate / reorder draws are keyed by each link's frame
  // sequence number, which a resumed transport restarts at zero.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  for (int kind = 0; kind < 3; ++kind) {
    FaultConfig faults;
    (kind == 0 ? faults.drop_prob
               : kind == 1 ? faults.dup_prob : faults.reorder_prob) = 0.15;
    auto cfg = fast_cfg();
    SessionConfig session = SessionConfig::from(cfg);
    session.with_fabric(faults);
    auto e = fedtrans_engine(data, fleet, cfg, session);
    e->run_round();
    std::stringstream ss;
    try {
      e->save_checkpoint(ss);
      ADD_FAILURE() << "save accepted fault kind " << kind;
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("sequence number"),
                std::string::npos)
          << err.what();
    }
    EXPECT_EQ(ss.str().size(), 0u) << "refusal must come before any byte";

    auto clean = fedtrans_engine(data, fleet);
    std::stringstream good(checkpoint_of(*clean));
    EXPECT_THROW(e->load_checkpoint(good), Error) << "fault kind " << kind;
  }
}

TEST(CheckpointTest, StrategiesWithoutHooksRefuseByName) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(3);
  auto e = testing::make_engine<FedAvgStrategy>(
      data, fleet, SessionConfig{}, Model(tiny_model(), rng), FedAvgOptions{});
  std::stringstream ss;
  try {
    e->save_checkpoint(ss);
    ADD_FAILURE() << "fedavg has no checkpoint hooks";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("fedavg"), std::string::npos)
        << err.what();
  }
  auto ft = fedtrans_engine(data, fleet);
  std::stringstream good(checkpoint_of(*ft));
  EXPECT_THROW(e->load_checkpoint(good), Error);
}

// ---------------------------------------------------------- scaling policy

TEST(ScalingPolicyTest, WidenOnlyNeverDeepens) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::WidenOnly;
  cfg.max_models = 4;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  auto& t = engine->strategy_as<FedTransStrategy>();
  ASSERT_GE(t.num_models(), 2);
  const auto n_cells0 = t.model(0).spec().cells.size();
  for (int k = 1; k < t.num_models(); ++k)
    EXPECT_EQ(t.model(k).spec().cells.size(), n_cells0)
        << "widen-only must not insert cells";
}

TEST(ScalingPolicyTest, DeepenOnlyNeverWidens) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::DeepenOnly;
  cfg.max_models = 4;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  auto& t = engine->strategy_as<FedTransStrategy>();
  ASSERT_GE(t.num_models(), 2);
  // Widths of surviving (lineage-matched) cells never change; depth grows.
  for (int k = 1; k < t.num_models(); ++k) {
    EXPECT_GT(t.model(k).spec().cells.size(),
              t.model(k - 1).spec().cells.size());
    for (const auto& cell : t.model(k).spec().cells)
      EXPECT_TRUE(cell.width == 6 || cell.width == 8)
          << "deepen-only must keep the original widths";
  }
}

TEST(ScalingPolicyTest, CompoundAlternatesOperations) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::Compound;
  cfg.max_models = 4;
  auto engine = fedtrans_engine(data, fleet, cfg);
  engine->run();
  auto& t = engine->strategy_as<FedTransStrategy>();
  ASSERT_GE(t.num_models(), 3);
  // Generation 1 widens (fresh cells start un-widened); a later generation
  // must have inserted at least one cell (the deepen half of the cycle).
  bool saw_width_growth = false, saw_depth_growth = false;
  for (int k = 1; k < t.num_models(); ++k) {
    if (t.model(k).spec().cells.size() >
        t.model(k - 1).spec().cells.size())
      saw_depth_growth = true;
    for (const auto& cell : t.model(k).spec().cells)
      if (cell.width > 8) saw_width_growth = true;
  }
  EXPECT_TRUE(saw_width_growth);
  EXPECT_TRUE(saw_depth_growth);
}

TEST(ScalingPolicyTest, NamesAreStable) {
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::Compound), "compound");
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::WidenOnly), "widen-only");
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::DeepenOnly), "deepen-only");
}

}  // namespace
}  // namespace fedtrans
