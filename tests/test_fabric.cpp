// Federation-fabric tests: (1) a fault-free fabric run — wire protocol +
// simulated transport + multithreaded FederationServer — is bitwise
// identical to the direct in-process FedAvg path, across seeds and thread
// counts; (2) under message loss and client dropout, rounds still terminate
// and every lost update is accounted in CostMeter/RoundRecord; (3) the
// simulated transport's fault injection is deterministic and its byte
// accounting is exact; (4) hierarchical rounds — 2-level shards and deep
// (3/4-level) trees of any branching — are bitwise identical to flat ones
// for FedAvg, FedTrans and HeteroFL; (5) the retry policy resends lost
// UpdateUps within max_retries and counts exhausted retries as lost
// updates, with resend traffic billed; (6) fabric-backed async (FedBuff)
// sessions complete over real messages with delivery-time completion
// ordering, flat or routed through the tree (bitwise-equal when
// fault-free), and agree with in-process async sessions; (7) numeric partial aggregation matches flat reductions
// within 1e-5 relative tolerance, keeps metrics/billing bitwise, and is
// bitwise self-consistent across thread counts (and across shard counts
// with singleton leaves); (8) dead leaves fail over to siblings with the
// redirect billed and recorded.

#include <gtest/gtest.h>

#include <functional>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 16;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n, std::uint64_t seed = 9) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = seed;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

SessionConfig base_cfg(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 6;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(FederationEngine& a, FederationEngine& b) {
  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;

  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r) {
    const auto& ra = a.history()[r];
    const auto& rb = b.history()[r];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.avg_loss, rb.avg_loss) << "round " << r;
    EXPECT_EQ(ra.cum_macs, rb.cum_macs) << "round " << r;
    EXPECT_EQ(ra.round_time_s, rb.round_time_s) << "round " << r;
    EXPECT_EQ(ra.accuracy, rb.accuracy) << "round " << r;
    EXPECT_EQ(ra.participants, rb.participants) << "round " << r;
    EXPECT_EQ(ra.lost_updates, rb.lost_updates) << "round " << r;
    EXPECT_EQ(ra.leaf_failovers, rb.leaf_failovers) << "round " << r;
  }
  EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
  EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
}

TEST(FabricParityTest, FaultFreeFabricMatchesInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);

    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig in_proc = base_cfg(seed);
      FederationEngine a(testing::fedavg(init), data, fleet, in_proc);
      a.run();

      SessionConfig on_fabric = base_cfg(seed);
      on_fabric.use_fabric = true;
      FederationEngine b(testing::fedavg(init), data, fleet, on_fabric);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->stats().frames_dropped.load(), 0u);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
          << "undecodable frames on a clean transport mean a codec bug";
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(FabricParityTest, FabricWithStragglerPolicyMatchesInProcess) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  Rng rng(5);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(21);
  FedAvgOptions opts;
  opts.overcommit = 0.5;
  opts.deadline_quantile = 0.7;  // deadline-trim the straggler tail
  FederationEngine a(testing::fedavg(init, opts), data, fleet, cfg);
  a.run();

  SessionConfig fab = cfg;
  fab.use_fabric = true;
  FederationEngine b(testing::fedavg(init, opts), data, fleet, fab);
  b.run();
  expect_identical(a, b);
  // With over-selection some rounds must actually drop stragglers.
  int lost = 0;
  for (const auto& rec : b.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0);
}

TEST(FabricFaultTest, RoundsTerminateAndLossesAreAccounted) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 5;
  cfg.eval_every = 0;
  FedAvgOptions opts;
  opts.overcommit = 0.4;
  opts.deadline_quantile = 0.8;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.25;
  cfg.fabric_faults.dup_prob = 0.15;
  cfg.fabric_faults.reorder_prob = 0.2;
  cfg.fabric_faults.dropout_prob = 0.25;
  cfg.fabric_faults.seed = 1234;

  FederationEngine runner(testing::fedavg(init, opts), data, fleet, cfg);
  runner.run();  // must terminate despite lost invitations/models/updates

  ASSERT_EQ(runner.history().size(), static_cast<std::size_t>(cfg.rounds));
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    EXPECT_GE(rec.participants, 0);
    EXPECT_GE(rec.lost_updates, 0);
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0) << "some updates must still get through";
  EXPECT_GT(lost, 0) << "heavy fault injection must lose some updates";

  // CostMeter consistency with the per-round records: each aggregated
  // update moved the model down and up (2 × model bytes, no compression);
  // each lost update still burned its downlink.
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost), 1.0);

  // Fault machinery actually fired.
  ASSERT_NE(runner.fabric(), nullptr);
  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.frames_dropped.load(), 0u);
  EXPECT_GT(stats.frames_duplicated.load(), 0u);
  EXPECT_GT(stats.frames_reordered.load(), 0u);
  EXPECT_GT(stats.client_dropouts.load(), 0u);
  EXPECT_GT(stats.frames_sent.load(), stats.frames_dropped.load());
  // Fault injection drops/duplicates/reorders whole frames — it never
  // corrupts bytes, so nothing should have failed to decode.
  EXPECT_EQ(stats.frames_rejected.load(), 0u);
}

TEST(FabricFaultTest, FaultRunsAreDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = tiny_fleet(8);
  Rng rng(2);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg = base_cfg(13);
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.dropout_prob = 0.2;

  ThreadPool::set_global_threads(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(testing::fedavg(init), data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  EXPECT_EQ(a.fabric()->stats().frames_dropped.load(),
            b.fabric()->stats().frames_dropped.load());
}

TEST(SimTransportTest, DeterministicFaultsAndExactByteAccounting) {
  auto fleet = tiny_fleet(4);
  FaultConfig faults;
  faults.drop_prob = 0.5;
  faults.seed = 77;

  auto run_once = [&] {
    SimTransport net(fleet, faults);
    std::vector<bool> delivered;
    for (int i = 0; i < 32; ++i)
      delivered.push_back(net.send(kServerId, i % 4,
                                   std::string("payload-") +
                                       std::to_string(i)));
    return std::make_pair(delivered, net.stats().bytes_delivered.load());
  };
  auto [d1, bytes1] = run_once();
  auto [d2, bytes2] = run_once();
  EXPECT_EQ(d1, d2) << "fault draws must be schedule-independent";
  EXPECT_EQ(bytes1, bytes2);

  // Delivered frames arrive in (deliver_at, seq) order per mailbox and
  // byte counters match exactly what was enqueued.
  SimTransport net(fleet, FaultConfig{});
  EXPECT_TRUE(net.send(kServerId, 1, "aaaa"));
  EXPECT_TRUE(net.send(kServerId, 1, "bb"));
  EXPECT_TRUE(net.send(1, kServerId, "cc", /*sent_at_s=*/2.0));
  auto inbox = net.drain(1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_LE(inbox[0].deliver_at_s, inbox[1].deliver_at_s);
  EXPECT_EQ(net.stats().bytes_sent.load(), 8u);
  EXPECT_EQ(net.stats().bytes_delivered.load(), 8u);
  auto server_box = net.drain(kServerId);
  ASSERT_EQ(server_box.size(), 1u);
  EXPECT_GT(server_box[0].deliver_at_s, 2.0);
  EXPECT_TRUE(net.drain(kServerId).empty());
}

TEST(SimTransportTest, ReorderingDelaysDeliveryTimestamps) {
  auto fleet = tiny_fleet(2);
  SimTransport clean(fleet, FaultConfig{});
  FaultConfig faults;
  faults.reorder_prob = 1.0;
  SimTransport shuffled(fleet, faults);
  ASSERT_TRUE(clean.send(kServerId, 0, "0123456789abcdef"));
  ASSERT_TRUE(shuffled.send(kServerId, 0, "0123456789abcdef"));
  auto a = clean.drain(0);
  auto b = shuffled.drain(0);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // A reordered frame lands one extra link transfer later in simulated
  // time — twice the clean latency for a single frame.
  EXPECT_DOUBLE_EQ(b[0].deliver_at_s, 2.0 * a[0].deliver_at_s);
  EXPECT_EQ(shuffled.stats().frames_reordered.load(), 1u);
}

TEST(SimTransportTest, DuplicatesAreDeliveredTwiceAndDeduplicatedUpstream) {
  auto fleet = tiny_fleet(2);
  FaultConfig faults;
  faults.dup_prob = 1.0;
  SimTransport net(fleet, faults);
  EXPECT_TRUE(net.send(kServerId, 0, "hello"));
  auto inbox = net.drain(0);
  EXPECT_EQ(inbox.size(), 2u);
  EXPECT_EQ(net.stats().frames_duplicated.load(), 1u);
}

TEST(SimTransportTest, AggregatorEndpointsAreBackboneLinks) {
  auto fleet = tiny_fleet(2);
  SimTransport net(fleet, FaultConfig{}, /*num_aggregators=*/2);
  // Root ↔ aggregator traffic rides the free backbone: zero latency.
  EXPECT_TRUE(net.send(kServerId, aggregator_id(0), "bundle"));
  EXPECT_TRUE(net.send(aggregator_id(1), kServerId, "partial", 3.0));
  auto agg0 = net.drain(aggregator_id(0));
  ASSERT_EQ(agg0.size(), 1u);
  EXPECT_DOUBLE_EQ(agg0[0].deliver_at_s, 0.0);
  auto root = net.drain(kServerId);
  ASSERT_EQ(root.size(), 1u);
  EXPECT_DOUBLE_EQ(root[0].deliver_at_s, 3.0);
  // Aggregator → client keeps the client's radio latency.
  EXPECT_TRUE(net.send(aggregator_id(0), 1, "0123456789abcdef"));
  auto client = net.drain(1);
  ASSERT_EQ(client.size(), 1u);
  EXPECT_GT(client[0].deliver_at_s, 0.0);
}

// ---------------------------------------------------------------------------
// Sharded (hierarchical) aggregation: a 2-level tree of shard aggregators
// must be bitwise identical to the flat FederationServer when fault-free —
// the bundles carry per-task updates verbatim and the engine's fixed-order
// reduction is untouched.

TEST(ShardedParityTest, FedAvgShardedMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);

    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig flat = base_cfg(seed);
      flat.use_fabric = true;
      FederationEngine a(testing::fedavg(init), data, fleet, flat);
      a.run();

      SessionConfig sharded = base_cfg(seed);
      sharded.use_fabric = true;
      sharded.topology.levels = 2;
      sharded.topology.shards = 3;
      FederationEngine b(testing::fedavg(init), data, fleet, sharded);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_TRUE(b.fabric()->sharded());
      EXPECT_EQ(b.fabric()->stats().frames_dropped.load(), 0u);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
          << "undecodable frames on a clean transport mean a codec bug";
      EXPECT_EQ(b.fabric()->stats().frames_retried.load(), 0u);
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedParityTest, ShardCountSweepAllMatchInProcess) {
  // 1, 2 and 4 shards (including the degenerate one-leaf tree) all
  // reproduce the in-process run exactly; the root's downlink fan-out
  // shrinks with the shard count while client traffic stays put.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(9);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(5);
  FederationEngine ref(testing::fedavg(init), data, fleet, cfg);
  ref.run();

  for (int shards : {1, 2, 4}) {
    SessionConfig sh = base_cfg(5);
    sh.use_fabric = true;
    sh.topology.levels = 2;
    sh.topology.shards = shards;
    FederationEngine b(testing::fedavg(init), data, fleet, sh);
    b.run();
    expect_identical(ref, b);
  }
}

TEST(ShardedParityTest, FedTransShardedMatchesFlatBitwise) {
  // The growing multi-model family over the sharded tree: family payloads
  // ride the ShardDown body table, partial aggregates reassemble at the
  // root, and the trajectory (including transformations) stays bit-exact.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {13ULL, 29ULL}) {
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
      cfg.seed = seed;
      SessionConfig session = SessionConfig::from(cfg);
      session.use_fabric = true;

      FederationEngine a(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                         data, fleet, session);
      session.topology.levels = 2;
      session.topology.shards = 2;
      FederationEngine b(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                         data, fleet, session);
      a.run();
      b.run();
      auto& fa = a.strategy_as<FedTransStrategy>();
      auto& fb = b.strategy_as<FedTransStrategy>();

      ASSERT_EQ(fa.num_models(), fb.num_models());
      EXPECT_GE(fa.num_models(), 2) << "transformation should have fired";
      for (int k = 0; k < fa.num_models(); ++k) {
        auto wa = fa.model(k).weights();
        auto wb = fb.model(k).weights();
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t i = 0; i < wa.size(); ++i)
          EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
              << "model " << k << " tensor " << i;
      }
      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].accuracy, b.history()[r].accuracy);
      }
      EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedParityTest, HeteroFLShardedMatchesFlatBitwise) {
  // Ladder submodels over the tree: each shard bundle's body table holds
  // one encoding per capacity level present in the shard.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {7ULL, 19ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      SessionConfig cfg;
      cfg.rounds = 4;
      cfg.clients_per_round = 5;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.eval_every = 2;
      cfg.eval_clients = 6;
      cfg.seed = seed;
      cfg.use_fabric = true;

      FederationEngine a(std::make_unique<HeteroFLStrategy>(tiny_model()),
                         data, fleet, cfg);
      cfg.topology.levels = 2;
      cfg.topology.shards = 3;
      FederationEngine b(std::make_unique<HeteroFLStrategy>(tiny_model()),
                         data, fleet, cfg);
      a.run();
      b.run();

      auto wa = a.strategy_as<HeteroFLStrategy>().global().weights();
      auto wb = b.strategy_as<HeteroFLStrategy>().global().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss,
                  b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].accuracy,
                  b.history()[r].accuracy);
      }
      EXPECT_EQ(a.costs().network_bytes(),
                b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedFaultTest, ShardedFaultRunsTerminateDeterministically) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.fabric_faults.drop_prob = 0.2;
  cfg.fabric_faults.dup_prob = 0.1;
  cfg.fabric_faults.dropout_prob = 0.2;
  cfg.fabric_faults.seed = 321;

  ThreadPool::set_global_threads(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(testing::fedavg(init), data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  int participants = 0, lost = 0;
  for (const auto& rec : a.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0);
  EXPECT_GT(lost, 0);
}

TEST(ShardedFaultTest, ShardedRetriesRecoverBundlesAndReconcileBilling) {
  // The sharded-only retry paths: lost ShardDown bundles (downlink,
  // retry_bytes_down) and lost PartialUp bundles / UpdateUps (uplink) are
  // resent and billed; the CostMeter reconciles byte-exactly against the
  // transport's retry counters, same as the flat invariant.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.topology.max_retries = 2;
  cfg.topology.ack_timeout_s = 5.0;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.seed = 42;

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 6u);
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0);

  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.frames_retried.load(), 0u);
  EXPECT_GT(stats.retry_bytes_down.load(), 0u)
      << "a 30% drop rate over 18 ShardDown bundles must lose at least one";
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double retry_bytes =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + retry_bytes, 1.0);
}

// ---------------------------------------------------------------------------
// Retry / ack-timeout policy: lost UpdateUps are resent (flagged on the
// wire, billed through CostMeter); exhausted budgets surface as
// RoundRecord::lost_updates.

TEST(RetryPolicyTest, DroppedUpdatesAreResentWithinBudget) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.25;
  cfg.fabric_faults.seed = 77;

  FederationEngine no_retry(testing::fedavg(init), data, fleet, cfg);
  no_retry.run();

  cfg.topology.max_retries = 3;
  cfg.topology.ack_timeout_s = 5.0;
  FederationEngine with_retry(testing::fedavg(init), data, fleet, cfg);
  with_retry.run();

  int p0 = 0, p1 = 0, lost1 = 0;
  for (const auto& rec : no_retry.history()) p0 += rec.participants;
  for (const auto& rec : with_retry.history()) {
    p1 += rec.participants;
    lost1 += rec.lost_updates;
  }
  const FabricStats& stats = with_retry.fabric()->stats();
  EXPECT_GT(stats.frames_retried.load(), 0u)
      << "drop_prob = 0.25 over 4 rounds must lose at least one UpdateUp";
  EXPECT_GT(p1, p0) << "retries must recover updates the no-retry run lost";
  ASSERT_EQ(with_retry.history().size(), 4u)
      << "rounds must complete under the retry policy";

  // Billing: every aggregated update moved the model down and up once, every
  // lost update spent its downlink, and every resend attempt is billed on
  // top — exactly the transport's retry byte counters.
  const double model_bytes = static_cast<double>(
      with_retry.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double retry_bytes =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load());
  EXPECT_GT(retry_bytes, 0.0);
  EXPECT_NEAR(with_retry.costs().network_bytes(),
              model_bytes * (2.0 * p1 + lost1) + retry_bytes, 1.0);
}

TEST(RetryPolicyTest, ExhaustedRetriesCountAsLostUpdates) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.55;
  cfg.fabric_faults.seed = 123;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 5.0;

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 5u);
  int lost = 0;
  for (const auto& rec : runner.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0)
      << "a 0.55 drop rate with one retry must exhaust some budgets";
  EXPECT_GT(runner.fabric()->stats().frames_retried.load(), 0u);

  // Determinism: the same faulty retry run replays bit-identically.
  FederationEngine again(testing::fedavg(init), data, fleet, cfg);
  again.run();
  expect_identical(runner, again);
}

// ---------------------------------------------------------------------------
// Fabric-backed async FedBuff: the event loop runs over real ModelDown /
// UpdateUp messages, completions are ordered by server-side delivery time,
// and ack-timeouts replace lost clients.

TEST(AsyncFabricTest, FaultFreeSessionCompletesWithDeliveryOrdering) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;

  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 3;
  cfg.eval_clients = 6;
  cfg.seed = 42;
  cfg.use_fabric = true;

  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();

  EXPECT_EQ(runner.versions_done(), cfg.async.aggregations);
  ASSERT_EQ(runner.history().size(),
            static_cast<std::size_t>(cfg.async.aggregations));
  // Delivery-time completion ordering: versions ship at nondecreasing
  // simulated instants, and no update was lost on a clean transport.
  double prev = 0.0;
  for (const auto& rec : runner.history()) {
    EXPECT_GE(rec.round_time_s, prev);
    prev = rec.round_time_s;
    EXPECT_EQ(rec.lost_updates, 0);
  }
  EXPECT_GT(runner.now_s(), 0.0);
  EXPECT_GE(runner.mean_staleness(), 0.0);

  const FederationServer* fabric = runner.fabric();
  ASSERT_NE(fabric, nullptr);
  EXPECT_GT(fabric->stats().frames_sent.load(), 0u);
  EXPECT_EQ(fabric->stats().frames_dropped.load(), 0u);
  EXPECT_EQ(fabric->stats().frames_rejected.load(), 0u)
      << "undecodable frames on a clean transport mean a codec bug";

  // The engine billed each absorbed update's down+up transfer through the
  // strategy, so the meter moves.
  EXPECT_GT(runner.costs().network_bytes(), 0.0);
  EXPECT_GT(runner.costs().total_macs(), 0.0);
}

TEST(AsyncFabricTest, DeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = tiny_fleet(8);
  Rng rng(2);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg;

  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 5;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 13;
  cfg.use_fabric = true;

  ThreadPool::set_global_threads(1);
  FederationEngine a(std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}),
                     data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}),
                     data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  EXPECT_EQ(a.now_s(), b.now_s());
  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r)
    EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
}

TEST(AsyncFabricTest, FaultyAsyncSessionAccountsLostUpdates) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;

  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 4;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 6;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 7;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.dropout_prob = 0.15;
  cfg.fabric_faults.seed = 55;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 30.0;

  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();  // must terminate: timeouts replace lost clients

  EXPECT_EQ(runner.versions_done(), cfg.async.aggregations);
  int lost = 0;
  for (const auto& rec : runner.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0) << "heavy fault injection must lose some updates";
  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.frames_dropped.load(), 0u);
  EXPECT_GT(stats.frames_retried.load(), 0u);
  EXPECT_EQ(stats.frames_rejected.load(), 0u);

  // The ack-timeout is retry-aware (one timeout per allowed uplink
  // attempt), so a resent update can actually land and be folded in —
  // the same session without a retry budget must lose strictly more.
  cfg.topology.max_retries = 0;
  FederationEngine no_retry(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  no_retry.run();
  int lost0 = 0;
  for (const auto& rec : no_retry.history()) lost0 += rec.lost_updates;
  EXPECT_LT(lost, lost0)
      << "retries must recover updates the no-retry run times out on";
}

TEST(AsyncFabricTest, InProcessAgreesWithFabric) {
  // One FedBuff event loop for both paths: each client trains at dispatch
  // on the weights it downloaded. The two paths time completions
  // differently (client_round_time_s vs per-frame link latency), which may
  // reorder jobs inside one buffer, so the match is close, not bitwise.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 42;

  FederationEngine in_process(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  in_process.run();
  cfg.use_fabric = true;
  FederationEngine fabric(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  fabric.run();

  EXPECT_EQ(in_process.versions_done(), fabric.versions_done());
  EXPECT_EQ(in_process.mean_staleness(), fabric.mean_staleness());
  ASSERT_EQ(in_process.history().size(), fabric.history().size());
  for (std::size_t v = 0; v < fabric.history().size(); ++v)
    EXPECT_NEAR(in_process.history()[v].avg_loss,
                fabric.history()[v].avg_loss, 1e-6)
        << "version " << v + 1;
  auto wa = in_process.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = fabric.strategy_as<FedAvgStrategy>().model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_LT(testing::max_abs_diff(wa[i], wb[i]), 1e-5) << "tensor " << i;
}

TEST(AsyncFabricTest, FaultFreeFabricBillsWhatInProcessBills) {
  // A dispatch is a one-task round billed and timed by the round ledger,
  // whichever way it crosses: fault-free flat and tree sessions bill the
  // in-process session's MACs and bytes and its client times, bitwise,
  // even where link latency reorders completions inside a buffer.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  for (bool half : {false, true}) {
    SCOPED_TRACE(half ? "fp16" : "fp32");
    SessionConfig cfg;
    cfg.with_async(AsyncBlock{3, 2, 6, 0.5});
    cfg.local.steps = 3;
    cfg.local.batch = 6;
    cfg.seed = 42;
    if (half) cfg.with_precision(Dtype::F16);
    FederationEngine in_process(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
        cfg);
    in_process.run();
    const CostMeter& want = in_process.costs();
    ASSERT_GT(want.client_time_count(), 0u);

    for (int levels : {1, 3}) {
      SCOPED_TRACE("levels=" + std::to_string(levels));
      SessionConfig fcfg = cfg;
      fcfg.with_fabric();
      if (levels > 1) fcfg.with_tree(levels, 3, 2);
      FederationEngine fabric(
          std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
          fcfg);
      fabric.run();
      const CostMeter& got = fabric.costs();
      EXPECT_EQ(got.total_macs(), want.total_macs());
      EXPECT_EQ(got.bytes_down(), want.bytes_down());
      EXPECT_EQ(got.bytes_up(), want.bytes_up());
      EXPECT_EQ(got.client_times_s(), want.client_times_s());
      EXPECT_EQ(fabric.fabric()->stats().frames_rejected.load(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Deep aggregation trees (levels >= 3): verbatim bundles split down the
// interior tiers and merge back up must leave every round bitwise identical
// to the flat fabric (which is itself bitwise identical to in-process).

TEST(DeepTreeParityTest, FedAvgThreeLevelMatchesInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig in_proc = base_cfg(seed);
      FederationEngine a(testing::fedavg(init), data, fleet, in_proc);
      a.run();

      SessionConfig tree = base_cfg(seed);
      tree.use_fabric = true;
      tree.topology.levels = 3;
      tree.topology.shards = 4;
      tree.topology.branching = 2;
      FederationEngine b(testing::fedavg(init), data, fleet, tree);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->tree().levels(), 3);
      EXPECT_EQ(b.fabric()->tree().num_aggregators(), 4 + 2);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(DeepTreeParityTest, DepthAndBranchingSweepAllMatchInProcess) {
  // 3-level and 4-level trees, branching 2/3 and the auto fan-out, plus a
  // degenerate chain (branching 1): every fault-free shape reproduces the
  // in-process run exactly.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(9);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(5);
  FederationEngine ref(testing::fedavg(init), data, fleet, cfg);
  ref.run();

  struct Shape {
    int levels, shards, branching;
  };
  for (const Shape& s : {Shape{3, 4, 2}, Shape{3, 6, 3}, Shape{3, 5, 0},
                         Shape{4, 8, 2}, Shape{4, 3, 1}}) {
    SessionConfig tree = base_cfg(5);
    tree.use_fabric = true;
    tree.topology.levels = s.levels;
    tree.topology.shards = s.shards;
    tree.topology.branching = s.branching;
    FederationEngine b(testing::fedavg(init), data, fleet, tree);
    b.run();
    expect_identical(ref, b);
    EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
        << "levels=" << s.levels << " shards=" << s.shards
        << " branching=" << s.branching;
  }
}

TEST(DeepTreeParityTest, FedTransThreeLevelMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {13ULL, 29ULL}) {
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
      cfg.seed = seed;
      SessionConfig session = SessionConfig::from(cfg);
      session.use_fabric = true;

      FederationEngine a(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                         data, fleet, session);
      session.topology.levels = 3;
      session.topology.shards = 4;
      session.topology.branching = 2;
      FederationEngine b(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                         data, fleet, session);
      a.run();
      b.run();
      auto& fa = a.strategy_as<FedTransStrategy>();
      auto& fb = b.strategy_as<FedTransStrategy>();

      ASSERT_EQ(fa.num_models(), fb.num_models());
      for (int k = 0; k < fa.num_models(); ++k) {
        auto wa = fa.model(k).weights();
        auto wb = fb.model(k).weights();
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t i = 0; i < wa.size(); ++i)
          EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
              << "model " << k << " tensor " << i;
      }
      EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(DeepTreeParityTest, HeteroFLThreeLevelMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {7ULL, 19ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      SessionConfig cfg;
      cfg.rounds = 4;
      cfg.clients_per_round = 5;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.eval_every = 2;
      cfg.eval_clients = 6;
      cfg.seed = seed;
      cfg.use_fabric = true;

      FederationEngine a(std::make_unique<HeteroFLStrategy>(tiny_model()),
                         data, fleet, cfg);
      cfg.topology.levels = 3;
      cfg.topology.shards = 4;
      cfg.topology.branching = 2;
      FederationEngine b(std::make_unique<HeteroFLStrategy>(tiny_model()),
                         data, fleet, cfg);
      a.run();
      b.run();

      auto wa = a.strategy_as<HeteroFLStrategy>().global().weights();
      auto wb = b.strategy_as<HeteroFLStrategy>().global().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      EXPECT_EQ(a.costs().network_bytes(),
                b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// Numeric partial aggregation: pre-summing at the aggregators must match
// the flat reduction to numeric tolerance, keep the metric trajectory
// (losses, participants, billing) bitwise, and stay bitwise
// self-consistent across thread counts — and across shard counts when each
// leaf holds at most one update (the reduction order is then slot order
// regardless of the tree).

double max_rel_diff(const WeightSet& a, const WeightSet& b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, testing::max_abs_diff(a[i], b[i]));
    for (std::int64_t j = 0; j < a[i].numel(); ++j)
      den = std::max(den, std::fabs(static_cast<double>(a[i][j])));
  }
  return num / std::max(den, 1e-12);
}

/// One row of the numeric-tree parity table: a linear strategy, the
/// session it runs flat (in-process) and the tree it then runs numerically.
struct NumericCase {
  const char* name;
  std::function<std::unique_ptr<Strategy>()> make;
  /// Every server-side model, in a fixed order.
  std::function<std::vector<WeightSet>(FederationEngine&)> weights;
  SessionConfig session;
  std::vector<DeviceProfile> fleet;
  int levels;
  int shards;
  int branching;
};

std::vector<WeightSet> submodel_weights(FederationEngine& e) {
  return {static_cast<SubmodelStrategy&>(e.strategy()).global().weights()};
}

std::vector<NumericCase> numeric_cases(const FederatedDataset& data) {
  const int n = data.num_clients();
  Rng rng(3);
  const Model init(tiny_model(), rng);

  SessionConfig fedavg_cfg = base_cfg(21);
  fedavg_cfg.rounds = 4;
  fedavg_cfg.clients_per_round = 6;
  fedavg_cfg.eval_every = 0;

  FedTransConfig ft;
  ft.rounds = 5;
  ft.clients_per_round = 6;
  ft.local.steps = 3;
  ft.local.batch = 6;
  ft.gamma = 2;
  ft.doc_delta = 2;
  ft.beta = 10.0;
  ft.act_window = 2;
  ft.max_models = 3;
  ft.seed = 13;

  SessionConfig ladder_cfg;
  ladder_cfg.rounds = 4;
  ladder_cfg.clients_per_round = 6;
  ladder_cfg.local.steps = 3;
  ladder_cfg.local.batch = 6;
  ladder_cfg.seed = 19;

  // Capacities around the ladder's middle: clients train levels 0 to 3 of
  // the width ladders and one to four of SplitMix's quarter-width bases.
  FleetConfig mixed;
  mixed.num_devices = n;
  mixed.seed = 9;
  mixed.with_median_capacity(2e4);
  const auto ladder_fleet = sample_fleet(mixed);

  return {
      {"fedavg", [init] { return testing::fedavg(init); },
       [](FederationEngine& e) {
         return std::vector<WeightSet>{
             e.strategy_as<FedAvgStrategy>().model().weights()};
       },
       fedavg_cfg, tiny_fleet(n), 2, 3, 0},
      {"fedtrans",
       [ft] { return std::make_unique<FedTransStrategy>(tiny_model(), ft); },
       [](FederationEngine& e) {
         auto& f = e.strategy_as<FedTransStrategy>();
         std::vector<WeightSet> ws;
         for (int k = 0; k < f.num_models(); ++k)
           ws.push_back(f.model(k).weights());
         return ws;
       },
       SessionConfig::from(ft), tiny_fleet(n), 3, 4, 2},
      {"heterofl", [] { return std::make_unique<HeteroFLStrategy>(tiny_model()); },
       submodel_weights, ladder_cfg, ladder_fleet, 2, 3, 0},
      {"fedrolex", [] { return std::make_unique<FedRolexStrategy>(tiny_model()); },
       submodel_weights, ladder_cfg, ladder_fleet, 3, 4, 2},
      {"fluid", [] { return std::make_unique<FluidStrategy>(tiny_model()); },
       submodel_weights, ladder_cfg, ladder_fleet, 2, 3, 0},
      {"splitmix",
       [] { return std::make_unique<SplitMixStrategy>(tiny_model(), 4); },
       [](FederationEngine& e) {
         auto& f = e.strategy_as<SplitMixStrategy>();
         std::vector<WeightSet> ws;
         for (int b = 0; b < f.num_bases(); ++b)
           ws.push_back(f.base(b).weights());
         return ws;
       },
       ladder_cfg, ladder_fleet, 3, 4, 2},
  };
}

TEST(PartialAggregationTest, NumericTreeMatchesFlatWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  for (const NumericCase& c : numeric_cases(data)) {
    SCOPED_TRACE(c.name);
    FederationEngine a(c.make(), data, c.fleet, c.session);
    a.run();

    SessionConfig numeric = c.session;
    numeric.use_fabric = true;
    numeric.topology.levels = c.levels;
    numeric.topology.shards = c.shards;
    numeric.topology.branching = c.branching;
    numeric.topology.partial_aggregation = true;
    FederationEngine b(c.make(), data, c.fleet, numeric);
    b.run();

    // Per-client losses ride the tree verbatim, so FedTrans's utility
    // learning sees the same inputs and its family grows identically.
    const auto wa = c.weights(a);
    const auto wb = c.weights(b);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t k = 0; k < wa.size(); ++k)
      EXPECT_LT(max_rel_diff(wa[k], wb[k]), 1e-5) << "model " << k;
    // Metrics ride the tree verbatim, so participant counts and billing
    // are bitwise identical; losses track the (numerically perturbed)
    // weights, so round 0 is bitwise and later rounds tolerance-close.
    ASSERT_EQ(a.history().size(), b.history().size());
    EXPECT_EQ(a.history()[0].avg_loss, b.history()[0].avg_loss);
    for (std::size_t r = 0; r < a.history().size(); ++r) {
      EXPECT_NEAR(a.history()[r].avg_loss, b.history()[r].avg_loss,
                  1e-5 * std::max(1.0, std::fabs(a.history()[r].avg_loss)))
          << "round " << r;
      EXPECT_EQ(a.history()[r].participants, b.history()[r].participants)
          << "round " << r;
    }
    EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
  }
}

TEST(PartialAggregationTest, BitwiseAcrossShardCountsWithSingletonLeaves) {
  // With at most one task per leaf the numeric fold order is slot order
  // whatever the shard count, so 2-level trees of 4, 6 and 8 leaves
  // produce bit-identical weights (and repeated runs replay exactly).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(7);
  Model init(tiny_model(), rng);

  auto run_with_shards = [&](int shards) {
    SessionConfig cfg = base_cfg(33);
    cfg.rounds = 3;
    cfg.clients_per_round = 4;
    cfg.eval_every = 0;
    cfg.use_fabric = true;
    cfg.topology.levels = 2;
    cfg.topology.shards = shards;
    cfg.topology.partial_aggregation = true;
    FederationEngine r(testing::fedavg(init), data, fleet, cfg);
    r.run();
    return r.strategy_as<FedAvgStrategy>().model().weights();
  };

  const WeightSet w4 = run_with_shards(4);
  for (int shards : {4, 6, 8}) {
    const WeightSet w = run_with_shards(shards);
    ASSERT_EQ(w4.size(), w.size());
    for (std::size_t i = 0; i < w4.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(w4[i], w[i]), 0.0)
          << "shards=" << shards << " tensor " << i;
  }
}

TEST(PartialAggregationTest, NumericModeDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(5);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg = base_cfg(17);
  cfg.rounds = 3;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;

  ThreadPool::set_global_threads(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(testing::fedavg(init), data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);
  expect_identical(a, b);
}

TEST(PartialAggregationTest, UnsupportedStrategyFailsLoudly) {
  // Per-client uplink compression rewrites each delta before accumulation,
  // so the reduction is no longer a plain weighted linear sum; configuring
  // partial_aggregation on such a session must throw at engine construction
  // — before any round runs — not silently fall back to verbatim bundles.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(3);
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.topology.partial_aggregation = true;
  FedAvgOptions opts;
  opts.compression = CompressionKind::TopK;  // per-client: can't pre-sum
  EXPECT_THROW(FederationEngine(testing::fedavg(init, opts), data, fleet, cfg),
               Error);
}

// ---------------------------------------------------------------------------
// Per-shard fault domains: a leaf dead for the round has its partition
// redirected to an alive sibling — rounds complete, the failover is billed
// and recorded, and runs stay deterministic.

TEST(LeafFailoverTest, DeadLeafPartitionFailsOverToSibling) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.fabric_faults.leaf_death_prob = 0.35;
  cfg.fabric_faults.seed = 99;

  FederationEngine runner(testing::fedavg(init), data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 6u);
  int participants = 0, lost = 0, failovers = 0;
  for (const auto& rec : runner.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
    failovers += rec.leaf_failovers;
    // Conservation: every planned task is accounted for.
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round);
  }
  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.leaf_failovers.load(), 0u)
      << "a 35% leaf death rate over 6 rounds x 3 leaves must kill one";
  EXPECT_EQ(static_cast<std::uint64_t>(failovers),
            stats.leaf_failovers.load())
      << "per-round records must reconcile with the transport counter";
  // Siblings cover every death unless all three leaves die at once, so
  // nearly every update survives; the redirected bundles are billed.
  EXPECT_GT(participants, 0);
  const double model_bytes = static_cast<double>(
      runner.strategy_as<FedAvgStrategy>().model().param_bytes());
  const double failover_bytes =
      static_cast<double>(stats.failover_bytes_down.load());
  EXPECT_GT(failover_bytes, 0.0);
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + failover_bytes,
              1.0);

  // Determinism: the same chaotic run replays bit-identically.
  FederationEngine again(testing::fedavg(init), data, fleet, cfg);
  again.run();
  expect_identical(runner, again);
}

TEST(LeafFailoverTest, DeepTreeFailoverStaysWithinFaultDomain) {
  // 3-level tree, sibling groups of 2: deaths fail over to the one
  // sibling under the same parent; rounds terminate and conserve tasks
  // across thread counts.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.fabric_faults.leaf_death_prob = 0.4;
  cfg.fabric_faults.seed = 1234;

  ThreadPool::set_global_threads(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(testing::fedavg(init), data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  int lost = 0;
  for (const auto& rec : a.history()) {
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round);
    lost += rec.lost_updates;
  }
  // A 40% death rate must trigger failovers (one sibling dead) and/or
  // whole-domain losses (both siblings dead) across 5 rounds x 4 leaves.
  EXPECT_GT(a.fabric()->stats().leaf_failovers.load() +
                static_cast<std::uint64_t>(lost),
            0u);
}

// ---------------------------------------------------------------------------
// Async over the tree: FedBuff round trips hop through the leaf partition
// on the zero-latency backbone, so fault-free tree sessions are bitwise
// identical to flat ones — delivery order at the root is preserved.

TEST(AsyncTreeTest, FaultFreeTreeAsyncMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;

  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 42;
  cfg.use_fabric = true;

  FederationEngine flat(std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}),
                        data, fleet, cfg);
  flat.run();

  for (int levels : {2, 3}) {
    SessionConfig tree_cfg = cfg;
    tree_cfg.topology.levels = levels;
    tree_cfg.topology.shards = 3;
    tree_cfg.topology.branching = 2;
    FederationEngine tree(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
        tree_cfg);
    tree.run();

    EXPECT_EQ(flat.now_s(), tree.now_s()) << "levels=" << levels;
    auto wa = flat.strategy_as<FedAvgStrategy>().model().weights();
    auto wb = tree.strategy_as<FedAvgStrategy>().model().weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
          << "levels=" << levels << " tensor " << i;
    ASSERT_EQ(flat.history().size(), tree.history().size());
    for (std::size_t r = 0; r < flat.history().size(); ++r) {
      EXPECT_EQ(flat.history()[r].avg_loss, tree.history()[r].avg_loss);
      EXPECT_EQ(flat.history()[r].round_time_s,
                tree.history()[r].round_time_s);
    }
    // The tree moved more backbone frames for the same outcome.
    EXPECT_GT(tree.fabric()->stats().frames_sent.load(),
              flat.fabric()->stats().frames_sent.load());
    EXPECT_EQ(tree.fabric()->stats().frames_rejected.load(), 0u);
  }
}

TEST(AsyncTreeTest, FaultyTreeAsyncTerminatesAndAccountsLosses) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;

  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 4;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 6;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 7;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.2;
  cfg.fabric_faults.dropout_prob = 0.1;
  cfg.fabric_faults.leaf_death_prob = 0.15;
  cfg.fabric_faults.seed = 55;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 30.0;

  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();  // must terminate: timeouts replace lost clients

  EXPECT_EQ(runner.versions_done(), cfg.async.aggregations);
  int lost = 0, failovers = 0;
  for (const auto& rec : runner.history()) {
    lost += rec.lost_updates;
    failovers += rec.leaf_failovers;
  }
  EXPECT_GT(lost, 0) << "fault injection over tree hops must lose updates";
  // Failed-over jobs are recorded per shipped version, reconciling with
  // the transport counter up to the residual after the last ship.
  EXPECT_LE(static_cast<std::uint64_t>(failovers),
            runner.fabric()->stats().leaf_failovers.load());
  EXPECT_GT(runner.fabric()->stats().leaf_failovers.load(), 0u)
      << "a 15% leaf death rate over the session must reroute some jobs";
  EXPECT_EQ(runner.fabric()->stats().frames_rejected.load(), 0u);

  // Deterministic replay.
  FederationEngine again(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  again.run();
  EXPECT_EQ(runner.now_s(), again.now_s());
  ASSERT_EQ(runner.history().size(), again.history().size());
  for (std::size_t r = 0; r < runner.history().size(); ++r)
    EXPECT_EQ(runner.history()[r].avg_loss, again.history()[r].avg_loss);
}

TEST(AsyncTreeTest, FailedOverDispatchesStillArrive) {
  // A dead leaf's dispatch leaves one ack-timeout late through its alive
  // sibling, and the server, which redirected it, waits that much longer:
  // without retries, the only dispatches lost to leaf deaths are those
  // whose whole sibling group was dead (a dispatch is slot 0 of its
  // one-task round, so it rides leaf 0's fault domain).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  SessionConfig cfg;
  const AsyncBlock async{4, 2, 20, 0.5};
  cfg.with_async(async);
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 7;
  FaultConfig faults;
  faults.leaf_death_prob = 0.2;
  faults.seed = 55;
  cfg.with_fabric(faults).with_tree(3, 4, 2).with_retries(0, 30.0);
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
      cfg);
  runner.run();

  int lost = 0, failovers = 0;
  for (const auto& rec : runner.history()) {
    lost += rec.lost_updates;
    failovers += rec.leaf_failovers;
  }
  EXPECT_GT(failovers, 0);
  // Every processed event but the last ship dispatched a replacement.
  const int dispatches = async.concurrency +
                         async.aggregations * async.buffer_size + lost - 1;
  const FederationServer& fabric = *runner.fabric();
  const auto [lo, hi] = fabric.tree().sibling_range(0);
  int domain_dead = 0;
  for (int job = 0; job < dispatches; ++job) {
    bool all_dead = true;
    for (int leaf = lo; leaf < hi; ++leaf)
      all_dead = all_dead && fabric.transport().leaf_dead(
                                 static_cast<std::uint32_t>(job), leaf);
    domain_dead += all_dead ? 1 : 0;
  }
  EXPECT_LE(lost, domain_dead);
}

// ---------------------------------------------------------------------------
// Wire v6 bandwidth reducers: (a) quantized tree partials stay within 1e-3
// relative of the exact numeric tree and bitwise-deterministic across
// thread counts; (b) broadcast-cache rounds are bitwise identical to cold
// rounds (Sim and Socket) with the savings visible in FabricStats; (c)
// delta downlinks reconstruct bitwise-identical weights and never cost
// extra bytes; repeat broadcasts genuinely hit both machineries.

TEST(BandwidthTest, QuantizedFedAvgTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig exact = base_cfg(21);
  exact.rounds = 4;
  exact.clients_per_round = 6;
  exact.eval_every = 0;
  exact.use_fabric = true;
  exact.topology.levels = 3;
  exact.topology.shards = 4;
  exact.topology.branching = 2;
  exact.topology.partial_aggregation = true;
  FederationEngine a(testing::fedavg(init), data, fleet, exact);
  a.run();

  for (PartialQuant q : {PartialQuant::Int8, PartialQuant::Fp16}) {
    SessionConfig quant = exact;
    quant.topology.quantize_partials = q;
    FederationEngine b(testing::fedavg(init), data, fleet, quant);
    b.run();
    EXPECT_LT(max_rel_diff(a.strategy_as<FedAvgStrategy>().model().weights(),
                           b.strategy_as<FedAvgStrategy>().model().weights()),
              1e-3)
        << "quant mode " << static_cast<int>(q);
    // Metrics ride the tree verbatim either way.
    ASSERT_EQ(a.history().size(), b.history().size());
    for (std::size_t r = 0; r < a.history().size(); ++r)
      EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
    EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
    // Quantized group sums shrink what the root actually received.
    EXPECT_LT(b.fabric()->stats().bytes_root_in.load(),
              a.fabric()->stats().bytes_root_in.load());
  }
}

TEST(BandwidthTest, QuantizedHeteroFLTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);

  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 19;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.topology.partial_aggregation = true;

  FederationEngine a(std::make_unique<HeteroFLStrategy>(tiny_model()),
                     data, fleet, cfg);
  a.run();

  cfg.topology.quantize_partials = PartialQuant::Int8;
  FederationEngine b(std::make_unique<HeteroFLStrategy>(tiny_model()),
                     data, fleet, cfg);
  b.run();

  EXPECT_LT(max_rel_diff(a.strategy_as<HeteroFLStrategy>().global().weights(),
                         b.strategy_as<HeteroFLStrategy>().global().weights()),
            1e-3);
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, QuantizedFedTransTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());

  FedTransConfig cfg;
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 13;
  SessionConfig session = SessionConfig::from(cfg);
  session.use_fabric = true;
  session.topology.levels = 3;
  session.topology.shards = 4;
  session.topology.branching = 2;
  session.topology.partial_aggregation = true;

  FederationEngine a(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                     data, fleet, session);
  a.run();

  session.topology.quantize_partials = PartialQuant::Fp16;
  FederationEngine b(std::make_unique<FedTransStrategy>(tiny_model(), cfg),
                     data, fleet, session);
  b.run();
  auto& fa = a.strategy_as<FedTransStrategy>();
  auto& fb = b.strategy_as<FedTransStrategy>();

  // Utility learning consumes the verbatim per-client losses; fp16 group
  // sums keep the weight drift small enough that the family trajectory is
  // preserved on this fixture.
  ASSERT_EQ(fa.num_models(), fb.num_models());
  for (int k = 0; k < fa.num_models(); ++k)
    EXPECT_LT(max_rel_diff(fa.model(k).weights(), fb.model(k).weights()), 1e-3)
        << "model " << k;
}

TEST(BandwidthTest, QuantizedModeDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(5);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  SessionConfig cfg = base_cfg(17);
  cfg.rounds = 3;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;
  cfg.topology.quantize_partials = PartialQuant::Int8;

  ThreadPool::set_global_threads(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FederationEngine b(testing::fedavg(init), data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);
  expect_identical(a, b);
}

TEST(BandwidthTest, QuantizedPartialsRequireNumericMode) {
  // Verbatim bundles must stay bit-exact, so quantization without
  // partial_aggregation is a configuration error caught at construction.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = base_cfg(3);
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.topology.quantize_partials = PartialQuant::Int8;
  EXPECT_THROW(FederationEngine(testing::fedavg(init), data, fleet, cfg),
               Error);
}

TEST(BandwidthTest, InvalidTopologiesFailAtEngineConstruction) {
  // A topology no fabric can run is a configuration error of the session,
  // caught when the engine is built rather than in its first round.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  const std::vector<std::pair<const char*, void (*)(FabricTopology&)>>
      cases = {
          {"flat + partial aggregation",
           [](FabricTopology& t) { t.partial_aggregation = true; }},
          {"levels 7", [](FabricTopology& t) { t.levels = 7; }},
          {"shards 0",
           [](FabricTopology& t) {
             t.levels = 2;
             t.shards = 0;
           }},
          {"max_retries -1", [](FabricTopology& t) { t.max_retries = -1; }},
          {"ack_timeout_s 0", [](FabricTopology& t) { t.ack_timeout_s = 0; }},
      };
  for (const auto& [name, corrupt] : cases) {
    SessionConfig cfg = base_cfg(3);
    cfg.use_fabric = true;
    corrupt(cfg.topology);
    EXPECT_THROW(FederationEngine(testing::fedavg(init), data, fleet, cfg),
                 Error)
        << name;
  }
}

TEST(BandwidthTest, BroadcastCacheRoundsMatchColdRoundsBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig cold = base_cfg(seed);
      cold.use_fabric = true;
      cold.topology.levels = 3;
      cold.topology.shards = 4;
      cold.topology.branching = 2;
      FederationEngine a(testing::fedavg(init), data, fleet, cold);
      a.run();

      SessionConfig cached = cold;
      cached.topology.broadcast_cache = true;
      FederationEngine b(testing::fedavg(init), data, fleet, cached);
      b.run();

      // Bitwise including costs: elision only trims the zero-latency
      // backbone, never the billed client links.
      expect_identical(a, b);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
      EXPECT_LE(b.fabric()->stats().bytes_sent.load(),
                a.fabric()->stats().bytes_sent.load());
    }
  }
  ThreadPool::set_global_threads(prev_threads);

  // Socket leg: the elided frames survive stream reassembly too.
  Rng rng(3 + 11);
  Model init(tiny_model(), rng);
  SessionConfig cold = base_cfg(11);
  cold.use_fabric = true;
  cold.topology.levels = 2;
  cold.topology.shards = 3;
  cold.with_socket_transport();
  FederationEngine a(testing::fedavg(init), data, fleet, cold);
  a.run();
  SessionConfig cached = cold;
  cached.topology.broadcast_cache = true;
  FederationEngine b(testing::fedavg(init), data, fleet, cached);
  b.run();
  expect_identical(a, b);
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, BroadcastCacheSurvivesLeafFailoverBitwise) {
  // A dead leaf's partition is redirected to its sibling one ack-timeout
  // after the sibling's own bundle. The cache must still serve the own
  // bundle: cached and cold sessions aggregate the same updates.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(5);
  Model init(tiny_model(), rng);
  SessionConfig cold = base_cfg(11);
  cold.rounds = 4;
  cold.clients_per_round = 6;
  FaultConfig faults;
  faults.leaf_death_prob = 0.2;
  faults.seed = 3;
  cold.with_fabric(faults).with_tree(3, 4, 2).with_retries(1);
  FederationEngine a(testing::fedavg(init), data, fleet, cold);
  a.run();

  SessionConfig cached = cold;
  cached.with_broadcast_cache();
  FederationEngine b(testing::fedavg(init), data, fleet, cached);
  b.run();

  int failovers = 0;
  for (const RoundRecord& rec : b.history()) failovers += rec.leaf_failovers;
  EXPECT_GT(failovers, 0) << "the leaf deaths must have fired";
  expect_identical(a, b);
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, DeltaDownlinkKeepsResultsBitwiseIdentical) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      SessionConfig full = base_cfg(seed);
      full.use_fabric = true;
      full.topology.levels = 2;
      full.topology.shards = 3;
      FederationEngine a(testing::fedavg(init), data, fleet, full);
      a.run();

      SessionConfig delta = full;
      delta.topology.delta_downlink = true;
      FederationEngine b(testing::fedavg(init), data, fleet, delta);
      b.run();

      // Clients reconstruct the exact weights, so the whole trajectory is
      // bitwise; any shipped delta can only shrink the bill.
      auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
      auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
      }
      EXPECT_LE(b.costs().network_bytes(), a.costs().network_bytes());
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
    }
  }
  ThreadPool::set_global_threads(prev_threads);

  // Socket leg, flat topology (delta applies to every sync downlink path).
  Rng rng(3 + 42);
  Model init(tiny_model(), rng);
  SessionConfig full = base_cfg(42);
  full.use_fabric = true;
  full.with_socket_transport();
  FederationEngine a(testing::fedavg(init), data, fleet, full);
  a.run();
  SessionConfig delta = full;
  delta.topology.delta_downlink = true;
  FederationEngine b(testing::fedavg(init), data, fleet, delta);
  b.run();
  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, RepeatBroadcastsHitTheCacheAndShipDeltas) {
  // Drive the server directly with a frozen global: round 2+ re-ships the
  // same bodies, so every tree edge elides against its cache and every
  // client's ModelDown collapses to an all-Same delta — while a
  // feature-off server produces bitwise identical training results.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model proto(tiny_model(), rng);

  LocalTrainConfig local;
  local.steps = 3;
  local.batch = 6;

  FabricTopology on_topo;
  on_topo.levels = 3;
  on_topo.shards = 4;
  on_topo.branching = 2;
  on_topo.broadcast_cache = true;
  on_topo.delta_downlink = true;
  FederationServer on(proto, data, fleet, local, FaultConfig{}, on_topo);

  FabricTopology off_topo = on_topo;
  off_topo.broadcast_cache = false;
  off_topo.delta_downlink = false;
  FederationServer off(proto, data, fleet, local, FaultConfig{}, off_topo);

  const WeightSet global = proto.weights();
  const std::vector<int> clients = {0, 1, 2, 3, 4, 5};
  for (std::uint32_t round = 1; round <= 3; ++round) {
    Rng fork_root(100 + round);
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < clients.size(); ++i)
      rngs.push_back(fork_root.fork());

    const ExchangeResult ea = on.run_round(round, global, clients, rngs);
    const ExchangeResult eb = off.run_round(round, global, clients, rngs);
    ASSERT_EQ(ea.outcomes.size(), eb.outcomes.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      EXPECT_EQ(ea.outcomes[i], eb.outcomes[i]) << "round " << round;
      ASSERT_EQ(ea.results[i].delta.size(), eb.results[i].delta.size());
      for (std::size_t t = 0; t < ea.results[i].delta.size(); ++t)
        EXPECT_EQ(testing::max_abs_diff(ea.results[i].delta[t],
                                        eb.results[i].delta[t]),
                  0.0)
            << "round " << round << " slot " << i << " tensor " << t;
    }
    if (round == 1) {
      EXPECT_EQ(on.stats().cache_hits.load(), 0u) << "cold round";
      EXPECT_EQ(on.stats().delta_downlinks.load(), 0u) << "no base yet";
    }
  }

  // Warm rounds elided on every edge and shipped per-client deltas.
  EXPECT_GT(on.stats().cache_hits.load(), 0u);
  EXPECT_GT(on.stats().cache_saved_bytes.load(), 0u);
  EXPECT_GT(on.stats().delta_downlinks.load(), 0u);
  EXPECT_GT(on.stats().delta_saved_bytes.load(), 0u);
  EXPECT_EQ(off.stats().cache_hits.load(), 0u);
  EXPECT_EQ(off.stats().delta_downlinks.load(), 0u);
  EXPECT_EQ(on.stats().frames_rejected.load(), 0u);
  EXPECT_EQ(off.stats().frames_rejected.load(), 0u);

  // The byte ledger reconciles: the feature-on fabric moved exactly the
  // advertised savings less than the feature-off one.
  EXPECT_EQ(on.stats().bytes_sent.load() + on.stats().cache_saved_bytes.load() +
                on.stats().delta_saved_bytes.load(),
            off.stats().bytes_sent.load());
  EXPECT_LT(on.stats().bytes_downlink.load(),
            off.stats().bytes_downlink.load());
}

// A ModelDown's spec sizes the client's model before set_weights compares
// shapes, so a spec that claims more parameters than the frame carries must
// fail as an Error before anything is allocated for it.
TEST(ClientAgentTest, ModelDownSpecMustCountTheWeightsItCarries) {
  auto data = FederatedDataset::generate(tiny_data());
  Rng rng(1);
  Model small(tiny_model(), rng);
  auto net = make_transport(TransportKind::Sim, tiny_fleet(data.num_clients()),
                            FaultConfig{});
  ClientAgent agent(0, data, LocalTrainConfig{}, FabricTopology{});
  FabricMessage down;
  down.type = MsgType::ModelDown;
  down.receiver = 0;
  down.weights = small.weights();

  // First Cell 2·10^9 wide: 2.2·10^11 parameters.
  ModelSpec wide = small.spec();
  wide.cells.front().width = 2000000000;
  down.spec_text = wide.serialize();
  EXPECT_THROW(agent.train_and_upload(down, 0.0, small, *net), Error);

  down.spec_text = small.spec().serialize();
  EXPECT_EQ(agent.train_and_upload(down, 0.0, small, *net).outcome,
            ClientOutcome::Trained);
}

}  // namespace
}  // namespace fedtrans
