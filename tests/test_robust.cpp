// Robust-aggregation tests: the Byzantine-robust reducers as pure
// functions, the RobustStrategy driving a FederationEngine, and the
// deterministic Byzantine client model.
//
//  (1) reducer properties — bitwise permutation invariance for the
//      coordinate-wise median and trimmed mean, exact agreement of
//      trim=0 with an unweighted FedAvg-style fold, and closed-form
//      small cases showing outliers actually get dropped/clipped;
//  (2) attack-draw determinism — byzantine_client is a pure function of
//      (seed, round, client): independent of call order, thread count and
//      transport, toggled only by the configured probability/mode;
//  (3) configuration errors fail loudly at engine construction — robust
//      reducers are non-linear so partial_aggregation trees are rejected,
//      and out-of-range trim/clip knobs are caught in attach;
//  (4) robust sessions over the fabric — flat, 2-level and 3-level trees
//      are bitwise identical to the in-process path (verbatim bundles),
//      with and without Byzantine clients, across 1 and 4 threads, and
//      Sim vs Socket transports agree bit for bit;
//  (5) Byzantine accounting — RoundRecord names the attackers and the
//      fedtrans_byzantine_* metrics tie out; NaN/Inf-poisoned updates
//      (a ScaledUpdate attack with an infinite lambda) are rejected on
//      admission and never reach the global model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "baselines/robust.hpp"
#include "common/thread_pool.hpp"
#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures (same scale as the chaos sweep: tiny but non-trivial).

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
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 9;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

/// One-tensor WeightSet from explicit values — the reducer unit tests work
/// on hand-sized inputs where the expected output is closed-form.
WeightSet ws_of(std::vector<float> vals) {
  Tensor t({static_cast<int>(vals.size())});
  for (std::size_t i = 0; i < vals.size(); ++i)
    t[static_cast<std::int64_t>(i)] = vals[i];
  WeightSet ws;
  ws.push_back(std::move(t));
  return ws;
}

/// Random two-tensor WeightSet (mixed shapes so per-parameter iteration is
/// exercised, not just flat vectors).
WeightSet random_ws(Rng& rng, float scale = 1.0f) {
  WeightSet ws;
  ws.push_back(Tensor({3, 4}));
  ws.push_back(Tensor({5}));
  for (auto& t : ws) t.randn(rng, scale);
  return ws;
}

void expect_bitwise_equal(const WeightSet& a, const WeightSet& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(a[i], b[i]), 0.0)
        << what << " tensor " << i;
}

// ---------------------------------------------------------------------------
// (1) Reducer properties.

TEST(RobustReducerTest, MedianIsBitwisePermutationInvariant) {
  Rng rng(101);
  std::vector<WeightSet> deltas;
  for (int i = 0; i < 7; ++i) deltas.push_back(random_ws(rng));
  const WeightSet base = robust_coordinate_median(deltas);

  std::vector<std::size_t> perm(deltas.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng shuffler(7);
  for (int trial = 0; trial < 4; ++trial) {
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<std::size_t>(shuffler.next_u64() % i)]);
    std::vector<WeightSet> shuffled;
    for (std::size_t i : perm) shuffled.push_back(deltas[i]);
    expect_bitwise_equal(base, robust_coordinate_median(shuffled),
                         "median permutation " + std::to_string(trial));
  }
}

TEST(RobustReducerTest, TrimmedMeanIsBitwisePermutationInvariant) {
  Rng rng(202);
  std::vector<WeightSet> deltas;
  for (int i = 0; i < 8; ++i) deltas.push_back(random_ws(rng));
  const WeightSet base = robust_trimmed_mean(deltas, 0.25);

  std::vector<WeightSet> reversed(deltas.rbegin(), deltas.rend());
  expect_bitwise_equal(base, robust_trimmed_mean(reversed, 0.25),
                       "trimmed-mean reversed");

  std::vector<WeightSet> rotated(deltas.begin() + 3, deltas.end());
  rotated.insert(rotated.end(), deltas.begin(), deltas.begin() + 3);
  expect_bitwise_equal(base, robust_trimmed_mean(rotated, 0.25),
                       "trimmed-mean rotated");
}

TEST(RobustReducerTest, ZeroTrimMatchesUnweightedFedAvgFoldBitwise) {
  // Integer-valued deltas make float addition exact, so "bitwise" here is
  // not at the mercy of summation order — but the implementation contract
  // is stronger: trim=0 runs the exact ws_axpy-then-scale fold FedAvg uses
  // with unit weights, so this also holds for the random fractional case.
  Rng rng(303);
  std::vector<WeightSet> deltas;
  for (int i = 0; i < 5; ++i) {
    WeightSet ws = random_ws(rng);
    for (auto& t : ws)
      for (std::int64_t e = 0; e < t.numel(); ++e)
        t[e] = std::floor(t[e] * 8.0f);
    deltas.push_back(std::move(ws));
  }

  WeightSet fold = ws_zeros_like(deltas.front());
  for (const WeightSet& d : deltas) ws_axpy(fold, 1.0f, d);
  ws_scale(fold, static_cast<float>(1.0 / static_cast<double>(deltas.size())));

  expect_bitwise_equal(fold, robust_trimmed_mean(deltas, 0.0),
                       "trim=0 vs unweighted fold");

  // Fractional deltas too: same fold, same arithmetic, same bits.
  std::vector<WeightSet> frac;
  for (int i = 0; i < 6; ++i) frac.push_back(random_ws(rng));
  WeightSet frac_fold = ws_zeros_like(frac.front());
  for (const WeightSet& d : frac) ws_axpy(frac_fold, 1.0f, d);
  ws_scale(frac_fold,
           static_cast<float>(1.0 / static_cast<double>(frac.size())));
  expect_bitwise_equal(frac_fold, robust_trimmed_mean(frac, 0.0),
                       "trim=0 fractional");
}

TEST(RobustReducerTest, MedianIgnoresASingleArbitraryOutlier) {
  // 4 honest updates near 1.0 plus one at 1e6: the median lands between
  // the honest values no matter how large the outlier is.
  auto deltas = std::vector<WeightSet>{ws_of({0.9f}), ws_of({1.0f}),
                                       ws_of({1.1f}), ws_of({1.2f}),
                                       ws_of({1e6f})};
  const WeightSet med = robust_coordinate_median(deltas);
  EXPECT_FLOAT_EQ(med[0][0], 1.1f);  // middle of the sorted 5

  // Even count: average of the two middle values.
  deltas.pop_back();
  EXPECT_FLOAT_EQ(robust_coordinate_median(deltas)[0][0],
                  0.5f * (1.0f + 1.1f));
}

TEST(RobustReducerTest, TrimmedMeanDropsExactlyTheExtremes) {
  // n=5, trim=0.2 → k=⌈1⌉=1 per side: {0,1,2,3,100} keeps {1,2,3} → 2.
  const auto deltas = std::vector<WeightSet>{ws_of({0.0f}), ws_of({1.0f}),
                                             ws_of({2.0f}), ws_of({3.0f}),
                                             ws_of({100.0f})};
  EXPECT_FLOAT_EQ(robust_trimmed_mean(deltas, 0.2)[0][0], 2.0f);
  // trim large enough to want everything gone is clamped so one survives:
  // k = (n-1)/2 = 2 → keeps {2} → 2.
  EXPECT_FLOAT_EQ(robust_trimmed_mean(deltas, 0.49)[0][0], 2.0f);
}

TEST(RobustReducerTest, NormClipDropsTheScoredOutlierAndClipsSurvivors) {
  // Three honest clustered updates plus one far-away attacker: Krum-style
  // scoring drops the attacker (f=1), and the survivors — already inside
  // the clip radius — average exactly.
  const auto deltas = std::vector<WeightSet>{ws_of({1.0f, 0.0f}),
                                             ws_of({1.1f, 0.0f}),
                                             ws_of({0.9f, 0.0f}),
                                             ws_of({-50.0f, 40.0f})};
  const WeightSet out = robust_norm_clip(deltas, 0.25, 10.0);
  EXPECT_NEAR(out[0][0], 1.0f, 1e-5);
  EXPECT_NEAR(out[0][1], 0.0f, 1e-6);

  // With a tight multiplier the long survivor is scaled down to the median
  // norm: survivors {1, 1, 4} with clip=1.0 → radius 1 → mean (1+1+1)/3.
  const auto stretch = std::vector<WeightSet>{ws_of({1.0f}), ws_of({1.0f}),
                                              ws_of({4.0f})};
  EXPECT_NEAR(robust_norm_clip(stretch, 0.0, 1.0)[0][0], 1.0f, 1e-5);
}

// ---------------------------------------------------------------------------
// (2) Deterministic attack draws.

TEST(ByzantineDrawTest, DrawIsAPureFunctionOfSeedRoundClient) {
  FaultConfig f;
  f.byzantine_prob = 0.5;
  f.byzantine_mode = ByzantineMode::SignFlip;
  f.seed = 0xfeedULL;

  // Same inputs, same answer — regardless of call order or repetition.
  std::vector<bool> first;
  for (std::uint32_t r = 0; r < 8; ++r)
    for (std::int32_t c = 0; c < 16; ++c)
      first.push_back(byzantine_client(f, r, c));
  std::vector<bool> replay;
  for (std::uint32_t r = 8; r-- > 0;)  // reversed order
    for (std::int32_t c = 16; c-- > 0;)
      replay.push_back(byzantine_client(f, r, c));
  std::reverse(replay.begin(), replay.end());
  EXPECT_EQ(first, replay);

  // The draw actually varies across (round, client) at p=0.5...
  const int hits = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, static_cast<int>(first.size()));

  // ...and is decorrelated from the wire-fault draws sharing the seed.
  FaultConfig other = f;
  other.seed = 0xbeefULL;
  bool any_diff = false;
  for (std::uint32_t r = 0; r < 8 && !any_diff; ++r)
    for (std::int32_t c = 0; c < 16 && !any_diff; ++c)
      any_diff = byzantine_client(f, r, c) != byzantine_client(other, r, c);
  EXPECT_TRUE(any_diff) << "seed must perturb the draw";
}

TEST(ByzantineDrawTest, DisabledConfigsNeverDraw) {
  FaultConfig off;  // byzantine_prob defaults to 0
  FaultConfig none;
  none.byzantine_prob = 1.0;
  none.byzantine_mode = ByzantineMode::None;
  for (std::uint32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 8; ++c) {
      EXPECT_FALSE(byzantine_client(off, r, c));
      EXPECT_FALSE(byzantine_client(none, r, c));
    }

  FaultConfig always;
  always.byzantine_prob = 1.0;
  for (std::uint32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 8; ++c)
      EXPECT_TRUE(byzantine_client(always, r, c));
}

// ---------------------------------------------------------------------------
// (3) Loud configuration errors.

SessionConfig robust_session(std::uint64_t seed, int rounds = 3) {
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  return SessionConfig{}
      .with_rounds(rounds)
      .with_clients_per_round(5)
      .with_local(local)
      .with_seed(seed);
}

TEST(RobustConfigTest, PartialAggregationTreeIsRejectedAtConstruction) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = robust_session(5)
                          .with_tree(2, 3)
                          .with_partial_aggregation();
  EXPECT_THROW(FederationEngine(std::make_unique<RobustStrategy>(init),
                                data, fleet, cfg),
               Error);

  // Same tree in the default verbatim mode builds (and runs) fine.
  cfg.with_partial_aggregation(false);
  FederationEngine ok(std::make_unique<RobustStrategy>(init), data, fleet,
                      cfg);
  ok.run_round();
}

TEST(RobustConfigTest, OutOfRangeKnobsAreRejectedAtConstruction) {
  Rng rng(3);
  Model init(tiny_model(), rng);

  RobustConfig half{RobustAggregator::TrimmedMean};
  half.trim_fraction = 0.5;  // per-side: nothing would survive
  EXPECT_THROW(RobustStrategy(init, half), Error);

  RobustConfig clip{RobustAggregator::NormClip};
  clip.clip_multiplier = 0.0;
  EXPECT_THROW(RobustStrategy(init, clip), Error);
}

// ---------------------------------------------------------------------------
// (4) Fabric composition: flat vs trees, in-process vs wire, Sim vs Socket,
// 1 vs 4 threads — all bitwise, honest and under attack.

struct RobustOutcome {
  WeightSet weights;
  std::vector<RoundRecord> history;
  double network_bytes = 0.0;
};

RobustOutcome run_robust(const FederatedDataset& data,
                         const std::vector<DeviceProfile>& fleet,
                         const Model& init, RobustAggregator agg,
                         SessionConfig cfg) {
  FederationEngine engine(
      std::make_unique<RobustStrategy>(init, RobustConfig{agg}), data, fleet,
      cfg);
  engine.run();
  RobustOutcome out;
  out.weights = engine.strategy_as<RobustStrategy>().model().weights();
  out.history = engine.history();
  out.network_bytes = engine.costs().network_bytes();
  return out;
}

void expect_same_outcome(const RobustOutcome& a, const RobustOutcome& b,
                         const std::string& what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].avg_loss, b.history[r].avg_loss)
        << what << " round " << r;
    EXPECT_EQ(a.history[r].participants, b.history[r].participants)
        << what << " round " << r;
    EXPECT_EQ(a.history[r].lost_updates, b.history[r].lost_updates)
        << what << " round " << r;
    EXPECT_EQ(a.history[r].byzantine_updates, b.history[r].byzantine_updates)
        << what << " round " << r;
    EXPECT_EQ(a.history[r].byzantine_clients, b.history[r].byzantine_clients)
        << what << " round " << r;
    EXPECT_EQ(a.history[r].byzantine_l2, b.history[r].byzantine_l2)
        << what << " round " << r;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << what;
  for (std::size_t i = 0; i < a.weights.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(a.weights[i], b.weights[i]), 0.0)
        << what << " tensor " << i;
}

TEST(RobustFabricTest, FlatAndDeepTreesMatchInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  const auto aggregators = std::vector<RobustAggregator>{
      RobustAggregator::CoordinateMedian, RobustAggregator::TrimmedMean,
      RobustAggregator::NormClip};
  // honest, then 30% sign-flip Byzantine: verbatim-bundle parity must hold
  // under attack too (the draw is keyed on (seed, round, client), never on
  // topology or transport).
  for (double byz_prob : {0.0, 0.3}) {
    for (RobustAggregator agg : aggregators) {
      SessionConfig base = robust_session(11);
      base.fabric_faults.byzantine_prob = byz_prob;
      base.fabric_faults.byzantine_mode = ByzantineMode::SignFlip;
      const std::string what =
          "agg " + std::to_string(static_cast<int>(agg)) + " byz " +
          std::to_string(byz_prob);

      ThreadPool::set_global_threads(1);
      const RobustOutcome in_process = run_robust(data, fleet, init, agg, base);

      ThreadPool::set_global_threads(4);
      SessionConfig flat = base;
      flat.use_fabric = true;
      expect_same_outcome(in_process, run_robust(data, fleet, init, agg, flat),
                          what + " flat");

      SessionConfig two = base;
      two.with_tree(2, 3);
      expect_same_outcome(in_process, run_robust(data, fleet, init, agg, two),
                          what + " two-level");

      SessionConfig three = base;
      three.with_tree(3, 4, 2);
      expect_same_outcome(in_process, run_robust(data, fleet, init, agg, three),
                          what + " three-level");
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(RobustFabricTest, SimAndSocketTransportsAgreeBitwiseUnderAttack) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig sim = robust_session(42);
  sim.fabric_faults.byzantine_prob = 0.3;
  sim.fabric_faults.byzantine_mode = ByzantineMode::ScaledUpdate;
  sim.use_fabric = true;
  SessionConfig socket = sim;
  socket.with_socket_transport();

  const auto agg = RobustAggregator::TrimmedMean;
  expect_same_outcome(run_robust(data, fleet, init, agg, sim),
                      run_robust(data, fleet, init, agg, socket),
                      "sim vs socket");
}

// ---------------------------------------------------------------------------
// (5) Byzantine accounting + NaN/Inf rejection.

TEST(ByzantineAccountingTest, RoundRecordNamesAttackersAndMetricsTieOut) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  MetricsRegistry::global().reset();
  SessionConfig cfg = robust_session(7);
  cfg.fabric_faults.byzantine_prob = 1.0;  // every trained update hostile
  cfg.fabric_faults.byzantine_mode = ByzantineMode::SignFlip;
  FederationEngine engine(std::make_unique<RobustStrategy>(init), data, fleet,
                          cfg);
  engine.run();

  int total_byz = 0;
  for (const RoundRecord& rec : engine.history()) {
    EXPECT_EQ(rec.byzantine_updates, rec.participants)
        << "p=1: every participant is an attacker";
    EXPECT_EQ(static_cast<int>(rec.byzantine_clients.size()),
              rec.byzantine_updates);
    if (rec.byzantine_updates > 0) {
      EXPECT_GT(rec.byzantine_l2, 0.0);
    }
    total_byz += rec.byzantine_updates;
  }
  EXPECT_GT(total_byz, 0);

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("fedtrans_byzantine_updates_total"),
            static_cast<double>(total_byz));
  EXPECT_EQ(snap.counters.at("fedtrans_byzantine_rounds_total"),
            static_cast<double>(engine.history().size()));
  EXPECT_GT(snap.counters.at("fedtrans_byzantine_attacks_total"), 0.0);
}

TEST(ByzantineAccountingTest, HonestRunsRecordNoAttackers) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FederationEngine engine(
      std::make_unique<RobustStrategy>(init), data, fleet,
      robust_session(7));
  engine.run();
  for (const RoundRecord& rec : engine.history()) {
    EXPECT_EQ(rec.byzantine_updates, 0);
    EXPECT_TRUE(rec.byzantine_clients.empty());
    EXPECT_EQ(rec.byzantine_l2, 0.0);
  }
}

TEST(ByzantineAccountingTest, PoisonedUpdatesAreRejectedNotAggregated) {
  // A ScaledUpdate attack with an infinite lambda turns every attacker
  // delta into ±Inf: the strategy must refuse them on admission and the
  // global model must stay finite for the whole session.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  SessionConfig cfg = robust_session(13, 4);
  cfg.fabric_faults.byzantine_prob = 0.4;
  cfg.fabric_faults.byzantine_mode = ByzantineMode::ScaledUpdate;
  cfg.fabric_faults.byzantine_lambda =
      std::numeric_limits<double>::infinity();
  FederationEngine engine(
      std::make_unique<RobustStrategy>(
          init, RobustConfig{RobustAggregator::TrimmedMean}),
      data, fleet, cfg);
  engine.run();

  auto& strat = engine.strategy_as<RobustStrategy>();
  EXPECT_GT(strat.rejected_updates(), 0) << "the attack must have fired";
  EXPECT_TRUE(ws_all_finite(strat.model().weights()))
      << "no poisoned coordinate may reach the global model";
  // Rejected attackers still count as participants (their bytes moved).
  for (const RoundRecord& rec : engine.history())
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round);
}

TEST(ByzantineAccountingTest, LabelFlipKeepsCleanDataIntact) {
  // The label-flip attack trains on a flipped *copy*; the provider's data
  // must remain untouched for honest clients in later rounds.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const std::vector<int> before = [&] {
    std::vector<int> ys;
    for (int c = 0; c < data.num_clients(); ++c)
      for (int y : data.client(c).y_train) ys.push_back(y);
    return ys;
  }();

  Rng rng(3);
  Model init(tiny_model(), rng);
  SessionConfig cfg = robust_session(21);
  cfg.fabric_faults.byzantine_prob = 0.5;
  cfg.fabric_faults.byzantine_mode = ByzantineMode::LabelFlip;
  FederationEngine engine(std::make_unique<RobustStrategy>(init), data, fleet,
                          cfg);
  engine.run();

  std::vector<int> after;
  for (int c = 0; c < data.num_clients(); ++c)
    for (int y : data.client(c).y_train) after.push_back(y);
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace fedtrans
