// Population-layer tests: descriptors stay within the per-idle-client byte
// budget; every per-client derivation (profile, shard seed, availability
// phase) is a pure function of (population seed, client index) so two
// Populations with the same config agree exactly; availability draws are
// deterministic and respect the diurnal envelope; a federation driven off
// the lazy PopulationDataView (cohort pool, on-demand materialization) is
// bitwise identical to the same federation over the eager materialize_all()
// dataset, across seeds and thread counts; the cohort pool recycles and
// evicts as designed; and the fedtrans_pop_* metrics tie out against the
// pool's own counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "obs/metrics.hpp"
#include "pop/population.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

PopulationConfig tiny_pop(int clients = 12, std::uint64_t seed = 21) {
  PopulationConfig cfg;
  cfg.num_clients = clients;
  cfg.seed = seed;
  cfg.shard.num_classes = 4;
  cfg.shard.channels = 1;
  cfg.shard.hw = 8;
  cfg.shard.mean_train_samples = 16;
  cfg.shard.min_train_samples = 10;
  cfg.shard.eval_samples = 8;
  cfg.shard.noise = 0.35;
  cfg.fleet.with_median_capacity(5e6);
  cfg.pool_capacity = clients;  // small tests never evict unless asked
  return cfg;
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

bool same_client(const ClientData& a, const ClientData& b) {
  if (a.y_train != b.y_train || a.y_eval != b.y_eval) return false;
  return testing::max_abs_diff(a.x_train, b.x_train) == 0.0 &&
         testing::max_abs_diff(a.x_eval, b.x_eval) == 0.0;
}

TEST(PopulationTest, IdleClientFootprintStaysUnderBudget) {
  // The acceptance budget: descriptor + the engine's dense fleet copy must
  // stay ≤ 64 bytes per idle client.
  EXPECT_LE(sizeof(ClientDescriptor) + sizeof(DeviceProfile), 64u);

  Population pop(tiny_pop(1000));
  const std::size_t resident =
      pop.descriptor_bytes() +
      static_cast<std::size_t>(pop.num_clients()) * sizeof(DeviceProfile);
  EXPECT_LE(resident / static_cast<std::size_t>(pop.num_clients()), 64u);
}

TEST(PopulationTest, DescriptorsArePureFunctionsOfSeedAndIndex) {
  Population a(tiny_pop(64, 33));
  Population b(tiny_pop(64, 33));
  Population other(tiny_pop(64, 34));
  int differs = 0;
  for (int c = 0; c < a.num_clients(); ++c) {
    EXPECT_EQ(a.profile(c).compute_macs_per_s, b.profile(c).compute_macs_per_s);
    EXPECT_EQ(a.profile(c).bandwidth_bytes_per_s,
              b.profile(c).bandwidth_bytes_per_s);
    EXPECT_EQ(a.shard_seed(c), b.shard_seed(c));
    EXPECT_EQ(a.descriptor(c).avail_phase, b.descriptor(c).avail_phase);
    if (a.shard_seed(c) != other.shard_seed(c)) ++differs;
  }
  EXPECT_GT(differs, 56) << "a different population seed must reshuffle shards";
  EXPECT_TRUE(same_client(a.materialize(7), b.materialize(7)));
  EXPECT_FALSE(same_client(a.materialize(7), a.materialize(8)));
}

TEST(PopulationTest, DescriptorConstructionIsThreadCountInvariant) {
  const int prev = ThreadPool::global().size();
  ThreadPool::set_global_threads(1);
  Population serial(tiny_pop(500, 5));
  ThreadPool::set_global_threads(4);
  Population parallel(tiny_pop(500, 5));
  ThreadPool::set_global_threads(prev);
  for (int c = 0; c < serial.num_clients(); ++c) {
    EXPECT_EQ(serial.shard_seed(c), parallel.shard_seed(c));
    EXPECT_EQ(serial.profile(c).capacity_macs, parallel.profile(c).capacity_macs);
  }
}

TEST(PopulationTest, AvailabilityIsDeterministicAndBounded) {
  PopulationConfig cfg = tiny_pop(200, 8);
  cfg.availability.base_online_frac = 0.6;
  cfg.availability.diurnal_amplitude = 0.3;
  cfg.availability.period_rounds = 8;
  Population pop(cfg);
  Population again(cfg);

  double min_frac = 1.0, max_frac = 0.0;
  for (std::uint32_t round = 0; round < 16; ++round) {
    int online = 0;
    for (int c = 0; c < pop.num_clients(); ++c) {
      EXPECT_EQ(pop.available(round, c), again.available(round, c));
      online += pop.available(round, c) ? 1 : 0;
    }
    const double frac = static_cast<double>(online) / pop.num_clients();
    min_frac = std::min(min_frac, frac);
    max_frac = std::max(max_frac, frac);
  }
  // The diurnal cycle must actually swing participation around the base
  // rate (0.6 ± 0.3, sampled at 200 clients — generous tolerances).
  EXPECT_LT(min_frac, 0.55);
  EXPECT_GT(max_frac, 0.65);

  // Always-online default short-circuits to true.
  Population flat(tiny_pop(20, 8));
  for (int c = 0; c < flat.num_clients(); ++c)
    EXPECT_TRUE(flat.available(3, c));
}

TEST(PopulationTest, CohortSelectionScansDescriptorsOnly) {
  PopulationConfig cfg = tiny_pop(100, 12);
  cfg.availability.base_online_frac = 0.5;
  cfg.availability.diurnal_amplitude = 0.2;
  Population pop(cfg);
  Rng rng(4);
  const auto cohort = pop.select_cohort(/*round=*/2, /*k=*/10, rng);
  ASSERT_EQ(cohort.size(), 10u);
  std::set<int> uniq(cohort.begin(), cohort.end());
  EXPECT_EQ(uniq.size(), cohort.size()) << "cohort members must be distinct";
  for (int c : cohort) EXPECT_TRUE(pop.available(2, c));

  // When fewer clients are online than requested, everyone online serves.
  PopulationConfig sparse = tiny_pop(10, 12);
  sparse.availability.base_online_frac = 0.3;
  sparse.availability.diurnal_amplitude = 0.0;
  Population small(sparse);
  Rng rng2(4);
  const auto all = small.select_cohort(0, 10, rng2);
  for (int c : all) EXPECT_TRUE(small.available(0, c));
}

TEST(PopulationTest, PeriodRoundsOutsideOneTo65536IsRejected) {
  // Phases live in 16 bits: a longer period would wrap them silently.
  for (int period : {0, -3, 65537}) {
    PopulationConfig cfg = tiny_pop(8);
    cfg.availability.period_rounds = period;
    EXPECT_THROW(Population{cfg}, Error) << "period " << period;
  }
  PopulationConfig cfg = tiny_pop(8);
  cfg.availability.base_online_frac = 0.5;
  cfg.availability.diurnal_amplitude = 0.4;
  cfg.availability.period_rounds = 65536;
  Population pop(cfg);
  Rng rng(2);
  for (int c : pop.select_cohort(65535, 8, rng))
    EXPECT_TRUE(pop.available(65535, c));
}

/// online_probability and the availability hash written out longhand, so a
/// wrong hoisted hash prefix or a wrong phase index shows as a mismatch.
double formula_probability(const AvailabilityModel& m, std::uint32_t round,
                           std::uint32_t phase) {
  const std::uint32_t wrapped = round + phase;  // uint32 wraparound
  const std::uint32_t slot =
      wrapped % static_cast<std::uint32_t>(m.period_rounds);
  const double t =
      static_cast<double>(slot) / static_cast<double>(m.period_rounds);
  const double p =
      m.base_online_frac +
      m.diurnal_amplitude * std::sin(2.0 * 3.141592653589793 * t);
  return std::min(1.0, std::max(0.0, p));
}

double formula_draw(const AvailabilityModel& m, std::uint32_t round,
                    std::uint32_t client) {
  std::uint64_t h = mix64(m.seed);
  h = mix64(h ^ 0xa7a11u);
  h = mix64(h ^ round);
  h = mix64(h ^ client);
  return static_cast<double>(h >> 11) / 9007199254740992.0;  // 2^53
}

TEST(AvailabilityTest, DeviceAvailableFollowsTheDocumentedFormula) {
  AvailabilityModel m;
  m.base_online_frac = 0.5;
  m.diurnal_amplitude = 0.45;
  m.period_rounds = 24;
  m.seed = 0x5eed;
  const std::uint32_t kMax = UINT32_MAX;
  int online = 0, checked = 0;
  for (std::uint32_t round : {0u, 1u, 7u, 23u, 24u, 1000003u, kMax - 30,
                              kMax - 5, kMax - 1, kMax}) {
    for (std::uint32_t phase : {0u, 1u, 6u, 17u, 23u}) {
      const double p = formula_probability(m, round, phase);
      EXPECT_EQ(online_probability(m, round, phase), p)
          << "round " << round << " phase " << phase;
      for (std::uint32_t client : {0u, 1u, 2u, 3u, 41u, 999999u, kMax}) {
        const double draw = formula_draw(m, round, client);
        EXPECT_EQ(hash01_from(availability_prefix(m, round), client), draw);
        EXPECT_EQ(device_available(m, round, client, phase), draw < p)
            << "round " << round << " phase " << phase << " client "
            << client;
        online += draw < p ? 1 : 0;
        ++checked;
      }
    }
  }
  // The grid exercises both outcomes, not a constant answer.
  EXPECT_GT(online, checked / 5);
  EXPECT_LT(online, checked * 4 / 5);
  // Where round + phase wraps, the slot follows uint32 arithmetic, not the
  // 64-bit sum (2^32 mod 24 = 16 would shift it).
  EXPECT_EQ(online_probability(m, kMax - 1, 5), online_probability(m, 3, 0));

  EXPECT_TRUE(always_online(AvailabilityModel{}));
  EXPECT_TRUE(device_available(AvailabilityModel{}, kMax, kMax, 3));
  EXPECT_FALSE(always_online(m));
}

/// What select_cohort computes, one client at a time: filter with
/// available() in index order, then the same partial Fisher–Yates.
std::vector<int> reference_cohort(const Population& pop, std::uint32_t round,
                                  int k, Rng& rng) {
  std::vector<int> avail;
  for (int c = 0; c < pop.num_clients(); ++c)
    if (pop.available(round, c)) avail.push_back(c);
  const int n = static_cast<int>(avail.size());
  if (n <= k) return avail;
  for (int i = 0; i < k; ++i)
    std::swap(avail[static_cast<std::size_t>(i)],
              avail[static_cast<std::size_t>(rng.uniform_int(i, n - 1))]);
  avail.resize(static_cast<std::size_t>(k));
  return avail;
}

TEST(PopulationTest, CohortScanMatchesSerialReferenceAtAnyThreadCount) {
  // 100,003 clients: not a multiple of any power-of-two chunk, so the scan
  // ends on a partial tail chunk. k = population returns the whole
  // available list, pinning its order; k = 128 pins the draws on top.
  const int prev = ThreadPool::global().size();
  PopulationConfig diurnal = tiny_pop(100003, 31);
  diurnal.availability.base_online_frac = 0.55;
  diurnal.availability.diurnal_amplitude = 0.35;
  diurnal.availability.period_rounds = 5;
  const PopulationConfig flat = tiny_pop(100003, 31);  // always online
  const std::uint32_t kMax = UINT32_MAX;
  for (const PopulationConfig& cfg : {diurnal, flat}) {
    Population pop(cfg);
    for (std::uint32_t round : {0u, 1u, 4u, 5u, 6u, 11u, kMax - 1, kMax}) {
      for (int k : {128, pop.num_clients()}) {
        Rng ref_rng(round + 9);
        const std::vector<int> want = reference_cohort(pop, round, k, ref_rng);
        ASSERT_FALSE(want.empty());
        for (int threads : {1, 4}) {
          ThreadPool::set_global_threads(threads);
          Rng rng(round + 9);
          EXPECT_EQ(pop.select_cohort(round, k, rng), want)
              << "round " << round << " k " << k << " threads " << threads;
        }
      }
    }
  }
  ThreadPool::set_global_threads(prev);
}

TEST(PopulationTest, HundredThousandClientsStayCheapUntilMaterialized) {
  Population pop(tiny_pop(100000, 77));
  EXPECT_EQ(pop.num_clients(), 100000);
  const std::size_t per_client =
      (pop.descriptor_bytes() +
       static_cast<std::size_t>(pop.num_clients()) * sizeof(DeviceProfile)) /
      static_cast<std::size_t>(pop.num_clients());
  EXPECT_LE(per_client, 64u);

  Rng rng(1);
  const auto cohort = pop.select_cohort(0, 128, rng);
  ASSERT_EQ(cohort.size(), 128u);
  // Materialize just the cohort's first members — the other ~100k clients
  // never exist beyond their descriptors.
  const ClientData c0 = pop.materialize(cohort[0]);
  EXPECT_GT(c0.y_train.size(), 0u);
  EXPECT_TRUE(same_client(c0, pop.materialize(cohort[0])));
}

TEST(CohortPoolTest, RecyclesHitsAndEvictsOldEpochs) {
  Population pop(tiny_pop(12, 9));
  CohortPool pool(pop, /*capacity=*/4);

  pool.begin_round({0, 1, 2, 3});
  for (int c : {0, 1, 2, 3}) EXPECT_TRUE(same_client(pool.get(c), pop.materialize(c)));
  EXPECT_EQ(pool.materializations(), 4u);
  EXPECT_EQ(pool.resident(), 4);
  EXPECT_GT(pool.resident_bytes(), 0u);

  // Same epoch, same clients: pure pool hits.
  pool.get(1);
  pool.get(2);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.materializations(), 4u);

  // Next round overlaps on {2, 3}: the carried-over members stay warm, the
  // two newcomers evict the two stale slots.
  pool.begin_round({2, 3, 4, 5});
  for (int c : {2, 3, 4, 5}) pool.get(c);
  EXPECT_EQ(pool.hits(), 4u);
  EXPECT_EQ(pool.materializations(), 6u);
  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_EQ(pool.resident(), 4);
}

TEST(CohortPoolTest, PopMetricsTieOutAgainstPoolCounters) {
  auto before = MetricsRegistry::global().snapshot();
  const double mat0 = before.counters["fedtrans_pop_materializations_total"];
  const double hit0 = before.counters["fedtrans_pop_pool_hits_total"];
  const double evi0 = before.counters["fedtrans_pop_pool_evictions_total"];

  Population pop(tiny_pop(10, 3));
  CohortPool pool(pop, 3);
  pool.begin_round({0, 1, 2});
  for (int c : {0, 1, 2, 1, 0}) pool.get(c);
  pool.begin_round({3, 4});
  for (int c : {3, 4, 3}) pool.get(c);

  auto after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counters["fedtrans_pop_materializations_total"] - mat0,
            static_cast<double>(pool.materializations()));
  EXPECT_EQ(after.counters["fedtrans_pop_pool_hits_total"] - hit0,
            static_cast<double>(pool.hits()));
  EXPECT_EQ(after.counters["fedtrans_pop_pool_evictions_total"] - evi0,
            static_cast<double>(pool.evictions()));
}

TEST(PopulationParityTest, LazyCohortFederationMatchesEagerBitwise) {
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {11ULL, 42ULL}) {
    PopulationConfig pcfg = tiny_pop(24, seed);
    pcfg.availability.base_online_frac = 0.8;
    pcfg.availability.diurnal_amplitude = 0.15;
    pcfg.availability.period_rounds = 6;
    Population pop(pcfg);
    const FederatedDataset eager = pop.materialize_all();
    ASSERT_EQ(eager.num_clients(), pop.num_clients());
    for (int c = 0; c < pop.num_clients(); ++c)
      ASSERT_TRUE(same_client(eager.client(c), pop.materialize(c)))
          << "eager twin diverged at client " << c;

    Rng mrng(3 + seed);
    Model init(tiny_model(), mrng);
    SessionConfig session;
    session.rounds = 3;
    session.clients_per_round = 5;
    session.local.steps = 3;
    session.local.batch = 6;
    session.eval_every = 2;
    session.eval_clients = 6;
    session.seed = seed;

    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FederationEngine a(testing::fedavg(init), eager, pop.fleet(), session);
      a.set_selector(std::make_unique<PopulationSelector>(pop));
      a.run();

      PopulationDataView view(pop);
      FederationEngine b(testing::fedavg(init), view, pop.fleet(), session);
      b.set_selector(std::make_unique<PopulationSelector>(pop, &view));
      b.run();

      auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
      auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
            << "seed " << seed << " threads " << threads << " tensor " << i;

      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].accuracy, b.history()[r].accuracy);
        EXPECT_EQ(a.history()[r].cum_macs, b.history()[r].cum_macs);
        EXPECT_EQ(a.history()[r].round_time_s, b.history()[r].round_time_s);
        EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
      }
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());

      // The lazy side never held more live clients than its pool allows.
      EXPECT_LE(view.pool().resident(), pcfg.pool_capacity);
      EXPECT_GT(view.pool().materializations(), 0u);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(PopulationParityTest, LazyFederationRunsOverSocketTransportToo) {
  // Population selection + cohort pool + socket loopback composed: still
  // bitwise identical to the eager SimTransport run.
  Population pop(tiny_pop(16, 19));
  const FederatedDataset eager = pop.materialize_all();
  Rng mrng(5);
  Model init(tiny_model(), mrng);

  SessionConfig session;
  session.rounds = 2;
  session.clients_per_round = 4;
  session.local.steps = 2;
  session.local.batch = 6;
  session.seed = 7;
  session.use_fabric = true;

  FederationEngine a(testing::fedavg(init), eager, pop.fleet(), session);
  a.set_selector(std::make_unique<PopulationSelector>(pop));
  a.run();

  session.with_socket_transport();
  PopulationDataView view(pop);
  FederationEngine b(testing::fedavg(init), view, pop.fleet(), session);
  b.set_selector(std::make_unique<PopulationSelector>(pop, &view));
  b.run();

  ASSERT_NE(b.fabric(), nullptr);
  EXPECT_EQ(b.fabric()->transport().name(), "socket");
  auto wa = a.strategy_as<FedAvgStrategy>().model().weights();
  auto wb = b.strategy_as<FedAvgStrategy>().model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
}

}  // namespace
}  // namespace fedtrans
