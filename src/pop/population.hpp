#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "fl/selection.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// Everything the federation needs to know about one *idle* client, in a
/// few dozen bytes: its device profile, the seed its data shard regenerates
/// from, and its slot in the diurnal availability cycle. A million-client
/// population is a flat vector of these; live ClientData/agent state exists
/// only for the per-round cohort (CohortPool below).
struct ClientDescriptor {
  DeviceProfile profile;
  /// Per-client component of the shard seed (Population::shard_seed mixes
  /// it with the client index and population seed).
  std::uint32_t data_seed = 0;
  /// Diurnal offset in rounds (AvailabilityModel's `phase`).
  std::uint16_t avail_phase = 0;
  /// Cohort/timezone bucket — selection can stratify on it; also feeds the
  /// phase derivation.
  std::uint16_t avail_group = 0;
};
static_assert(sizeof(ClientDescriptor) <= 40,
              "descriptors must stay a few tens of bytes — a million idle "
              "clients ride in one flat vector");

struct PopulationConfig {
  int num_clients = 100000;
  /// Shard shape every client's data regenerates from (num_clients and seed
  /// inside are overridden by the population's own).
  DatasetConfig shard{};
  /// Fleet distribution device profiles are drawn from (num_devices/seed
  /// inside are overridden).
  FleetConfig fleet{};
  AvailabilityModel availability{};
  std::uint64_t seed = 42;
  /// Live-client budget of the cohort pool. Must cover one round's cohort.
  int pool_capacity = 256;
};

/// A sparse federated population: descriptors for every client, live data
/// for almost none.
///
/// Every per-client quantity is counter-hashed from (population seed,
/// client index) — device profile, shard seed, availability phase — so
/// descriptor construction parallelizes, any subset materializes without
/// walking a sequential RNG chain, and two Populations with the same config
/// are identical. `materialize_all()` produces the eager FederatedDataset
/// twin that parity tests run against: same shards, same order, fully
/// resident.
class Population {
 public:
  explicit Population(const PopulationConfig& cfg);

  const PopulationConfig& config() const { return cfg_; }
  int num_clients() const { return static_cast<int>(descriptors_.size()); }
  const ClientDescriptor& descriptor(int c) const;
  const DeviceProfile& profile(int c) const { return descriptor(c).profile; }

  /// The seed ShardGenerator::make_client regenerates client `c` from.
  std::uint64_t shard_seed(int c) const;

  /// Deterministic availability of client `c` in `round` (descriptor phase
  /// + the population's AvailabilityModel).
  bool available(std::uint32_t round, int c) const;

  /// Materialize one client's shards (stateless; any thread).
  ClientData materialize(int c) const;

  /// Expand the descriptor index into the dense fleet vector the engine
  /// wants (24 bytes/client — counted against the resident budget).
  std::vector<DeviceProfile> fleet() const;

  /// Uniformly select k distinct *available* clients for `round` by
  /// scanning the descriptor index — no live objects involved. Partial
  /// Fisher–Yates over the available set, so cost is O(population) scan +
  /// O(k) draws. The scan runs on the shared ThreadPool in fixed-size
  /// chunks joined in index order: the same cohort at every thread count.
  std::vector<int> select_cohort(std::uint32_t round, int k, Rng& rng) const;

  /// Eager twin: every client materialized, wrapped as a FederatedDataset.
  FederatedDataset materialize_all() const;

  /// Bytes resident per idle client: descriptor storage only (the pool and
  /// the engine's fleet copy are accounted by their owners).
  std::size_t descriptor_bytes() const {
    return descriptors_.capacity() * sizeof(ClientDescriptor);
  }

 private:
  PopulationConfig cfg_;
  ShardGenerator shards_;
  std::vector<ClientDescriptor> descriptors_;
};

/// Fixed-capacity pool of materialized clients. A cohort is pinned per
/// epoch (round): begin_round() advances the epoch and marks the new
/// cohort's slots; get() materializes on miss — evicting only clients from
/// older epochs — and blocks briefly if another worker is already filling
/// the same slot. References returned by get() stay valid until the next
/// begin_round().
class CohortPool {
 public:
  CohortPool(const Population& pop, int capacity);

  /// Pin `cohort` for a new epoch. Not thread-safe against get() — call
  /// between rounds (the selector does).
  void begin_round(const std::vector<int>& cohort);

  /// The client's materialized shards; generates them on first touch.
  /// Thread-safe; concurrent gets of distinct clients materialize in
  /// parallel.
  const ClientData& get(int client) const;

  /// Live materialized clients right now.
  int resident() const;
  /// Heap bytes held by materialized shards (tensors + labels).
  std::size_t resident_bytes() const;
  std::uint64_t materializations() const { return materializations_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    int client = -1;
    std::uint64_t epoch = 0;
    bool ready = false;
    bool filling = false;
    ClientData data;
  };

  const Population* pop_;
  int capacity_;
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  mutable std::vector<Slot> slots_;
  mutable std::unordered_map<int, int> index_;  ///< client → slot
  std::uint64_t epoch_ = 0;
  mutable std::uint64_t materializations_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t evictions_ = 0;
};

/// ClientDataProvider over a Population: `client(c)` serves from the cohort
/// pool, materializing on demand. Pair it with PopulationSelector (which
/// advances the pool's epoch each round) — with the two installed, a
/// FederationEngine over a million clients touches live data for the
/// selected cohort only. Also exports `fedtrans_pop_*` gauges on each
/// epoch.
class PopulationDataView : public ClientDataProvider {
 public:
  explicit PopulationDataView(const Population& pop);

  int num_clients() const override { return pop_->num_clients(); }
  int num_classes() const override { return pop_->config().shard.num_classes; }
  const ClientData& client(int c) const override { return pool_.get(c); }

  const Population& population() const { return *pop_; }
  CohortPool& pool() { return pool_; }
  const CohortPool& pool() const { return pool_; }

 private:
  const Population* pop_;
  mutable CohortPool pool_;
};

/// Availability-aware uniform selection over a Population's descriptor
/// index. Owns the round counter (one select() call per round, exactly how
/// the engine drives selectors) and, when bound to a view, pins each
/// round's cohort in the pool and refreshes the `fedtrans_pop_*` gauges.
class PopulationSelector : public ClientSelector {
 public:
  /// `view` may be null (pure selection, no pool management).
  explicit PopulationSelector(const Population& pop,
                              PopulationDataView* view = nullptr);

  std::vector<int> select(int population, int k, Rng& rng) override;
  std::string name() const override { return "population"; }

 private:
  const Population* pop_;
  PopulationDataView* view_;
  std::uint32_t round_ = 0;
};

}  // namespace fedtrans
