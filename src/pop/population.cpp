#include "pop/population.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace fedtrans {

namespace {

/// Salts separating the population's per-client derivations.
constexpr std::uint64_t kDeviceSalt = 0xdef1ee70ULL;
constexpr std::uint64_t kShardSalt = 0x5eedda7aULL;
constexpr std::uint64_t kPhaseSalt = 0xd1a17e5ULL;

/// Longest diurnal period: ClientDescriptor::avail_phase is 16 bits.
constexpr int kMaxPeriodRounds = 65536;

/// Clients per availability-scan chunk: a whole number of 64-bit mask
/// words, so no two chunks share a word.
constexpr std::int64_t kScanChunk = 1 << 14;
static_assert(kScanChunk % 64 == 0);

/// Runs fn(chunk, begin, end) over [0, n) in kScanChunk-sized chunks on the
/// shared pool. Chunk boundaries depend on n alone, never on the thread
/// count or on how parallel_for splits its ranges.
template <typename Fn>
void for_each_chunk(std::int64_t n, const Fn& fn) {
  ThreadPool::global().parallel_for(
      n, kScanChunk, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; b += kScanChunk)
          fn(b / kScanChunk, b, std::min(hi, b + kScanChunk));
      });
}

Counter& pop_materializations() {
  static Counter c("fedtrans_pop_materializations_total");
  return c;
}
Counter& pop_hits() {
  static Counter c("fedtrans_pop_pool_hits_total");
  return c;
}
Counter& pop_evictions() {
  static Counter c("fedtrans_pop_pool_evictions_total");
  return c;
}

}  // namespace

Population::Population(const PopulationConfig& cfg)
    : cfg_([&] {
        PopulationConfig c = cfg;
        c.shard.num_clients = c.num_clients;
        c.shard.seed = c.seed;
        c.fleet.num_devices = c.num_clients;
        return c;
      }()),
      shards_(cfg_.shard) {
  FT_CHECK_MSG(cfg_.num_clients >= 1, "population needs at least one client");
  FT_CHECK_MSG(cfg_.pool_capacity >= 1, "pool capacity must be positive");
  const int period = cfg_.availability.period_rounds;
  FT_CHECK_MSG(period >= 1 && period <= kMaxPeriodRounds,
               "availability.period_rounds " << period << " outside [1, "
                                             << kMaxPeriodRounds << "]");
  descriptors_.resize(static_cast<std::size_t>(cfg_.num_clients));
  // Every descriptor is a pure function of (population seed, client index):
  // construction parallelizes and any client regenerates identically in a
  // leaf-aggregator process that only ever builds its own partition.
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(cfg_.num_clients), 4096,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto c = static_cast<std::uint64_t>(i);
          ClientDescriptor& d = descriptors_[static_cast<std::size_t>(i)];
          Rng device_rng(mix64(mix64(cfg_.seed ^ kDeviceSalt) ^ c));
          d.profile = sample_device(cfg_.fleet, device_rng);
          d.data_seed = static_cast<std::uint32_t>(
              mix64(mix64(cfg_.seed ^ kShardSalt) ^ c));
          const std::uint64_t ph = mix64(mix64(cfg_.seed ^ kPhaseSalt) ^ c);
          d.avail_phase = static_cast<std::uint16_t>(
              ph % static_cast<std::uint64_t>(period));
          d.avail_group = static_cast<std::uint16_t>(ph >> 48);
        }
      });
}

const ClientDescriptor& Population::descriptor(int c) const {
  FT_CHECK_MSG(c >= 0 && c < num_clients(), "unknown client " << c);
  return descriptors_[static_cast<std::size_t>(c)];
}

std::uint64_t Population::shard_seed(int c) const {
  const ClientDescriptor& d = descriptor(c);
  return mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c))
                << 32) ^
               d.data_seed ^ cfg_.seed);
}

bool Population::available(std::uint32_t round, int c) const {
  return device_available(cfg_.availability, round,
                          static_cast<std::uint32_t>(c),
                          descriptor(c).avail_phase);
}

ClientData Population::materialize(int c) const {
  return shards_.make_client(shard_seed(c));
}

std::vector<DeviceProfile> Population::fleet() const {
  std::vector<DeviceProfile> out;
  out.reserve(descriptors_.size());
  for (const auto& d : descriptors_) out.push_back(d.profile);
  return out;
}

std::vector<int> Population::select_cohort(std::uint32_t round, int k,
                                           Rng& rng) const {
  FT_CHECK_MSG(k >= 1, "cohort size must be positive");
  const AvailabilityModel& m = cfg_.availability;
  const std::int64_t clients = num_clients();
  std::vector<int> avail;
  if (always_online(m)) {
    avail.resize(static_cast<std::size_t>(clients));
    std::iota(avail.begin(), avail.end(), 0);
  } else {
    // The same derivation as available(), hoisted: one online probability
    // per diurnal phase and one hash prefix per round, so each client costs
    // one mixing round and a table lookup.
    std::vector<double> threshold(static_cast<std::size_t>(m.period_rounds));
    for (std::size_t ph = 0; ph < threshold.size(); ++ph)
      threshold[ph] =
          online_probability(m, round, static_cast<std::uint32_t>(ph));
    const std::uint64_t prefix = availability_prefix(m, round);
    const ClientDescriptor* desc = descriptors_.data();
    // Pass 1 keeps each client's answer as one bit of a transient mask and
    // counts every chunk; pass 2 writes each chunk's online clients from
    // its prefix-sum offset, so `avail` comes out in index order.
    std::vector<std::uint64_t> online(
        static_cast<std::size_t>((clients + 63) / 64));
    std::vector<std::size_t> offset(
        static_cast<std::size_t>((clients + kScanChunk - 1) / kScanChunk) + 1);
    for_each_chunk(clients, [&](std::int64_t chunk, std::int64_t lo,
                                std::int64_t hi) {
      std::size_t count = 0;
      for (std::int64_t w = lo; w < hi; w += 64) {
        std::uint64_t word = 0;
        for (std::int64_t c = w; c < std::min(hi, w + 64); ++c)
          word |= static_cast<std::uint64_t>(
                      hash01_from(prefix, static_cast<std::uint64_t>(c)) <
                      threshold[desc[c].avail_phase])
                  << (c - w);
        online[static_cast<std::size_t>(w / 64)] = word;
        count += static_cast<std::size_t>(std::popcount(word));
      }
      offset[static_cast<std::size_t>(chunk) + 1] = count;
    });
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    avail.resize(offset.back());
    for_each_chunk(clients, [&](std::int64_t chunk, std::int64_t lo,
                                std::int64_t hi) {
      int* out = avail.data() + offset[static_cast<std::size_t>(chunk)];
      for (std::int64_t w = lo; w < hi; w += 64)
        for (std::uint64_t word = online[static_cast<std::size_t>(w / 64)];
             word != 0; word &= word - 1)
          *out++ = static_cast<int>(w + std::countr_zero(word));
    });
  }
  const int n = static_cast<int>(avail.size());
  if (n <= k) return avail;  // everyone online participates
  // Partial Fisher–Yates: k swaps, not a full shuffle of the population.
  for (int i = 0; i < k; ++i)
    std::swap(avail[static_cast<std::size_t>(i)],
              avail[static_cast<std::size_t>(rng.uniform_int(i, n - 1))]);
  avail.resize(static_cast<std::size_t>(k));
  return avail;
}

FederatedDataset Population::materialize_all() const {
  std::vector<ClientData> clients(static_cast<std::size_t>(num_clients()));
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(num_clients()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          clients[static_cast<std::size_t>(i)] =
              materialize(static_cast<int>(i));
      });
  return FederatedDataset::from_clients(cfg_.shard, std::move(clients));
}

CohortPool::CohortPool(const Population& pop, int capacity)
    : pop_(&pop), capacity_(capacity) {
  FT_CHECK_MSG(capacity_ >= 1, "pool capacity must be positive");
  slots_.resize(static_cast<std::size_t>(capacity_));
  index_.reserve(static_cast<std::size_t>(capacity_));
}

void CohortPool::begin_round(const std::vector<int>& cohort) {
  std::lock_guard<std::mutex> lk(m_);
  FT_CHECK_MSG(static_cast<int>(cohort.size()) <= capacity_,
               "cohort of " << cohort.size()
                            << " exceeds pool capacity " << capacity_);
  ++epoch_;
  // Pin carried-over cohort members so this round can't evict them; their
  // data stays warm across consecutive selections (pool hit, not a regen).
  for (int c : cohort) {
    auto it = index_.find(c);
    if (it != index_.end())
      slots_[static_cast<std::size_t>(it->second)].epoch = epoch_;
  }
}

const ClientData& CohortPool::get(int client) const {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    auto it = index_.find(client);
    if (it != index_.end()) {
      Slot& s = slots_[static_cast<std::size_t>(it->second)];
      s.epoch = epoch_;  // touched this epoch → pinned until the next
      if (s.ready) {
        ++hits_;
        pop_hits().inc();
        return s.data;
      }
      // Another worker is generating this client: wait for it.
      cv_.wait(lk);
      continue;
    }
    // Miss: claim a slot — empty first, else the oldest-epoch idle entry.
    int victim = -1;
    std::uint64_t oldest = epoch_;
    for (int i = 0; i < capacity_; ++i) {
      Slot& s = slots_[static_cast<std::size_t>(i)];
      if (s.client < 0) {
        victim = i;
        break;
      }
      if (!s.filling && s.epoch < oldest) {
        victim = i;
        oldest = s.epoch;
      }
    }
    FT_CHECK_MSG(victim >= 0,
                 "cohort pool exhausted: every slot is pinned to the "
                 "current epoch (capacity " << capacity_ << ")");
    Slot& s = slots_[static_cast<std::size_t>(victim)];
    if (s.client >= 0) {
      index_.erase(s.client);
      ++evictions_;
      pop_evictions().inc();
    }
    s.client = client;
    s.epoch = epoch_;
    s.ready = false;
    s.filling = true;
    index_[client] = victim;

    lk.unlock();
    ClientData data = pop_->materialize(client);  // heavy work, no lock
    lk.lock();
    s.data = std::move(data);
    s.ready = true;
    s.filling = false;
    ++materializations_;
    pop_materializations().inc();
    cv_.notify_all();
    return s.data;
  }
}

int CohortPool::resident() const {
  std::lock_guard<std::mutex> lk(m_);
  int n = 0;
  for (const Slot& s : slots_)
    if (s.client >= 0 && s.ready) ++n;
  return n;
}

std::size_t CohortPool::resident_bytes() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t bytes = 0;
  for (const Slot& s : slots_) {
    if (s.client < 0 || !s.ready) continue;
    bytes += static_cast<std::size_t>(s.data.x_train.numel()) * sizeof(float);
    bytes += static_cast<std::size_t>(s.data.x_eval.numel()) * sizeof(float);
    bytes += s.data.y_train.size() * sizeof(int);
    bytes += s.data.y_eval.size() * sizeof(int);
  }
  return bytes;
}

PopulationDataView::PopulationDataView(const Population& pop)
    : pop_(&pop), pool_(pop, pop.config().pool_capacity) {}

PopulationSelector::PopulationSelector(const Population& pop,
                                       PopulationDataView* view)
    : pop_(&pop), view_(view) {}

std::vector<int> PopulationSelector::select(int population, int k, Rng& rng) {
  FT_CHECK_MSG(population == pop_->num_clients(),
               "selector population " << population
                                      << " != descriptor index size "
                                      << pop_->num_clients());
  std::vector<int> cohort = pop_->select_cohort(round_, k, rng);
  ++round_;
  if (view_ != nullptr) {
    view_->pool().begin_round(cohort);
    auto& reg = MetricsRegistry::global();
    reg.gauge_set("fedtrans_pop_population_size",
                  static_cast<double>(pop_->num_clients()));
    reg.gauge_set("fedtrans_pop_resident_clients",
                  static_cast<double>(view_->pool().resident()));
    reg.gauge_set("fedtrans_pop_descriptor_bytes",
                  static_cast<double>(pop_->descriptor_bytes()));
  }
  return cohort;
}

}  // namespace fedtrans
