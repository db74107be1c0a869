#include "workloads.hpp"

#include "decorators.hpp"
#include "harness/presets.hpp"
#include "trace/device.hpp"

namespace fedtrans::e2e {

namespace {

/// The strategy the engine owns: `s` itself, or its decorator.
std::unique_ptr<Strategy> seat_strategy(std::unique_ptr<Strategy> s,
                                        bool timed) {
  if (!timed) return s;
  return std::make_unique<TimedStrategy>(std::move(s));
}

/// Install `own` in place of the selector the engine built from its session
/// config (null keeps that one); timed sessions wrap whichever sits there.
void seat_selector(FederationEngine& engine,
                   std::unique_ptr<ClientSelector> own, bool timed) {
  if (own == nullptr) {
    if (!timed) return;
    own = make_selector(engine.config().selector);
  }
  if (timed) own = std::make_unique<TimedSelector>(std::move(own));
  engine.set_selector(std::move(own));
}

/// The provider the engine sees: the data itself, or its decorator.
const ClientDataProvider& seat_data(Federation& f,
                                    const ClientDataProvider& data,
                                    bool timed) {
  if (!timed) return data;
  f.timed_data = std::make_unique<TimedDataProvider>(data);
  return *f.timed_data;
}

void build_fedtrans(Federation& f, std::uint64_t seed, bool tree,
                    bool timed) {
  ExperimentPreset p = cifar_like(Scale::Small, seed);
  p.fedtrans.rounds = kRounds;
  p.fedtrans.eval_every = 0;
  f.dataset = std::make_unique<FederatedDataset>(
      FederatedDataset::generate(p.dataset));
  SessionConfig cfg = SessionConfig::from(p.fedtrans);
  // Verbatim bundles: the tree session stays a bitwise twin of the
  // in-process one, so the gap between the two is the fabric's cost.
  if (tree)
    cfg.with_tree(3, 4)
        .with_broadcast_cache()
        .with_delta_downlink()
        .with_socket_transport();
  auto strategy = std::make_unique<FedTransStrategy>(p.initial_model,
                                                     p.fedtrans);
  f.fedtrans = strategy.get();
  f.tasks_per_round = cfg.clients_per_round;
  f.engine = std::make_unique<FederationEngine>(
      seat_strategy(std::move(strategy), timed),
      seat_data(f, *f.dataset, timed), sample_fleet(p.fleet), cfg);
  seat_selector(*f.engine, nullptr, timed);
}

/// BM_FabricRoundHuge's million-client federation (bench_fabric_throughput).
void build_fedavg_pop(Federation& f, std::uint64_t seed, bool timed) {
  PopulationConfig pc;
  pc.num_clients = 1'000'000;
  pc.seed = seed;
  pc.shard.num_classes = 4;
  pc.shard.channels = 1;
  pc.shard.hw = 8;
  pc.shard.mean_train_samples = 12;
  pc.shard.min_train_samples = 8;
  pc.shard.eval_samples = 4;
  pc.fleet.with_median_capacity(5e6);
  pc.availability.base_online_frac = 0.8;
  pc.availability.diurnal_amplitude = 0.1;
  pc.pool_capacity = 256;
  f.population = std::make_unique<Population>(pc);
  f.view = std::make_unique<PopulationDataView>(*f.population);

  SessionConfig cfg;
  cfg.with_rounds(kRounds).with_clients_per_round(128).with_seed(seed)
      .with_fabric();
  cfg.eval_every = 0;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  Rng init_rng(seed);
  auto strategy = std::make_unique<FedAvgStrategy>(
      Model(ModelSpec::conv(1, 8, 4, 4, {6, 8}), init_rng), FedAvgOptions{});
  f.fedavg = strategy.get();
  f.tasks_per_round = cfg.clients_per_round;
  f.engine = std::make_unique<FederationEngine>(
      seat_strategy(std::move(strategy), timed),
      seat_data(f, *f.view, timed), f.population->fleet(), cfg);
  seat_selector(
      *f.engine,
      std::make_unique<PopulationSelector>(*f.population, f.view.get()),
      timed);
}

void build_heterofl(Federation& f, std::uint64_t seed, bool timed) {
  ExperimentPreset p = femnist_like(Scale::Small, seed);
  p.fedtrans.rounds = kRounds;
  p.fedtrans.eval_every = 0;
  f.dataset = std::make_unique<FederatedDataset>(
      FederatedDataset::generate(p.dataset));
  FaultConfig faults;
  faults.drop_prob = 0.05;
  faults.dup_prob = 0.05;
  faults.reorder_prob = 0.05;
  faults.dropout_prob = 0.02;
  faults.leaf_death_prob = 0.1;
  faults.seed = seed;
  SessionConfig cfg = SessionConfig::from(p.fedtrans);
  cfg.with_fabric(faults)
      .with_tree(3, 4)
      .with_partial_aggregation()
      .with_quantized_partials()
      .with_retries(2, 1.0);
  const ModelSpec full = ModelSpec::conv(1, 12, p.dataset.num_classes, 4,
                                         {12, 16}, {1, 1}, {1, 2});
  auto strategy = std::make_unique<HeteroFLStrategy>(
      full, std::vector<double>{1.0, 0.5, 0.25, 0.125, 0.0625});
  f.heterofl = strategy.get();
  f.tasks_per_round = cfg.clients_per_round;
  f.engine = std::make_unique<FederationEngine>(
      seat_strategy(std::move(strategy), timed),
      seat_data(f, *f.dataset, timed), sample_fleet(p.fleet), cfg);
  seat_selector(*f.engine, nullptr, timed);
}

void digest_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

void digest_model(std::uint64_t& h, Model& m) {
  for (const Tensor& t : m.weights())
    digest_bytes(h, t.data(), static_cast<std::size_t>(t.numel()) *
                                  sizeof(float));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"fedtrans-cifar", Kind::FedTransCifar},
      {"fedtrans-cifar-tree", Kind::FedTransCifarTree},
      {"fedavg-pop-1m", Kind::FedAvgPop},
      {"heterofl-femnist-faulty", Kind::HeteroFLFaulty},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

std::unique_ptr<Federation> build_federation(const Workload& w,
                                             std::uint64_t seed, bool timed) {
  auto f = std::make_unique<Federation>();
  switch (w.kind) {
    case Kind::FedTransCifar: build_fedtrans(*f, seed, false, timed); break;
    case Kind::FedTransCifarTree: build_fedtrans(*f, seed, true, timed); break;
    case Kind::FedAvgPop: build_fedavg_pop(*f, seed, timed); break;
    case Kind::HeteroFLFaulty: build_heterofl(*f, seed, timed); break;
  }
  return f;
}

double final_accuracy(Federation& f, std::uint64_t seed) {
  if (f.fedtrans != nullptr) return f.fedtrans->evaluate_final().mean_accuracy;
  double sum = 0.0;
  if (f.heterofl != nullptr) {
    std::vector<Model> levels;
    for (int l = 0; l < f.heterofl->num_levels(); ++l)
      levels.push_back(f.heterofl->submodel(l));
    const int n = f.dataset->num_clients();
    for (int c = 0; c < n; ++c)
      sum += evaluate_accuracy(
          levels[static_cast<std::size_t>(f.heterofl->level_for(c))],
          f.dataset->client(c));
    return sum / n;
  }
  Rng rng(seed + 977);
  const auto ids = uniform_select(f.population->num_clients(), 256, rng);
  for (int c : ids)
    sum += evaluate_accuracy(f.fedavg->model(), f.population->materialize(c));
  return sum / static_cast<double>(ids.size());
}

std::uint64_t weights_digest(Federation& f) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (f.fedtrans != nullptr)
    for (int i = 0; i < f.fedtrans->num_models(); ++i)
      digest_model(h, f.fedtrans->model(i));
  if (f.heterofl != nullptr) digest_model(h, f.heterofl->global());
  if (f.fedavg != nullptr) digest_model(h, f.fedavg->model());
  return h;
}

}  // namespace fedtrans::e2e
