// Federation-fabric throughput (google-benchmark): messages per second and
// bytes moved per round through the wire protocol + simulated transport +
// FederationServer exchange, as a function of the client count — plus the
// same round over the sharded (2-level) aggregation tree as a function of
// the shard count, and the raw encode/decode rate of ModelDown-sized
// frames. Emitted into BENCH_micro_ops.json by scripts/bench_micro.sh
// (counters: msgs_per_s, msgs_per_s_sharded, bytes_per_round,
// msgs_per_round).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

#include <map>
#include <memory>

#include "data/dataset.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "pop/population.hpp"
#include "tensor/gemm.hpp"

namespace fedtrans {
namespace {

DatasetConfig bench_data(int clients) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 12;
  cfg.min_train_samples = 8;
  cfg.eval_samples = 4;
  cfg.seed = 5;
  return cfg;
}

ModelSpec bench_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

/// One full fabric round — broadcast, concurrent agent training, collect —
/// with every selected client participating. items == fabric messages.
void BM_FabricRound(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  auto data = FederatedDataset::generate(bench_data(clients));
  FleetConfig fleet_cfg;
  fleet_cfg.num_devices = clients;
  fleet_cfg.with_median_capacity(5e6);
  auto fleet = sample_fleet(fleet_cfg);
  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FederationServer server(model, data, fleet, local, FaultConfig{});

  std::vector<int> selected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) selected[static_cast<std::size_t>(c)] = c;
  WeightSet global = model.weights();

  std::uint64_t round = 0;
  std::uint64_t frames0 = server.stats().frames_sent.load();
  std::uint64_t bytes0 = server.stats().bytes_sent.load();
  for (auto _ : state) {
    std::vector<Rng> rngs;
    rngs.reserve(selected.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < selected.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               selected, rngs);
    benchmark::DoNotOptimize(ex.results.data());
  }
  const std::uint64_t frames =
      server.stats().frames_sent.load() - frames0;
  const std::uint64_t bytes = server.stats().bytes_sent.load() - bytes0;
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["msgs_per_s"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["msgs_per_round"] =
      static_cast<double>(frames) / static_cast<double>(state.iterations());
  state.counters["bytes_per_round"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FabricRound)->Arg(8)->Arg(32)->Arg(128)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The same full round over the sharded aggregation tree (2 levels ×
/// `shards` leaves, fixed 64-client fleet): shard-parallel leaf collection
/// plus bundled ShardDown/PartialUp traffic at the root. shards == 1 is
/// the degenerate one-leaf tree — compare against BM_FabricRound/64-ish
/// flat numbers for the bundling overhead itself.
void BM_FabricRoundSharded(benchmark::State& state) {
  const int clients = 64;
  const int shards = static_cast<int>(state.range(0));
  auto data = FederatedDataset::generate(bench_data(clients));
  FleetConfig fleet_cfg;
  fleet_cfg.num_devices = clients;
  fleet_cfg.with_median_capacity(5e6);
  auto fleet = sample_fleet(fleet_cfg);
  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FabricTopology topo;
  topo.levels = 2;
  topo.shards = shards;
  FederationServer server(model, data, fleet, local, FaultConfig{}, topo);

  std::vector<int> selected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) selected[static_cast<std::size_t>(c)] = c;
  WeightSet global = model.weights();

  std::uint64_t round = 0;
  std::uint64_t frames0 = server.stats().frames_sent.load();
  std::uint64_t bytes0 = server.stats().bytes_sent.load();
  for (auto _ : state) {
    std::vector<Rng> rngs;
    rngs.reserve(selected.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < selected.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               selected, rngs);
    benchmark::DoNotOptimize(ex.results.data());
  }
  const std::uint64_t frames =
      server.stats().frames_sent.load() - frames0;
  const std::uint64_t bytes = server.stats().bytes_sent.load() - bytes0;
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["msgs_per_s_sharded"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["msgs_per_round"] =
      static_cast<double>(frames) / static_cast<double>(state.iterations());
  state.counters["bytes_per_round"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FabricRoundSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Depth sweep over the aggregation tree (64-client fleet): levels 2 and 3,
/// 4 and 8 leaves, verbatim bundles vs numeric partial aggregation. The
/// headline counter is root_bytes_per_round — the traffic landing in the
/// root's mailbox per round. Verbatim bundles carry every client update
/// upstream (O(clients) at the root whatever the tree); numeric mode
/// forwards one pre-summed group per bundle, collapsing the root's fan-in
/// to O(branching).
void BM_FabricRoundTree(benchmark::State& state) {
  const int clients = 64;
  const int levels = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const bool numeric = state.range(2) != 0;
  auto data = FederatedDataset::generate(bench_data(clients));
  FleetConfig fleet_cfg;
  fleet_cfg.num_devices = clients;
  fleet_cfg.with_median_capacity(5e6);
  auto fleet = sample_fleet(fleet_cfg);
  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FabricTopology topo;
  topo.levels = levels;
  topo.shards = shards;
  topo.partial_aggregation = numeric;
  FederationServer server(model, data, fleet, local, FaultConfig{}, topo);

  std::vector<int> selected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) selected[static_cast<std::size_t>(c)] = c;
  // One reduce group, FedAvg-style: every update sums into one accumulator.
  const std::vector<std::int32_t> reduce_keys(
      static_cast<std::size_t>(clients), 0);
  WeightSet global = model.weights();

  std::uint64_t round = 0;
  std::uint64_t frames0 = server.stats().frames_sent.load();
  std::uint64_t bytes0 = server.stats().bytes_sent.load();
  std::uint64_t root0 = server.stats().bytes_root_in.load();
  for (auto _ : state) {
    std::vector<Rng> rngs;
    rngs.reserve(selected.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < selected.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               selected, rngs,
                               numeric ? reduce_keys
                                       : std::vector<std::int32_t>{});
    benchmark::DoNotOptimize(ex.results.data());
  }
  const std::uint64_t frames = server.stats().frames_sent.load() - frames0;
  const std::uint64_t bytes = server.stats().bytes_sent.load() - bytes0;
  const std::uint64_t root_bytes =
      server.stats().bytes_root_in.load() - root0;
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["msgs_per_s_tree"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["bytes_per_round"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["root_bytes_per_round"] =
      static_cast<double>(root_bytes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FabricRoundTree)
    ->ArgNames({"levels", "shards", "numeric"})
    ->Args({2, 4, 0})
    ->Args({2, 4, 1})
    ->Args({2, 8, 0})
    ->Args({2, 8, 1})
    ->Args({3, 4, 0})
    ->Args({3, 4, 1})
    ->Args({3, 8, 0})
    ->Args({3, 8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The numeric tree again with wire-v6 quantized partials: every
/// PartialUp group sum ships int8 + one fp32 scale instead of fp32
/// payloads. The headline counter is root_bytes_per_round_quant —
/// compare against BM_FabricRoundTree's numeric root_bytes_per_round for
/// the same (levels, shards) to see the quantization factor on the
/// backbone (weight data shrinks ~4×; framing/group headers stay fp32).
void BM_FabricRoundTreeQuant(benchmark::State& state) {
  const int clients = 64;
  const int levels = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  auto data = FederatedDataset::generate(bench_data(clients));
  FleetConfig fleet_cfg;
  fleet_cfg.num_devices = clients;
  fleet_cfg.with_median_capacity(5e6);
  auto fleet = sample_fleet(fleet_cfg);
  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FabricTopology topo;
  topo.levels = levels;
  topo.shards = shards;
  topo.partial_aggregation = true;
  topo.quantize_partials = PartialQuant::Int8;
  FederationServer server(model, data, fleet, local, FaultConfig{}, topo);

  std::vector<int> selected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) selected[static_cast<std::size_t>(c)] = c;
  const std::vector<std::int32_t> reduce_keys(
      static_cast<std::size_t>(clients), 0);
  WeightSet global = model.weights();

  std::uint64_t round = 0;
  std::uint64_t frames0 = server.stats().frames_sent.load();
  std::uint64_t root0 = server.stats().bytes_root_in.load();
  for (auto _ : state) {
    std::vector<Rng> rngs;
    rngs.reserve(selected.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < selected.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               selected, rngs, reduce_keys);
    benchmark::DoNotOptimize(ex.results.data());
  }
  const std::uint64_t frames = server.stats().frames_sent.load() - frames0;
  const std::uint64_t root_bytes =
      server.stats().bytes_root_in.load() - root0;
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["root_bytes_per_round_quant"] =
      static_cast<double>(root_bytes) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FabricRoundTreeQuant)
    ->ArgNames({"levels", "shards"})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 4})
    ->Args({3, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Repeat-broadcast rounds (frozen global, fixed cohort) over the 2-level
/// tree, sweeping the wire-v6 downlink reducers: mode 0 ships everything
/// full (the PR 9 behaviour — downlink_bytes_full is the baseline), mode 1
/// elides repeat ShardDown bodies through the interior broadcast caches,
/// mode 2 ships round-over-round ModelDown deltas, mode 3 composes both.
/// One priming round runs outside the timing loop so the counters report
/// the warm steady state; cache/delta savings per round ride along for the
/// byte-ledger cross-check (full == measured + saved).
void BM_FabricRoundRepeat(benchmark::State& state) {
  const int clients = 64;
  const int mode = static_cast<int>(state.range(0));
  auto data = FederatedDataset::generate(bench_data(clients));
  FleetConfig fleet_cfg;
  fleet_cfg.num_devices = clients;
  fleet_cfg.with_median_capacity(5e6);
  auto fleet = sample_fleet(fleet_cfg);
  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FabricTopology topo;
  topo.levels = 2;
  topo.shards = 4;
  topo.broadcast_cache = mode == 1 || mode == 3;
  topo.delta_downlink = mode == 2 || mode == 3;
  FederationServer server(model, data, fleet, local, FaultConfig{}, topo);

  std::vector<int> selected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) selected[static_cast<std::size_t>(c)] = c;
  const WeightSet global = model.weights();

  std::uint64_t round = 0;
  auto run_one = [&] {
    std::vector<Rng> rngs;
    rngs.reserve(selected.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < selected.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               selected, rngs);
    benchmark::DoNotOptimize(ex.results.data());
  };
  run_one();  // prime: cold caches, no delta base yet — not measured

  std::uint64_t down0 = server.stats().bytes_downlink.load();
  std::uint64_t cache0 = server.stats().cache_saved_bytes.load();
  std::uint64_t delta0 = server.stats().delta_saved_bytes.load();
  for (auto _ : state) run_one();
  const double iters = static_cast<double>(state.iterations());
  const double down =
      static_cast<double>(server.stats().bytes_downlink.load() - down0);
  static const char* const kModeKey[] = {
      "downlink_bytes_full", "downlink_bytes_cached", "downlink_bytes_delta",
      "downlink_bytes_v6"};
  state.counters[kModeKey[mode]] = down / iters;
  state.counters["cache_saved_per_round"] = static_cast<double>(
      server.stats().cache_saved_bytes.load() - cache0) / iters;
  state.counters["delta_saved_per_round"] = static_cast<double>(
      server.stats().delta_saved_bytes.load() - delta0) / iters;
}
BENCHMARK(BM_FabricRoundRepeat)
    ->ArgName("mode")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Full fabric rounds over a huge sparse population (10k → 1M clients,
/// fixed 128-client cohort): the selection scan walks the descriptor
/// index, the cohort pool materializes only the 128 selected shards per
/// round, and the FederationServer exchange runs over the wire protocol
/// exactly as in BM_FabricRound. The headline counters are rounds_per_s
/// (population scan + cohort materialization + fabric round) and
/// resident_bytes_per_idle_client — descriptor storage plus the engine's
/// dense fleet copy, amortized over the whole population (acceptance
/// budget: ≤ 64 bytes/idle client at 1M).
void BM_FabricRoundHuge(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  constexpr int kCohort = 128;

  // The 1M descriptor index is reused across google-benchmark's repeated
  // calibration calls — setup cost must not be rebuilt per estimate.
  struct HugeSetup {
    Population pop;
    PopulationDataView view;
    std::vector<DeviceProfile> fleet;
    explicit HugeSetup(const PopulationConfig& cfg)
        : pop(cfg), view(pop), fleet(pop.fleet()) {}
  };
  static std::map<int, std::unique_ptr<HugeSetup>> cache;
  auto& setup = cache[population];
  if (!setup) {
    PopulationConfig cfg;
    cfg.num_clients = population;
    cfg.seed = 5;
    cfg.shard = bench_data(population);
    cfg.fleet.with_median_capacity(5e6);
    cfg.availability.base_online_frac = 0.8;
    cfg.availability.diurnal_amplitude = 0.1;
    cfg.pool_capacity = 2 * kCohort;
    setup = std::make_unique<HugeSetup>(cfg);
  }

  Rng rng(1);
  Model model(bench_model(), rng);
  LocalTrainConfig local;
  local.steps = 2;
  local.batch = 4;
  FederationServer server(model, setup->view, setup->fleet, local,
                          FaultConfig{});
  WeightSet global = model.weights();

  std::uint64_t round = 0;
  Rng select_rng(7);
  for (auto _ : state) {
    const auto cohort = setup->pop.select_cohort(
        static_cast<std::uint32_t>(round), kCohort, select_rng);
    setup->view.pool().begin_round(cohort);
    std::vector<Rng> rngs;
    rngs.reserve(cohort.size());
    Rng round_rng(round + 17);
    for (std::size_t i = 0; i < cohort.size(); ++i)
      rngs.push_back(round_rng.fork());
    auto ex = server.run_round(static_cast<std::uint32_t>(round++), global,
                               cohort, rngs);
    benchmark::DoNotOptimize(ex.results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rounds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  const double idle_bytes = static_cast<double>(
      setup->pop.descriptor_bytes() +
      setup->fleet.capacity() * sizeof(DeviceProfile));
  state.counters["resident_bytes_per_idle_client"] =
      idle_bytes / static_cast<double>(population);
  state.counters["pool_resident_clients"] =
      static_cast<double>(setup->view.pool().resident());
}
BENCHMARK(BM_FabricRoundHuge)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseRealTime()  // the selection scan runs on pool threads
    ->Unit(benchmark::kMillisecond);

/// Pure wire-protocol cost: encode+decode of a ModelDown frame carrying the
/// bench model's full weight set. items == frames; bytes_per_frame reported.
void BM_WireCodec(benchmark::State& state) {
  Rng rng(1);
  Model model(bench_model(), rng);
  FabricMessage msg;
  msg.type = MsgType::ModelDown;
  msg.round = 1;
  msg.sender = kServerId;
  msg.receiver = 0;
  msg.weights = model.weights();
  for (auto _ : state) {
    const std::string frame = encode_message(msg);
    FabricMessage back = decode_message(frame);
    benchmark::DoNotOptimize(back.weights.data());
  }
  msg.weights = model.weights();
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_frame"] =
      static_cast<double>(encode_message(msg).size());
  state.counters["frames_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WireCodec)->UseRealTime();

}  // namespace
}  // namespace fedtrans

int main(int argc, char** argv) {
  // `library_build_type` in the context block describes the system
  // libbenchmark, not this binary, and the packaged version predates JSON
  // output for AddCustomContext — so the authoritative repo-build keys are
  // exposed via a probe flag instead (scripts/bench_micro.sh gates
  // recording on them).
  if (argc > 1 && std::string_view(argv[1]) == "--fedtrans_context") {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf("{\"fedtrans_build_type\": \"%s\", "
                "\"fedtrans_gemm_backend\": \"%s\"}\n",
                build, fedtrans::gemm_backend_name(fedtrans::gemm_backend()));
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
