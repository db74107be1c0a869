// Microbenchmarks (google-benchmark): the hot operations underneath every
// experiment — GEMM, conv2d forward/backward, a full local-training step,
// model transformation, and soft aggregation. Useful for regression-testing
// the substrate's performance.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/robust.hpp"
#include "common/thread_pool.hpp"
#include "core/aggregator.hpp"
#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "fl/runner.hpp"
#include "fl/server_opt.hpp"
#include "model/transform.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/scale_shift.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "trace/device.hpp"

namespace fedtrans {
namespace {

// items == MACs, so GFLOP/s = 2 × items_per_second / 1e9 (the convention
// scripts/bench_micro.sh uses when emitting BENCH_micro_ops.json).
void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  a.randn(rng);
  b.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// Thread-count scaling of the acceptance-criterion shape (256³). The
// pool_threads counter lets scripts/bench_micro.sh flag a record whose
// thread count exceeds the host's CPUs ("oversubscribed").
void BM_GemmThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<int>(state.range(0)));
  state.counters["pool_threads"] = static_cast<double>(state.range(0));
  const int n = 256;
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  a.randn(rng);
  b.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
  ThreadPool::set_global_threads(ThreadPool::global_threads());
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Conv's weight gradient gW += dY·colᵀ, a short-M transposed-B product
// (m output channels per group, n = in·k·k, k = batch pixels). 4/36/1440 is
// the `narrow` conv row below (4 → 4 channels, 10 images of 12×12); the
// others are the e2e FedTrans workloads' hottest shapes: the stem (3 and 8
// output channels on 3 input channels) and layers with 6×6 output maps.
// BM_GemmWeightGradMaterializedB is the same product with B stored
// transposed ahead of time (op(B) = B), the bar the transposed-B kernel is
// measured against.
void weight_grad_bench(benchmark::State& state, bool materialized) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  Rng rng(3);
  Tensor dy({m, k}), col({n, k}), gw({m, n});
  dy.randn(rng);
  col.randn(rng);
  Tensor col_t({k, n});
  for (int j = 0; j < n; ++j)
    for (int p = 0; p < k; ++p) col_t.at(p, j) = col.at(j, p);
  for (auto _ : state) {
    if (materialized)
      gemm(false, false, m, n, k, 1.0f, dy.data(), k, col_t.data(), n, 1.0f,
           gw.data(), n);
    else
      gemm(false, true, m, n, k, 1.0f, dy.data(), k, col.data(), k, 1.0f,
           gw.data(), n);
    benchmark::DoNotOptimize(gw.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          n * k);
}

void BM_GemmWeightGrad(benchmark::State& state) {
  weight_grad_bench(state, /*materialized=*/false);
}
void BM_GemmWeightGradMaterializedB(benchmark::State& state) {
  weight_grad_bench(state, /*materialized=*/true);
}
void weight_grad_shapes(benchmark::internal::Benchmark* b) {
  b->Args({4, 36, 1440})
      ->Args({3, 27, 1440})
      ->Args({8, 27, 1440})
      ->Args({12, 72, 360})
      ->Args({24, 216, 360})
      ->UseRealTime();
}
BENCHMARK(BM_GemmWeightGrad)->Apply(weight_grad_shapes);
BENCHMARK(BM_GemmWeightGradMaterializedB)->Apply(weight_grad_shapes);

// Conv's column gradient dcol = Wᵀ·dY (m = in·k·k, n = batch pixels,
// k = output channels), a short-M transposed-A product: a 3×3 layer from 3
// to 4 channels over 10 images of 12×12 has 27 rows and 1440 pixels.
void BM_GemmColGrad(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  Rng rng(4);
  Tensor w({k, m}), dy({k, n}), dcol({m, n});
  w.randn(rng);
  dy.randn(rng);
  for (auto _ : state) {
    gemm(true, false, m, n, k, 1.0f, w.data(), m, dy.data(), n, 0.0f,
         dcol.data(), n);
    benchmark::DoNotOptimize(dcol.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          n * k);
}
BENCHMARK(BM_GemmColGrad)->Args({27, 1440, 4})->UseRealTime();

// The conv block's elementwise layers at the `narrow` row's activation
// shape [N, C, H, W]. No items are counted: these move memory, not MACs,
// so only the time is recorded.
template <class L>
void elementwise_bench(benchmark::State& state, L& layer, bool backward) {
  const std::vector<int> shape{static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)),
                               static_cast<int>(state.range(2)),
                               static_cast<int>(state.range(3))};
  Rng rng(6);
  Tensor x(shape), g(shape);
  x.randn(rng);
  g.randn(rng);
  layer.forward(x, true);
  for (auto _ : state) {
    Tensor out = backward ? layer.backward(g) : layer.forward(x, true);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_ReLUForward(benchmark::State& state) {
  ReLU relu;
  elementwise_bench(state, relu, /*backward=*/false);
}
void BM_ReLUBackward(benchmark::State& state) {
  ReLU relu;
  elementwise_bench(state, relu, /*backward=*/true);
}
void BM_ScaleShiftForward(benchmark::State& state) {
  ScaleShift ss(static_cast<int>(state.range(1)));
  elementwise_bench(state, ss, /*backward=*/false);
}
void BM_ScaleShiftBackward(benchmark::State& state) {
  ScaleShift ss(static_cast<int>(state.range(1)));
  elementwise_bench(state, ss, /*backward=*/true);
}
BENCHMARK(BM_ReLUForward)->Args({10, 4, 12, 12})->UseRealTime();
BENCHMARK(BM_ReLUBackward)->Args({10, 4, 12, 12})->UseRealTime();
BENCHMARK(BM_ScaleShiftForward)->Args({10, 4, 12, 12})->UseRealTime();
BENCHMARK(BM_ScaleShiftBackward)->Args({10, 4, 12, 12})->UseRealTime();

// Backend sweep on the acceptance shape (256³, single thread): BM_GemmSimd
// forces the best available SIMD micro-kernel, BM_GemmScalar the plain-C
// parity reference (compiled with auto-vectorization disabled, so this is a
// genuinely scalar baseline). The perf acceptance bar is SIMD ≥ 4× scalar.
void gemm_backend_bench(benchmark::State& state, GemmBackend b) {
  ThreadPool::set_global_threads(1);
  const GemmBackend prev = gemm_backend();
  set_gemm_backend(b);
  const int n = 256;
  Rng rng(1);
  Tensor a({n, n}), bm({n, n}), c({n, n});
  a.randn(rng);
  bm.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, bm.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
  state.SetLabel(gemm_backend_name(b));
  set_gemm_backend(prev);
  ThreadPool::set_global_threads(ThreadPool::global_threads());
}

void BM_GemmScalar(benchmark::State& state) {
  gemm_backend_bench(state, GemmBackend::Scalar);
}
BENCHMARK(BM_GemmScalar)->UseRealTime();

void BM_GemmSimd(benchmark::State& state) {
  const GemmBackend best = best_gemm_backend();
  if (best == GemmBackend::Scalar) {
    state.SkipWithError("no SIMD gemm backend available on this build/host");
    return;
  }
  gemm_backend_bench(state, best);
}
BENCHMARK(BM_GemmSimd)->UseRealTime();

// Conv2d forward/backward over one spec table, registered as
// BM_Conv2dForward/<label>/<backend> and BM_Conv2dBackward/<label>/<backend>.
// items == MACs per pass, so the GFLOP/s rates compare across group counts
// even though a grouped layer does 1/g the work: the batched im2col lowering
// packs a whole batch tile into one [ckk, bt·oh·ow] panel per group, which
// keeps grouped GFLOP/s in dense's ballpark instead of paying a sliver-GEMM
// penalty per image. `resnet` is the ResNet body layer (3×3, 64→64 on a
// 14×14 map), the dense comparator for its grouped rows. `narrow` is the
// shape the e2e FedTrans workloads train (3×3, 4→4, batch 10 of 12×12),
// where data movement, not arithmetic, sets the cost.
struct ConvBenchSpec {
  const char* label;
  int in_c, out_c, k, groups, batch, hw;
  std::vector<ConvBackend> backends;
};

const ConvBenchSpec kConvBenchSpecs[] = {
    {"small", 8, 16, 3, 1, 8, 12, {ConvBackend::Im2col, ConvBackend::Direct}},
    {"resnet", 64, 64, 3, 1, 4, 14, {ConvBackend::Im2col, ConvBackend::Direct}},
    {"resnet_g4", 64, 64, 3, 4, 4, 14, {ConvBackend::Im2col}},
    {"resnet_g8", 64, 64, 3, 8, 4, 14, {ConvBackend::Im2col}},
    {"narrow", 4, 4, 3, 1, 10, 12, {ConvBackend::Im2col, ConvBackend::Direct}},
};

void conv_bench(benchmark::State& state, const ConvBenchSpec& spec,
                ConvBackend backend, bool backward) {
  set_conv_backend(backend);
  Rng rng(2);
  Conv2d conv(spec.in_c, spec.out_c, spec.k, /*stride=*/1, /*padding=*/-1,
              /*bias=*/true, spec.groups);
  conv.init(rng);
  Tensor x({spec.batch, spec.in_c, spec.hw, spec.hw});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  Tensor g(y.shape());
  g.fill(0.1f);
  for (auto _ : state) {
    if (backward) {
      Tensor dx = conv.backward(g);
      benchmark::DoNotOptimize(dx.data());
    } else {
      Tensor out = conv.forward(x, true);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          conv.macs({spec.in_c, spec.hw, spec.hw}) *
                          spec.batch);
  set_conv_backend(ConvBackend::Im2col);
}

const bool kConvBenchesRegistered = [] {
  for (const bool backward : {false, true})
    for (const ConvBenchSpec& spec : kConvBenchSpecs)
      for (const ConvBackend backend : spec.backends) {
        const std::string name =
            std::string(backward ? "BM_Conv2dBackward/" : "BM_Conv2dForward/") +
            spec.label +
            (backend == ConvBackend::Im2col ? "/im2col" : "/direct");
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&spec, backend, backward](benchmark::State& state) {
              conv_bench(state, spec, backend, backward);
            })
            ->UseRealTime();
      }
  return true;
}();

void BM_LocalTrainStep(benchmark::State& state) {
  DatasetConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.num_clients = 1;
  dcfg.hw = 12;
  dcfg.mean_train_samples = 40;
  auto data = FederatedDataset::generate(dcfg);
  Rng rng(4);
  Model model(ModelSpec::conv(1, 12, 10, 4, {6, 8}, {1, 1}, {1, 2}), rng);
  LocalTrainConfig cfg;
  cfg.steps = 1;
  cfg.batch = 10;
  for (auto _ : state) {
    auto res = local_train(model, data.client(0), cfg, rng);
    benchmark::DoNotOptimize(res.avg_loss);
  }
}
BENCHMARK(BM_LocalTrainStep)->UseRealTime();

void BM_WidenTransform(benchmark::State& state) {
  Rng rng(5);
  Model parent(ModelSpec::conv(3, 12, 10, 8, {16, 24}, {2, 2}, {1, 2}), rng);
  for (auto _ : state) {
    Model child = widen_cell(parent, 0, 2.0, 1, rng);
    benchmark::DoNotOptimize(child.macs());
  }
}
BENCHMARK(BM_WidenTransform)->UseRealTime();

void BM_SoftAggregation(benchmark::State& state) {
  Rng rng(6);
  Model m0(ModelSpec::conv(1, 12, 10, 4, {8, 12}, {1, 1}, {1, 2}), rng);
  Model m1 = widen_cell(m0, 0, 2.0, 1, rng);
  Model m2 = widen_cell(m1, 1, 2.0, 2, rng);
  SoftAggregator agg({0.98, true, true, false});
  std::vector<Model*> models{&m0, &m1, &m2};
  std::vector<std::vector<double>> sim{
      {1.0, 0.6, 0.4}, {0.6, 1.0, 0.7}, {0.4, 0.7, 1.0}};
  int round = 0;
  for (auto _ : state) {
    agg.aggregate(models, sim, round++);
    benchmark::DoNotOptimize(models[2]);
  }
}
BENCHMARK(BM_SoftAggregation)->UseRealTime();

// Robust (Byzantine-tolerant) reductions vs the linear FedAvg fold over
// the same batch of client deltas. arg0 = client count, arg1 = reducer
// (0 linear mean, 1 coordinate median, 2 trimmed mean @ 0.3/side). The
// per-coordinate sorts make the robust reducers O(n log n) per coordinate
// where the fold is O(n) — this records the constant. NormClip is
// excluded: its O(n²·numel) pairwise distances belong in a macro bench.
void BM_RobustAggregation(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  Rng rng(7);
  Model proto(ModelSpec::conv(1, 8, 8, 4, {8, 16}), rng);
  std::vector<WeightSet> deltas(static_cast<std::size_t>(clients));
  for (WeightSet& d : deltas) {
    d = ws_zeros_like(proto.weights());
    for (auto& t : d) t.randn(rng);
  }
  for (auto _ : state) {
    WeightSet out;
    switch (kind) {
      case 1:
        out = robust_coordinate_median(deltas);
        break;
      case 2:
        out = robust_trimmed_mean(deltas, 0.3);
        break;
      default: {
        out = ws_zeros_like(deltas.front());
        for (const WeightSet& d : deltas) ws_axpy(out, 1.0f, d);
        ws_scale(out, 1.0f / static_cast<float>(clients));
        break;
      }
    }
    benchmark::DoNotOptimize(out.front().data());
  }
  // items == coordinates reduced per iteration (clients × numel).
  state.SetItemsProcessed(state.iterations() * clients *
                          ws_numel(proto.weights()));
}
BENCHMARK(BM_RobustAggregation)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Engine dispatch overhead: one FedAvg round driven through the
// FederationEngine's Strategy hooks (arg 0) vs the identical work hand-coded
// as a flat loop with no virtual dispatch (arg 1). The workload is kept tiny
// (1 local step) so the fixed per-round engine cost is as large a share as
// it can be; the acceptance bar is engine ≤ 1% over inline.

struct EngineBenchFixture {
  EngineBenchFixture() {
    DatasetConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.num_clients = 8;
    dcfg.hw = 8;
    dcfg.channels = 1;
    dcfg.mean_train_samples = 12;
    dcfg.min_train_samples = 8;
    dcfg.eval_samples = 4;
    data = FederatedDataset::generate(dcfg);
    FleetConfig fcfg;
    fcfg.num_devices = dcfg.num_clients;
    fcfg.with_median_capacity(5e6);
    fleet = sample_fleet(fcfg);
  }
  static LocalTrainConfig local_cfg() {
    LocalTrainConfig local;
    local.steps = 1;
    local.batch = 4;
    return local;
  }
  static ModelSpec spec() { return ModelSpec::conv(1, 8, 4, 4, {6}); }

  FederatedDataset data;
  std::vector<DeviceProfile> fleet;
};

/// The legacy-style flat round loop: select, fork, train on the pool,
/// reduce in order, bill, aggregate — semantically FedAvgStrategy's round
/// without any engine or virtual-hook involvement.
double inline_fedavg_round(Model& model, const FederatedDataset& data,
                           const std::vector<DeviceProfile>& fleet,
                           const LocalTrainConfig& local, int k, Rng& rng,
                           CostMeter& costs, ServerOptimizer& opt) {
  auto selected = uniform_select(data.num_clients(), k, rng);
  WeightSet acc = ws_zeros_like(model.weights());
  double weight_sum = 0.0, loss_sum = 0.0, slowest = 0.0;
  const double model_bytes = static_cast<double>(model.param_bytes());

  std::vector<Rng> rngs;
  rngs.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i)
    rngs.push_back(rng.fork());
  std::vector<LocalTrainResult> results(selected.size());
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(selected.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          Model local_model = model;
          results[static_cast<std::size_t>(i)] = local_train(
              local_model,
              data.client(selected[static_cast<std::size_t>(i)]), local,
              rngs[static_cast<std::size_t>(i)]);
        }
      });

  for (std::size_t ci = 0; ci < selected.size(); ++ci) {
    auto& res = results[ci];
    const double w = static_cast<double>(res.num_samples);
    ws_axpy(acc, static_cast<float>(w), res.delta);
    weight_sum += w;
    loss_sum += res.avg_loss;
    costs.add_training_macs(res.macs_used);
    costs.add_transfer(model_bytes, model_bytes);
    const double t = client_round_time_s(
        fleet[static_cast<std::size_t>(selected[ci])],
        static_cast<double>(model.macs()), local.steps, local.batch,
        model_bytes);
    costs.add_client_round_time(t);
    slowest = std::max(slowest, t);
  }
  if (weight_sum > 0.0) {
    ws_scale(acc, static_cast<float>(1.0 / weight_sum));
    WeightSet global = model.weights();
    opt.apply(global, acc);
    model.set_weights(global);
  }
  benchmark::DoNotOptimize(slowest);
  return selected.empty() ? 0.0
                          : loss_sum / static_cast<double>(selected.size());
}

void BM_EngineRoundOverhead(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool use_engine = state.range(0) == 0;
  const int clients_per_round = 4;

  if (use_engine) {
    SessionConfig cfg;
    cfg.rounds = 1;
    cfg.clients_per_round = clients_per_round;
    cfg.local = EngineBenchFixture::local_cfg();
    cfg.seed = 3;
    Rng rng(7);
    FederationEngine engine(std::make_unique<FedAvgStrategy>(
                                Model(EngineBenchFixture::spec(), rng),
                                FedAvgOptions{}),
                            fx.data, fx.fleet, cfg);
    for (auto _ : state) {
      benchmark::DoNotOptimize(engine.run_round());
    }
    state.counters["rounds"] =
        static_cast<double>(engine.rounds_done());
  } else {
    Rng rng(7);
    Model model(EngineBenchFixture::spec(), rng);
    Rng round_rng(3);
    CostMeter costs;
    auto opt = make_server_opt(ServerOptKind::FedAvg);
    const LocalTrainConfig local = EngineBenchFixture::local_cfg();
    for (auto _ : state) {
      benchmark::DoNotOptimize(inline_fedavg_round(
          model, fx.data, fx.fleet, local, clients_per_round, round_rng,
          costs, *opt));
    }
  }
}
BENCHMARK(BM_EngineRoundOverhead)
    ->Arg(0)  // engine-dispatched round
    ->Arg(1)  // inline legacy-style loop
    ->MinTime(2.0)  // sub-1% deltas need a stable clock
    ->UseRealTime();

// Tracing overhead: the same engine round with wall-clock tracing off
// (arg 0) vs on (arg 1). Every span site fires — engine phases, kernel
// dispatch, CostMeter histograms — so this is the worst-case per-round
// tracing tax; the acceptance bar is on ≤ 2% over off. Buffers are cleared
// each iteration so the run measures recording, not cap-induced drops.
void BM_TraceOverhead(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool trace_on = state.range(0) == 1;
  SessionConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 4;
  cfg.local = EngineBenchFixture::local_cfg();
  cfg.seed = 3;
  Rng rng(7);
  FederationEngine engine(std::make_unique<FedAvgStrategy>(
                              Model(EngineBenchFixture::spec(), rng),
                              FedAvgOptions{}),
                          fx.data, fx.fleet, cfg);
  if (trace_on) trace_start(TraceClock::Wall);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_round());
    if (trace_on) trace_clear();
  }
  if (trace_on) {
    trace_stop();
    trace_clear();
  }
  state.SetLabel(trace_on ? "trace=wall" : "trace=off");
}
BENCHMARK(BM_TraceOverhead)
    ->Arg(0)  // tracing compiled in, runtime-disabled (the default)
    ->Arg(1)  // wall-clock tracing live
    ->MinTime(2.0)
    ->UseRealTime();

// Wire bytes of one FedAvg round at fp32 vs f16 storage. The benchmark's
// timing is incidental; the payload is the `bytes_per_round` counter read
// off CostMeter (the mixed-precision acceptance bar is an ~2× drop from
// Arg(0) to Arg(1)).
void BM_HalfWireBytes(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool half = state.range(0) == 1;
  SessionConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 4;
  cfg.local = EngineBenchFixture::local_cfg();
  cfg.seed = 3;
  if (half) cfg.with_precision(Dtype::F16);
  double bytes = 0.0;
  for (auto _ : state) {
    Rng rng(7);
    FederationEngine engine(std::make_unique<FedAvgStrategy>(
                                Model(EngineBenchFixture::spec(), rng),
                                FedAvgOptions{}),
                            fx.data, fx.fleet, cfg);
    engine.run_round();
    bytes = engine.costs().network_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes_per_round"] = bytes;
  state.SetLabel(half ? "f16" : "f32");
}
BENCHMARK(BM_HalfWireBytes)->Arg(0)->Arg(1)->UseRealTime();

}  // namespace
}  // namespace fedtrans

int main(int argc, char** argv) {
  // Debian's pre-built libbenchmark reports ITS OWN flavor as
  // `library_build_type` (debug), which says nothing about this binary —
  // and it predates JSON output for AddCustomContext. --fedtrans_context
  // prints the authoritative keys for the repo build as one JSON object;
  // bench_micro.sh probes it and refuses to record unless
  // fedtrans_build_type says "release".
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
