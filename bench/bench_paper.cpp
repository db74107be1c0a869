// bench_paper — the FedTrans paper's evaluation (Figs. 1-2 and 6-13,
// Tables 1-6) plus four extensions, as one table of experiments.
//
//   bench_paper                  list the experiments
//   bench_paper <name>... | all  run the named rows, in table order
//
// FEDTRANS_BENCH_SCALE=tiny|small|full sets the scale (default tiny).
// Each experiment prints its header, its tables and the paper's claim to
// stdout; progress goes to stderr. The claim is what the paper reports,
// not a check of this run: docs/benchmarks.md records which claims the
// tiny-scale output shows.

#include <algorithm>
#include <chrono>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string_view>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/client_manager.hpp"
#include "core/signals.hpp"
#include "fl/runner.hpp"
#include "harness/experiments.hpp"
#include "model/transform.hpp"

using namespace fedtrans;

namespace {

// ---- result tables ----------------------------------------------------------

/// One printed result: the preset it ran on and what it measured.
struct Row {
  std::string dataset;
  MethodResult res;
};

struct Column {
  std::string header;
  std::function<std::string(const Row&)> cell;
};

void print_table(const std::vector<Column>& cols,
                 const std::vector<Row>& rows) {
  std::vector<std::string> headers;
  for (const Column& c : cols) headers.push_back(c.header);
  TablePrinter t(std::move(headers));
  for (const Row& r : rows) {
    std::vector<std::string> cells;
    for (const Column& c : cols) cells.push_back(c.cell(r));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);
}

/// The method name, or the variant label of a sweep.
Column label(std::string header) {
  return {std::move(header), [](const Row& r) { return r.res.method; }};
}
Column accuracy(std::string header, int digits = 2) {
  return {std::move(header), [digits](const Row& r) {
            return fmt_fixed(r.res.report.mean_accuracy * 100, digits);
          }};
}
Column box(std::string header, double BoxStats::*quantile) {
  return {std::move(header), [quantile](const Row& r) {
            return fmt_fixed(box_stats(r.res.report.client_accuracy).*quantile,
                             2);
          }};
}
const Column kDataset{"dataset", [](const Row& r) { return r.dataset; }};
const Column kIqr{"IQR (%)", [](const Row& r) {
                    return fmt_fixed(r.res.report.accuracy_iqr * 100, 2);
                  }};
const Column kCost{"cost (MACs)", [](const Row& r) {
                     return fmt_sci(r.res.report.costs.total_macs(), 2);
                   }};
const Column kModels{"#models", [](const Row& r) {
                       return std::to_string(r.res.num_models);
                     }};

// ---- paper §A.1: baselines train FedTrans's largest model -------------------

using Baseline = MethodResult (*)(const ExperimentPreset&, const ModelSpec&,
                                  int eval_every);
const std::vector<Baseline> kPaperBaselines{run_fluid, run_heterofl,
                                            run_splitmix};

MethodResult fedavg_baseline(const ExperimentPreset& p, const ModelSpec& spec,
                             int eval_every) {
  return run_single_model(p, spec, ServerOptKind::FedAvg, 0.0, eval_every);
}

/// Per preset: train FedTrans, then hand each baseline FedTrans's largest
/// model as its input architecture, on the same preset and session.
std::vector<Row> against_baselines(
    const std::vector<ExperimentPreset>& presets,
    const std::vector<Baseline>& baselines, int eval_every = 0) {
  std::vector<Row> rows;
  for (const ExperimentPreset& p : presets) {
    std::cerr << "running " << p.name << "...\n";
    rows.push_back({p.name, run_fedtrans(p, eval_every)});
    const ModelSpec largest = rows.back().res.largest_spec;
    for (Baseline run : baselines)
      rows.push_back({p.name, run(p, largest, eval_every)});
  }
  return rows;
}

// ---- FedTrans sweeps --------------------------------------------------------

/// One sweep point: a preset with its FedTrans knobs edited, and the session
/// it runs under (engine-level knobs such as the selector).
struct Variant {
  std::string label;
  ExperimentPreset preset;
  SessionConfig session = SessionConfig::from(preset.fedtrans);
};

/// One FedTrans run per variant, one table row per run.
void sweep(const std::vector<Variant>& variants,
           const std::vector<Column>& cols) {
  std::vector<Row> rows;
  for (const Variant& v : variants) {
    rows.push_back({v.preset.name,
                    run_fedtrans_cfg(v.preset, v.preset.fedtrans, v.session)});
    rows.back().res.method = v.label;
    std::cerr << "done: " << v.label << "\n";
  }
  print_table(cols, rows);
}

/// One variant per value of one knob, labelled with the value.
template <typename T, typename Set>
std::vector<Variant> knob(const ExperimentPreset& base,
                          std::initializer_list<T> values, int digits,
                          Set set) {
  std::vector<Variant> out;
  for (T v : values) {
    ExperimentPreset p = base;
    set(p, v);
    out.push_back({fmt_fixed(v, digits), p});
  }
  return out;
}

std::vector<Column> knob_columns(std::string knob) {
  return {label(std::move(knob)), accuracy("accu (%)"), kCost, kModels};
}

// ---- rows with a function of their own --------------------------------------

void fig1a(Scale scale) {
  FleetConfig fcfg;
  fcfg.num_devices = scale == Scale::Tiny ? 300 : 700;
  fcfg.seed = 42;
  fcfg.with_median_capacity(1e6);
  const auto fleet = sample_fleet(fcfg);
  std::cout << "fleet: " << fleet.size() << " devices, compute disparity "
            << fmt_fixed(fleet_disparity(fleet), 1) << "x (paper: >29x)\n\n";

  // Three complexity tiers (stand-ins for MobileNetV2/V3, EfficientNet-B4).
  const std::pair<const char*, ModelSpec> tiers[] = {
      {"small  (MobileNetV2-like)",
       ModelSpec::conv(3, 12, 10, 4, {6, 8}, {1, 1}, {1, 2})},
      {"medium (MobileNetV3-like)",
       ModelSpec::conv(3, 12, 10, 8, {12, 16}, {1, 2}, {1, 2})},
      {"large  (EfficientNetB4-like)",
       ModelSpec::conv(3, 12, 10, 16, {24, 32}, {2, 2}, {1, 2})}};
  Rng rng(1);
  TablePrinter t({"model", "MACs", "p10 (ms)", "p50 (ms)", "p90 (ms)",
                  "p99 (ms)"});
  for (const auto& [name, spec] : tiers) {
    const double macs = static_cast<double>(Model(spec, rng).macs());
    std::vector<double> lat;
    for (const auto& d : fleet) lat.push_back(inference_latency_ms(d, macs));
    t.add_row({name, fmt_macs(macs), fmt_fixed(percentile(lat, 10), 3),
               fmt_fixed(median(lat), 3), fmt_fixed(percentile(lat, 90), 3),
               fmt_fixed(percentile(lat, 99), 3)});
  }
  t.print(std::cout);
}

void fig1b(Scale scale) {
  const auto p = femnist_like(scale);
  const auto data = FederatedDataset::generate(p.dataset);
  // Ample fleet: this experiment is about data fit, not capacity.
  FleetConfig fcfg = p.fleet;
  fcfg.with_median_capacity(1e9);
  const auto fleet = sample_fleet(fcfg);
  const int classes = p.dataset.num_classes;
  const ModelSpec specs[] = {
      ModelSpec::conv(1, 12, classes, 2, {3, 4}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 3, {4, 6}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 4, {6, 8}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 6, {8, 12}, {1, 1}, {1, 2}),
      ModelSpec::conv(1, 12, classes, 8, {12, 16}, {2, 1}, {1, 2})};

  // Train each complexity level independently (FedAvg), then find, per
  // client, which level fits its data best.
  SessionConfig cfg = SessionConfig::from(p.fedtrans);
  cfg.seed = 33;
  std::vector<std::vector<double>> acc;
  std::vector<double> macs;
  for (const ModelSpec& spec : specs) {
    Rng rng(11);
    FederationEngine engine(
        std::make_unique<FedAvgStrategy>(Model(spec, rng), FedAvgOptions{}),
        data, fleet, cfg);
    engine.run();
    const Model& model = engine.strategy_as<FedAvgStrategy>().model();
    macs.push_back(static_cast<double>(model.macs()));
    acc.push_back(client_accuracy(model, data));
    std::cout << "trained " << spec.summary() << " ("
              << fmt_macs(macs.back()) << ")\n";
  }

  std::vector<int> best_count(acc.size(), 0);
  for (std::size_t c = 0; c < acc[0].size(); ++c) {
    std::size_t best = 0;
    for (std::size_t m = 1; m < acc.size(); ++m)
      if (acc[m][c] > acc[best][c]) best = m;
    ++best_count[best];
  }
  std::cout << "\n";
  TablePrinter t({"complexity level", "MACs", "clients best here (%)"});
  for (std::size_t m = 0; m < acc.size(); ++m)
    t.add_row({std::to_string(m), fmt_macs(macs[m]),
               std::to_string(best_count[m] * 100 / data.num_clients())});
  t.print(std::cout);
}

void fig2(Scale scale) {
  const auto p = femnist_like(scale);
  // A mid-sized model as "the" architecture existing single-model FL ships.
  ModelSpec large = p.initial_model;
  large.stem_width *= 2;
  for (auto& c : large.cells) c.width *= 2;

  std::vector<Row> rows{{p.name, run_single_model(p, p.initial_model)},
                        {p.name, run_heterofl(p, large)},
                        {p.name, run_splitmix(p, large)},
                        {p.name, run_fluid(p, large)},
                        {p.name, run_centralized(p, large)}};
  rows.front().res.method = "Global model (FedAvg)";
  rows.back().res.method = "Centralized (upper bound)";
  const double base = rows.front().res.report.costs.total_macs();
  print_table({label("solution"), accuracy("accuracy (%)"), kCost,
               {"cost vs global",
                [base](const Row& r) {
                  return fmt_fixed(r.res.report.costs.total_macs() / base, 1) +
                         "x";
                }}},
              rows);
}

void fig7(Scale scale) {
  const int probe = 5;  // evaluate every 5 rounds
  const auto rows =
      against_baselines({femnist_like(scale)}, kPaperBaselines, probe);
  double best_final = 0.0;
  for (const Row& r : rows) {
    std::cout << r.res.method << " series (cum MACs, accuracy%):\n  ";
    int printed = 0;
    for (const auto& rec : r.res.report.history) {
      best_final = std::max(best_final, rec.accuracy);
      if (rec.accuracy < 0) continue;
      std::cout << "(" << fmt_sci(rec.cum_macs, 1) << ", "
                << fmt_fixed(rec.accuracy * 100, 1) << ") ";
      if (++printed % 5 == 0) std::cout << "\n  ";
    }
    std::cout << "\n";
  }

  // Headline scalar: cost to reach a common accuracy threshold.
  const double target = best_final * 0.8;
  std::cout << "\ncost to reach " << fmt_fixed(target * 100, 1)
            << "% accuracy:\n";
  print_table({label("method"),
               {"MACs (-1 = never)",
                [target](const Row& r) {
                  for (const auto& rec : r.res.report.history)
                    if (rec.accuracy >= target) return fmt_sci(rec.cum_macs, 2);
                  return fmt_sci(-1.0, 2);
                }}},
              rows);
}

void fig8(Scale scale) {
  const auto p = femnist_like(scale);
  const double mu = 0.01;

  // FedTrans + FedProx (proximal term in every client's local SGD).
  auto cfg_prox = p.fedtrans;
  cfg_prox.local.sgd.prox_mu = mu;
  auto ft_prox = run_fedtrans_cfg(p, cfg_prox);
  ft_prox.method = "FedTrans+FedProx";

  // FedTrans + FedYogi (adaptive server optimizer per model).
  auto cfg_yogi = p.fedtrans;
  cfg_yogi.server_opt = ServerOptKind::FedYogi;
  auto ft_yogi = run_fedtrans_cfg(p, cfg_yogi);
  ft_yogi.method = "FedTrans+FedYogi";

  // Plain optimizers on the mid-sized model FedTrans produced (paper: "the
  // middle-sized model generated by FedTrans").
  const ModelSpec mid =
      ft_prox.num_models > 1 ? ft_prox.largest_spec : p.initial_model;
  print_table(
      {label("method"), accuracy("accu (%)"), kIqr, kCost},
      {{p.name, ft_prox},
       {p.name, run_single_model(p, mid, ServerOptKind::FedAvg, mu)},
       {p.name, ft_yogi},
       {p.name, run_single_model(p, mid, ServerOptKind::FedYogi, 0.0)}});
}

void fig9(Scale scale) {
  const auto p = femnist_like(scale);
  const auto data = FederatedDataset::generate(p.dataset);

  // Sample transformed architectures from one FedTrans run.
  FederationEngine fedtrans(
      std::make_unique<FedTransStrategy>(p.initial_model, p.fedtrans), data,
      sample_fleet(p.fleet), SessionConfig::from(p.fedtrans));
  fedtrans.run();
  std::vector<std::pair<std::string, ModelSpec>> entries;
  for (const auto& e : fedtrans.strategy_as<FedTransStrategy>().entries())
    entries.push_back({"FedTrans " + e.model->spec().summary(),
                       e.model->spec()});
  // Hand-designed references (stand-ins for EfficientNetV2 / MobileNetV2 /
  // MobileNetV3 / ResNet at our input scale).
  const int classes = p.dataset.num_classes;
  entries.push_back({"MobileNetV2-like",
                     ModelSpec::conv(1, 12, classes, 4, {8, 12}, {1, 1},
                                     {1, 2})});
  entries.push_back({"MobileNetV3-like",
                     ModelSpec::conv(1, 12, classes, 6, {8, 16}, {1, 2},
                                     {1, 2})});
  entries.push_back({"EfficientNetV2-like",
                     ModelSpec::conv(1, 12, classes, 8, {16, 24}, {2, 2},
                                     {1, 2})});
  entries.push_back({"ResNet-like",
                     ModelSpec::conv(1, 12, classes, 8, {12, 12, 24},
                                     {2, 2, 2}, {1, 1, 2})});

  FleetConfig fcfg = p.fleet;
  fcfg.with_median_capacity(1e12);  // no capacity constraints (paper §A.1)
  const auto fleet = sample_fleet(fcfg);
  SessionConfig cfg = SessionConfig::from(p.fedtrans);
  cfg.seed = 55;
  TablePrinter t({"architecture", "MACs", "accuracy (%)"});
  for (const auto& [name, spec] : entries) {
    Rng rng(19);
    FederationEngine engine(
        std::make_unique<FedAvgStrategy>(Model(spec, rng), FedAvgOptions{}),
        data, fleet, cfg);
    engine.run();
    const Model& model = engine.strategy_as<FedAvgStrategy>().model();
    t.add_row({name, fmt_macs(static_cast<double>(model.macs())),
               fmt_fixed(mean_client_accuracy(model, data) * 100, 2)});
    std::cerr << "fine-tuned " << name << "\n";
  }
  t.print(std::cout);
}

void table4(Scale scale) {
  auto p = femnist_like(scale);
  // Small ViT seed: 4x4 patches, embed 12, one transformer cell.
  p.initial_model = ModelSpec::attention(
      1, 12, p.dataset.num_classes, /*patch=*/4, /*embed=*/12,
      /*mlp_hidden=*/{16}, /*blocks=*/{1});
  // Plain FedAvg trains the largest transformer FedTrans reached (the
  // "what you'd have to train directly" comparison).
  auto rows = against_baselines({p}, {fedavg_baseline});
  MethodResult& ft = rows.front().res;
  ft.method = "FedTrans + FedAvg";
  print_table({label("method"), accuracy("accu (%)", 1), kCost}, rows);
  std::cout << "\nfamily grown: " << ft.num_models
            << " transformer models, largest = " << ft.largest_spec.summary()
            << "\n";
}

template <typename F>
double time_us(F&& fn, int reps = 10) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

void table5(Scale) {
  const int m_clients = 200, n_models = 4;

  // Utility updates: m × n per round.
  ClientManager cm(std::vector<double>(m_clients, 1e9));
  Rng rng(3);
  Model m0(ModelSpec::conv(1, 12, 16, 4, {6, 8}, {1, 1}, {1, 2}), rng);
  cm.add_model(m0.spec(), static_cast<double>(m0.macs()), -1);
  Model parent = m0;
  for (int k = 1; k < n_models; ++k) {
    Model child = widen_cell(parent, k % 2, 2.0, k, rng);
    cm.add_model(child.spec(), static_cast<double>(child.macs()), k - 1);
    parent = std::move(child);
  }
  const double utility_us = time_us([&] {
    for (int c = 0; c < m_clients; ++c)
      cm.update_utilities(c, n_models - 1, 0.3);
  });

  // DoC update: constant.
  DoCTracker doc(10, 5);
  for (int i = 0; i < 20; ++i) doc.add_loss(2.0 - 0.01 * i);
  const double doc_us = time_us([&] {
    doc.add_loss(1.8);
    (void)doc.doc();
  }, 100);

  // Transformation: proportional to |W|.
  const double transform_us = time_us([&] {
    Model child = widen_cell(m0, 0, 2.0, 99, rng);
    (void)child;
  }, 5);

  TablePrinter t({"overhead", "analytic bound (paper)", "measured"});
  t.add_row({"client computation", "0", "0 (local training unchanged)"});
  t.add_row({"client communication", "r*p*c (1 float/round)",
             "4 B per participant per round"});
  t.add_row({"coordinator: utility updates (m*n)", "r*(m*n)*c",
             fmt_fixed(utility_us, 1) + " us per round (m=200, n=4)"});
  t.add_row({"coordinator: DoC update", "r*c",
             fmt_fixed(doc_us, 2) + " us per round"});
  t.add_row({"coordinator: transformation", "|W|*c",
             fmt_fixed(transform_us, 1) + " us per transform"});
  t.add_row({"coordinator communication", "0", "0 (no extra transfers)"});
  t.print(std::cout);
}

void table6(Scale scale) {
  // FedAvg ships the largest model FedTrans reached to every client — the
  // single-model deployment that creates stragglers.
  auto rows = against_baselines({femnist_like(scale)}, {fedavg_baseline});
  rows.front().res.method = "FedTrans + FedAvg";
  print_table({label("method"),
               {"avg round time (s)",
                [](const Row& r) {
                  return fmt_fixed(r.res.report.costs.client_time_mean(), 2);
                }},
               {"std (s)",
                [](const Row& r) {
                  return fmt_fixed(r.res.report.costs.client_time_std(), 2);
                }}},
              rows);
}

void ext_async(Scale scale) {
  const auto p = femnist_like(scale);
  const auto data = FederatedDataset::generate(p.dataset);
  const int per_round = p.fedtrans.clients_per_round;

  TablePrinter t({"fleet sigma", "method", "wall-clock (s)", "accuracy (%)",
                  "mean staleness"});
  for (double sigma : {0.5, 1.0, 2.0}) {
    FleetConfig fcfg = p.fleet;
    fcfg.sigma_compute = sigma;
    const auto fleet = sample_fleet(fcfg);
    Rng rng(17);
    const Model init(p.initial_model, rng);

    FederationEngine sync(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
        SessionConfig::from(p.fedtrans));
    sync.run();
    double sync_wall = 0.0;
    for (const auto& rec : sync.history()) sync_wall += rec.round_time_s;
    const double sync_acc = mean_client_accuracy(
        sync.strategy_as<FedAvgStrategy>().model(), data);
    t.add_row({fmt_fixed(sigma, 1), "FedAvg (sync)", fmt_fixed(sync_wall, 1),
               fmt_fixed(sync_acc * 100, 2), "0.0"});
    std::cerr << "done: sync sigma=" << sigma << "\n";

    SessionConfig acfg;
    acfg.mode = SessionMode::Async;
    acfg.async.concurrency = per_round;
    acfg.async.buffer_size = per_round;
    acfg.async.aggregations = p.fedtrans.rounds;
    acfg.local = p.fedtrans.local;
    acfg.seed = p.fedtrans.seed;
    FederationEngine fedbuff(
        std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data, fleet,
        acfg);
    fedbuff.run();
    const double async_acc = mean_client_accuracy(
        fedbuff.strategy_as<FedAvgStrategy>().model(), data);
    t.add_row({fmt_fixed(sigma, 1), "FedBuff (async)",
               fmt_fixed(fedbuff.now_s(), 1), fmt_fixed(async_acc * 100, 2),
               fmt_fixed(fedbuff.mean_staleness(), 2)});
    std::cerr << "done: async sigma=" << sigma << "\n";
  }
  t.print(std::cout);
}

void ext_compression(Scale scale) {
  const auto p = femnist_like(scale);
  const auto data = FederatedDataset::generate(p.dataset);
  const auto fleet = sample_fleet(p.fleet);
  Rng rng(29);
  const Model init(p.initial_model, rng);

  const std::pair<const char*, FedAvgOptions> uplinks[] = {
      {"dense fp32", {}},
      {"top-k 10%", {.compression = CompressionKind::TopK, .topk_ratio = 0.10}},
      {"top-k 2%", {.compression = CompressionKind::TopK, .topk_ratio = 0.02}},
      {"top-k 2% + EF",
       {.compression = CompressionKind::TopK,
        .topk_ratio = 0.02,
        .error_feedback = true}},
      {"quant 8-bit", {.compression = CompressionKind::Quant8}},
      {"quant 4-bit", {.compression = CompressionKind::Quant4}},
  };

  TablePrinter t({"uplink", "accuracy (%)", "network (MB)", "final loss"});
  for (const auto& [name, opts] : uplinks) {
    FederationEngine engine(std::make_unique<FedAvgStrategy>(init, opts), data,
                            fleet, SessionConfig::from(p.fedtrans));
    engine.run();
    const double acc = mean_client_accuracy(
        engine.strategy_as<FedAvgStrategy>().model(), data);
    t.add_row({name, fmt_fixed(acc * 100, 2),
               fmt_fixed(engine.costs().network_mb(), 2),
               fmt_fixed(engine.history().back().avg_loss, 3)});
    std::cerr << "done: " << name << "\n";
  }
  t.print(std::cout);
}

// ---- the experiment table ---------------------------------------------------

struct Experiment {
  const char* name;
  /// One line, printed in the header and by the listing.
  const char* protocol;
  /// What the paper (or, for an extension, the cited work) reports; printed
  /// as the footer.
  const char* claim;
  void (*run)(Scale);
};

const Experiment kExperiments[] = {
    // Fig. 1a — Client system heterogeneity: per-sample inference latency
    // distributions of three model complexity tiers across a heterogeneous
    // device fleet (paper: MobileNet-V2 / MobileNet-V3 / EfficientNet-B4
    // over 700+ AI-Benchmark smartphones; here: three conv tiers over the
    // log-normal trace substitute).
    {"fig1a", "device heterogeneity -> latency distributions",
     "paper (Fig. 1a): latency tiers separate at the median but overlap in "
     "the tails, so a latency budget admits several architectures per "
     "device.",
     fig1a},
    // Fig. 1b — No single model achieves the best accuracy for the majority
    // of clients. Paper protocol: 7 NASBench201 models of doubling MACs
    // trained on FEMNIST; report the % of clients whose best accuracy lands
    // on each model. Here: 5 conv models of roughly doubling MACs co-trained
    // with FedAvg on the femnist-like workload.
    {"fig1b", "best-model spread across clients",
     "paper (Fig. 1b): no single model is the best one for a majority of "
     "clients.",
     fig1b},
    // Fig. 2 — Motivation: existing solutions are suboptimal. Compares a
    // single global model (FedAvg), the multi-model baselines (HeteroFL,
    // SplitMix, FLuID) and the centralized "cloud ML" upper bound on cost vs
    // accuracy.
    {"fig2", "motivation: cost vs accuracy of existing solutions",
     "paper (Fig. 2): the multi-model baselines cost more than the global "
     "model, and every solution trails the centralized upper bound.",
     fig2},
    // Fig. 6 — Per-client accuracy distributions (box plots) per method. The
    // paper draws box plots on all four datasets; this prints the
    // five-number summaries on two representative workloads (cifar-like,
    // femnist-like) to bound runtime, and on all four at full scale.
    {"fig6", "per-client accuracy distributions",
     "paper (Fig. 6): FedTrans's box sits highest, with the tightest spread.",
     [](Scale s) {
       const auto presets = s == Scale::Full
                                ? all_presets(s)
                                : std::vector{cifar_like(s), femnist_like(s)};
       print_table({kDataset, label("method"), box("min", &BoxStats::min),
                    box("q1", &BoxStats::q1), box("median", &BoxStats::median),
                    box("q3", &BoxStats::q3), box("max", &BoxStats::max)},
                   against_baselines(presets, kPaperBaselines));
     }},
    // Fig. 7 — Cost-to-accuracy curves: mean client accuracy as a function
    // of cumulative training MACs for each method (femnist-like workload;
    // the paper plots all four datasets).
    {"fig7", "cost-to-accuracy curves on femnist-like",
     "paper (Fig. 7): FedTrans reaches any given accuracy with the fewest "
     "training MACs.",
     fig7},
    // Fig. 8 — FedTrans complements existing FL optimizers: FedProx and
    // FedYogi run alone (on the mid-sized model) vs composed with FedTrans,
    // on the femnist-like workload.
    {"fig8", "composing with FedProx / FedYogi on femnist-like",
     "paper (Fig. 8): FedTrans+FedProx beats FedProx and FedTrans+FedYogi "
     "beats FedYogi, at comparable cost.",
     fig8},
    // Fig. 9 — FedTrans-transformed architectures vs hand-designed reference
    // models on the accuracy/MACs plane. Paper protocol (§A.1): take sampled
    // transformed architectures and reference models, fine-tune each on ALL
    // clients with plain FedAvg (no capacity constraints, no
    // transformation), and compare the trade-off frontier.
    {"fig9", "transformed vs hand-designed models on femnist-like",
     "paper (Fig. 9): transformed models sit on or above the hand-designed "
     "accuracy/MACs frontier.",
     fig9},
    // Fig. 10 — Picking the right time to transform: sweeps of (a) the DoC
    // threshold β and (b) the DoC window γ on femnist-like.
    {"fig10", "DoC threshold & window sweeps on femnist-like",
     "paper (Fig. 10): larger beta transforms more eagerly (more cost), "
     "larger gamma more conservatively (less cost); accuracy peaks at "
     "moderate values.",
     [](Scale s) {
       const auto p = femnist_like(s);
       const double b = p.fedtrans.beta;
       std::cout << "(a) transform threshold beta:\n";
       sweep(knob(p, {b * 0.33, b * 1.0, b * 1.66, b * 2.33}, 3,
                  [](ExperimentPreset& q, double v) { q.fedtrans.beta = v; }),
             knob_columns("beta"));
       std::cout << "\n(b) DoC window gamma (#slopes):\n";
       sweep(knob(p, {3, 5, 8, 12}, 0,
                  [](ExperimentPreset& q, int v) { q.fedtrans.gamma = v; }),
             knob_columns("gamma"));
     }},
    // Fig. 11 — Robustness to the widening / deepening degrees on
    // femnist-like (larger degrees = fewer but more aggressive
    // transformations).
    {"fig11", "widen/deepen degree sweeps on femnist-like",
     "paper (Fig. 11): accuracy and cost stay roughly flat over a wide "
     "range of widen and deepen degrees.",
     [](Scale s) {
       const auto p = femnist_like(s);
       std::cout << "(a) widen degree:\n";
       sweep(knob(p, {1.5, 2.0, 3.0, 6.0}, 1,
                  [](ExperimentPreset& q, double v) {
                    q.fedtrans.widen_factor = v;
                  }),
             knob_columns("widen"));
       std::cout << "\n(b) deepen degree:\n";
       sweep(knob(p, {1, 2, 3, 5}, 0,
                  [](ExperimentPreset& q, int v) {
                    q.fedtrans.deepen_blocks = v;
                  }),
             knob_columns("deepen"));
     }},
    // Fig. 12 — Picking the right Cell: sweep of the activeness threshold α
    // on femnist-like.
    {"fig12", "activeness threshold alpha sweep on femnist-like",
     "paper (Fig. 12): larger alpha selects fewer Cells and costs less; "
     "accuracy peaks near alpha = 0.9 and drops when too few Cells are "
     "expanded.",
     [](Scale s) {
       sweep(knob(femnist_like(s), {0.70, 0.80, 0.90, 0.99}, 2,
                  [](ExperimentPreset& q, double v) { q.fedtrans.alpha = v; }),
             knob_columns("alpha"));
     }},
    // Fig. 13 — Data heterogeneity sweep: FedTrans on femnist-like with the
    // Dirichlet label concentration h ∈ {0.5, 1, 50, 100} (lower h = more
    // heterogeneous, the paper's exact protocol).
    {"fig13", "data heterogeneity sweep on femnist-like",
     "paper (Fig. 13): accuracy rises and IQR tightens as h grows toward "
     "IID; homogeneous settings spend more rounds' worth of MACs.",
     [](Scale s) {
       sweep(knob(femnist_like(s), {0.5, 1.0, 50.0, 100.0}, 1,
                  [](ExperimentPreset& q, double v) {
                    q.dataset.dirichlet_h = v;
                  }),
             {label("h (Dirichlet)"), accuracy("accu (%)"), kIqr, kCost});
     }},
    // Table 1 — Weight sharing from large models to small models (l2s):
    // FedTrans with (l2s) and without (the default) on the femnist-like and
    // cifar-like workloads.
    {"table1", "large->small weight sharing ablation",
     "paper (Table 1): l2s lowers accuracy; noisy under-trained large models "
     "pollute small ones.",
     [](Scale s) {
       std::vector<Variant> variants;
       for (ExperimentPreset p : {femnist_like(s), cifar_like(s)}) {
         variants.push_back({"FedTrans", p});
         p.fedtrans.enable_l2s = true;
         variants.push_back({"FedTrans (l2s)", p});
       }
       sweep(variants,
             {label("breakdown"), kDataset, accuracy("avg accu (%)", 1)});
     }},
    // Table 2 — End-to-end comparison on all four workloads: FedTrans vs
    // FLuID vs HeteroFL vs SplitMix, reporting mean client accuracy, IQR,
    // training cost (MACs), server storage, and network volume. Baselines
    // receive FedTrans's largest transformed model (paper §A.1 protocol).
    {"table2", "end-to-end comparison",
     "paper (Table 2): FedTrans has the highest mean accuracy on every "
     "dataset, at lower training and network cost than HeteroFL, FLuID and "
     "SplitMix.",
     [](Scale s) {
       print_table({kDataset, label("method"), accuracy("accu (%)"), kIqr,
                    kCost,
                    {"storage",
                     [](const Row& r) {
                       return fmt_bytes(r.res.report.costs.storage_bytes());
                     }},
                    {"network",
                     [](const Row& r) {
                       return fmt_bytes(r.res.report.costs.network_bytes());
                     }}},
                   against_baselines(all_presets(s), kPaperBaselines));
     }},
    // Table 3 — Component breakdown on femnist-like: FedTrans and the
    // cumulative removals the paper reports — 'l' gradient-based layer
    // selection, 's' soft aggregation, 'w' warm-up, 'd' decayed weight
    // sharing.
    {"table3", "component breakdown on femnist-like",
     "paper (Table 3): each removal costs accuracy, and removing warm-up "
     "('w') raises cost.",
     [](Scale s) {
       auto p = femnist_like(s);
       std::vector<Variant> variants{{"FedTrans", p}};
       p.fedtrans.enable_layer_selection = false;
       variants.push_back({"FedTrans-l", p});
       p.fedtrans.enable_soft_agg = false;
       variants.push_back({"FedTrans-ls", p});
       p.fedtrans.enable_warmup = false;
       variants.push_back({"FedTrans-lsw", p});
       p.fedtrans.enable_decay = false;
       variants.push_back({"FedTrans-lswd", p});
       sweep(variants, {label("breakdown"), accuracy("accu (%)"), kCost});
     }},
    // Table 4 — Generality beyond convolutions: FedTrans on a ViT-style
    // model (patch embedding + attention/MLP transformer Cells) vs plain
    // FedAvg on the same architecture, femnist-like workload. FedTrans
    // starts from a small transformer and grows it.
    {"table4", "ViT generality on femnist-like",
     "paper (Table 4): on attention cells FedTrans+FedAvg improves on "
     "FedAvg's accuracy at far lower MACs.",
     table4},
    // Table 5 / Appendix B — Computation & communication overhead analysis.
    // Measures the wall-clock cost of each coordinator-side FedTrans step
    // (utility updates, DoC update, model transformation) and states the
    // client-side overhead, next to the paper's analytic bounds:
    //   client compute 0, client comm r·p·c (one float per round),
    //   coordinator compute r(mn+1)c + |W|c, coordinator comm 0.
    {"table5", "coordinator/client overhead analysis",
     "paper (Table 5): every coordinator step takes microseconds, negligible "
     "next to a single client's training pass.",
     table5},
    // Table 6 / Appendix C — Straggler mitigation: distribution of simulated
    // per-client round completion times under FedTrans (capacity-aligned
    // models) vs FedAvg (one model for everyone), femnist-like workload.
    {"table6", "straggler mitigation on femnist-like",
     "paper (Table 6): FedTrans lowers both the mean and the std of round "
     "completion time.",
     table6},
    // Extension: synchronous FedAvg vs buffered-asynchronous FedBuff
    // (Nguyen et al., cited by the paper for straggler mitigation —
    // Appendix C shows FedTrans's capacity-aware assignment shrinking round
    // times; async aggregation is the orthogonal system-level remedy).
    // Reports simulated wall-clock to complete the same number of server
    // updates, plus final accuracy, across increasingly heterogeneous
    // fleets.
    {"ext_async", "sync FedAvg vs async FedBuff wall-clock on the "
                  "femnist-like fleet",
     "paper (extension; FedBuff, cited in App. C): async completes the same "
     "update count in less wall-clock, the gap widens with fleet "
     "heterogeneity, and accuracy stays comparable at modest staleness.",
     ext_async},
    // Extension: uplink compression vs the Table-2 "Network (MB)" cost. The
    // paper attacks network volume architecturally (small models first);
    // gradient compression is the orthogonal systems remedy. This trains
    // the same global model under dense, top-k (± error feedback) and
    // quantized uplinks and reports the accuracy/network trade-off.
    {"ext_compression", "uplink compression trade-off on femnist-like",
     "paper (extension; compression literature): 8-bit quantization is "
     "accuracy-neutral at ~4x less uplink; aggressive top-k trades accuracy "
     "for 10-50x savings, and error feedback claws most of it back.",
     ext_compression},
    // Extension: FedRolex (rolling sub-model extraction; Alam et al., cited
    // in the paper's related work) added to the Table-2-style comparison.
    // Rolling windows fix HeteroFL's prefix-only coverage, while FedTrans
    // grows models instead of shrinking one.
    {"ext_fedrolex", "FedRolex vs static submodels vs FedTrans on "
                     "femnist-like",
     "paper (extension; FedRolex, cited in related work): rolling windows "
     "beat HeteroFL's accuracy at similar cost, and FedTrans stays ahead of "
     "both on accuracy and cost.",
     [](Scale s) {
       print_table(
           {label("method"), accuracy("accuracy (%)"), kIqr, kCost,
            {"network (MB)",
             [](const Row& r) {
               return fmt_fixed(r.res.report.costs.network_mb(), 1);
             }}},
           against_baselines({femnist_like(s)}, {run_heterofl, run_fedrolex}));
     }},
    // Extension: participant-selection strategies under FedTrans. The paper
    // samples participants uniformly (FedScale protocol) and cites Oort
    // (Lai et al., OSDI'21) as the guided-selection line of work; this
    // quantifies what guided selection adds on top of multi-model training.
    {"ext_selection", "client selection under FedTrans on femnist-like",
     "paper (extension; Oort, cited in related work): loss-guided selection "
     "matches or beats uniform sampling's mean accuracy at equal cost.",
     [](Scale s) {
       std::vector<Variant> variants;
       for (auto [kind, name] :
            {std::pair{SelectorKind::Uniform, "uniform (paper)"},
             std::pair{SelectorKind::Oort, "oort-like"},
             std::pair{SelectorKind::PowerOfChoice, "power-of-choice"}}) {
         Variant v{name, femnist_like(s)};
         v.session.selector = kind;
         variants.push_back(v);
       }
       sweep(variants, {label("selector"), accuracy("accuracy (%)"), kIqr,
                        kCost, kModels});
     }},
    // Scaling-policy ablation (§4.1 / §5.4): the paper motivates the widen ↔
    // deepen alternation with EfficientNet-style compound scaling. This runs
    // the same femnist-like workload under compound, widen-only and
    // deepen-only policies and reports deployment accuracy, cost and family
    // shape.
    {"ablation_scaling", "scaling policy: compound vs widen-only vs "
                         "deepen-only on femnist-like",
     "paper (§4.1, §5.4): compound scaling \"achieves better performance "
     "than its counterparts\", widen-only and deepen-only.",
     [](Scale s) {
       std::vector<Variant> variants;
       for (ScalingPolicy policy :
            {ScalingPolicy::Compound, ScalingPolicy::WidenOnly,
             ScalingPolicy::DeepenOnly}) {
         auto p = femnist_like(s);
         p.fedtrans.scaling_policy = policy;
         variants.push_back({scaling_policy_name(policy), p});
       }
       sweep(variants, {label("policy"), accuracy("accuracy (%)"), kIqr, kCost,
                        kModels,
                        {"largest model", [](const Row& r) {
                           return r.res.largest_spec.summary();
                         }}});
     }},
};

void list(std::ostream& os) {
  os << "usage: bench_paper <experiment>... | all\n"
        "       (FEDTRANS_BENCH_SCALE=tiny|small|full, default tiny)\n\n";
  for (const Experiment& e : kExperiments)
    os << "  " << std::left << std::setw(18) << e.name << e.protocol << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    list(std::cout);
    return 0;
  }
  std::vector<bool> picked(std::size(kExperiments), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = arg == "all";
    for (std::size_t k = 0; k < std::size(kExperiments); ++k)
      if (arg == "all" || arg == kExperiments[k].name)
        picked[k] = known = true;
    if (!known) {
      std::cerr << "bench_paper: unknown experiment '" << arg << "'\n";
      list(std::cerr);
      return 2;
    }
  }
  Scale scale = Scale::Tiny;
  try {
    scale = bench_scale();
  } catch (const Error& e) {
    std::cerr << "bench_paper: FEDTRANS_BENCH_SCALE: " << e.what() << "\n";
    return 2;
  }

  for (std::size_t k = 0; k < std::size(kExperiments); ++k) {
    if (!picked[k]) continue;
    const Experiment& e = kExperiments[k];
    std::cout << "[" << e.name << "] " << e.protocol << " ("
              << scale_name(scale) << ")\n\n";
    e.run(scale);
    std::cout << "\n" << e.claim << "\n";
  }
  return 0;
}
