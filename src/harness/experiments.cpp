#include "harness/experiments.hpp"

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "fl/runner.hpp"
#include "nn/loss.hpp"

namespace fedtrans {

std::vector<double> client_accuracy(const Model& model,
                                    const ClientDataProvider& data) {
  // Per-thread model copies: forward() mutates layer caches. Per-client
  // slots keep the result order deterministic.
  std::vector<double> accs(static_cast<std::size_t>(data.num_clients()), 0.0);
  ThreadPool::global().parallel_for(
      data.num_clients(), 1, [&](std::int64_t lo, std::int64_t hi) {
        Model probe = model;
        for (std::int64_t i = lo; i < hi; ++i)
          accs[static_cast<std::size_t>(i)] =
              evaluate_accuracy(probe, data.client(static_cast<int>(i)));
      });
  return accs;
}

std::vector<double> client_accuracy(SubmodelStrategy& s,
                                    const ClientDataProvider& data) {
  std::vector<double> accs;
  for (int c = 0; c < data.num_clients(); ++c) {
    Model sub = s.submodel(s.level_for(c));
    accs.push_back(evaluate_accuracy(sub, data.client(c)));
  }
  return accs;
}

std::vector<double> client_accuracy(SplitMixStrategy& s,
                                    const ClientDataProvider& data) {
  std::vector<double> accs;
  for (int c = 0; c < data.num_clients(); ++c)
    accs.push_back(s.ensemble_accuracy(c, s.budget_for(c)));
  return accs;
}

double mean_client_accuracy(const Model& model,
                            const ClientDataProvider& data) {
  return mean(client_accuracy(model, data));
}

BaselineReport baseline_report(const FederationEngine& engine,
                               std::vector<double> client_accuracy) {
  BaselineReport rep;
  rep.client_accuracy = std::move(client_accuracy);
  rep.mean_accuracy = mean(rep.client_accuracy);
  rep.accuracy_iqr = iqr(rep.client_accuracy);
  rep.costs = engine.costs();
  rep.history = engine.history();
  return rep;
}

namespace {

/// The session every method runs under: the preset's FedTrans runtime block
/// with the requested probe cadence.
SessionConfig preset_session(const ExperimentPreset& p, int eval_every) {
  SessionConfig cfg = SessionConfig::from(p.fedtrans);
  cfg.eval_every = eval_every;
  return cfg;
}

/// The width-scaled baselines share one protocol: train the ladder over
/// `largest`, then deploy each client's level submodel.
MethodResult run_submodel(std::string method,
                          std::unique_ptr<SubmodelStrategy> strategy,
                          const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  auto data = FederatedDataset::generate(p.dataset);
  FederationEngine engine(std::move(strategy), data, sample_fleet(p.fleet),
                          preset_session(p, eval_every));
  engine.run();
  auto& s = engine.strategy_as<SubmodelStrategy>();
  MethodResult res;
  res.method = std::move(method);
  res.report = baseline_report(engine, client_accuracy(s, data));
  res.largest_spec = largest;
  res.largest_macs = static_cast<double>(s.global().macs());
  return res;
}

}  // namespace

MethodResult run_fedtrans(const ExperimentPreset& p, int eval_every) {
  return run_fedtrans_cfg(p, p.fedtrans, eval_every);
}

MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg, int eval_every) {
  SessionConfig session = SessionConfig::from(cfg);
  session.eval_every = eval_every;
  return run_fedtrans_cfg(p, cfg, session);
}

MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg,
                              const SessionConfig& session) {
  auto data = FederatedDataset::generate(p.dataset);
  FederationEngine engine(std::make_unique<FedTransStrategy>(p.initial_model,
                                                             cfg),
                          data, sample_fleet(p.fleet), session);
  engine.run();
  auto& ft = engine.strategy_as<FedTransStrategy>();
  auto ev = ft.evaluate_final();

  MethodResult res;
  res.method = "FedTrans";
  res.report = baseline_report(engine, ev.client_accuracy);
  res.num_models = ft.num_models();
  Model& largest = ft.model(ft.num_models() - 1);
  res.largest_spec = largest.spec();
  res.largest_macs = static_cast<double>(largest.macs());
  return res;
}

MethodResult run_splitmix(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  auto data = FederatedDataset::generate(p.dataset);
  FederationEngine engine(std::make_unique<SplitMixStrategy>(largest), data,
                          sample_fleet(p.fleet), preset_session(p, eval_every));
  engine.run();
  auto& s = engine.strategy_as<SplitMixStrategy>();
  MethodResult res;
  res.method = "SplitMix";
  res.report = baseline_report(engine, client_accuracy(s, data));
  res.num_models = s.num_bases();
  res.largest_spec = largest;
  return res;
}

MethodResult run_heterofl(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  return run_submodel("HeteroFL", std::make_unique<HeteroFLStrategy>(largest),
                      p, largest, eval_every);
}

MethodResult run_fedrolex(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  return run_submodel("FedRolex", std::make_unique<FedRolexStrategy>(largest),
                      p, largest, eval_every);
}

MethodResult run_fluid(const ExperimentPreset& p, const ModelSpec& largest,
                       int eval_every) {
  return run_submodel("FLuID", std::make_unique<FluidStrategy>(largest), p,
                      largest, eval_every);
}

MethodResult run_single_model(const ExperimentPreset& p, const ModelSpec& spec,
                              ServerOptKind opt, double prox_mu,
                              int eval_every) {
  auto data = FederatedDataset::generate(p.dataset);
  SessionConfig cfg = preset_session(p, eval_every);
  cfg.local.sgd.prox_mu = prox_mu;
  FedAvgOptions opts;
  opts.server_opt = opt;
  Rng rng(p.fedtrans.seed + 41);
  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(Model(spec, rng), opts), data,
      sample_fleet(p.fleet), cfg);
  engine.run();
  Model& model = engine.strategy_as<FedAvgStrategy>().model();

  MethodResult res;
  res.method = opt == ServerOptKind::FedYogi
                   ? "FedYogi"
                   : (prox_mu > 0.0 ? "FedProx" : "FedAvg");
  res.report = baseline_report(engine, client_accuracy(model, data));
  res.largest_spec = spec;
  res.largest_macs = static_cast<double>(model.macs());
  return res;
}

MethodResult run_centralized(const ExperimentPreset& p,
                             const ModelSpec& spec) {
  auto data = FederatedDataset::generate(p.dataset);
  auto pooled = data.pooled();
  Rng rng(p.fedtrans.seed + 73);
  Model model(spec, rng);

  // Same optimizer budget as one FL run: rounds × clients × local steps.
  const int total_steps =
      p.fedtrans.rounds * p.fedtrans.clients_per_round * p.fedtrans.local.steps;
  SoftmaxCrossEntropy loss;
  Sgd sgd(model.params(), p.fedtrans.local.sgd);
  Tensor x;
  std::vector<int> y;
  MethodResult res;
  res.method = "Centralized";
  for (int s = 0; s < total_steps; ++s) {
    sample_batch(pooled, p.fedtrans.local.batch, rng, x, y);
    Tensor logits = model.forward(x, true);
    loss.forward(logits, y);
    model.backward(loss.backward());
    sgd.step();
    res.report.costs.add_training_macs(3.0 *
                                       static_cast<double>(model.macs()) *
                                       p.fedtrans.local.batch);
  }
  for (int c = 0; c < data.num_clients(); ++c)
    res.report.client_accuracy.push_back(
        evaluate_accuracy(model, data.client(c)));
  res.report.mean_accuracy = mean(res.report.client_accuracy);
  res.report.accuracy_iqr = iqr(res.report.client_accuracy);
  res.largest_spec = spec;
  res.largest_macs = static_cast<double>(model.macs());
  return res;
}

}  // namespace fedtrans
