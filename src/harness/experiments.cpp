#include "harness/experiments.hpp"

#include <numeric>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
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

std::vector<double> client_accuracy(Strategy& s,
                                    const ClientDataProvider& data) {
  std::vector<int> ids(static_cast<std::size_t>(data.num_clients()));
  std::iota(ids.begin(), ids.end(), 0);
  return deployed_accuracies(s, ids, data);
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

/// The one run body: train `strategy` on the preset's data and fleet, then
/// score every client's deployment. `describe` fills the method's model
/// fields from the trained strategy.
template <typename S, typename Describe>
MethodResult run_method(std::string method, std::unique_ptr<S> strategy,
                        const ExperimentPreset& p,
                        const SessionConfig& session, Describe describe) {
  auto data = FederatedDataset::generate(p.dataset);
  FederationEngine engine(std::move(strategy), data, sample_fleet(p.fleet),
                          session);
  engine.run();
  auto& s = engine.strategy_as<S>();
  MethodResult res;
  res.method = std::move(method);
  res.report = baseline_report(engine, client_accuracy(s, data));
  describe(s, res);
  return res;
}

/// The width-scaled baselines train the ladder over `largest`.
MethodResult run_submodel(std::string method,
                          std::unique_ptr<SubmodelStrategy> strategy,
                          const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  return run_method(std::move(method), std::move(strategy), p,
                    preset_session(p, eval_every),
                    [&](SubmodelStrategy& s, MethodResult& res) {
                      res.largest_spec = largest;
                      res.largest_macs = static_cast<double>(s.global().macs());
                    });
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
  return run_method(
      "FedTrans", std::make_unique<FedTransStrategy>(p.initial_model, cfg), p,
      session, [](FedTransStrategy& ft, MethodResult& res) {
        res.num_models = ft.num_models();
        Model& largest = ft.model(ft.num_models() - 1);
        res.largest_spec = largest.spec();
        res.largest_macs = static_cast<double>(largest.macs());
      });
}

MethodResult run_splitmix(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every) {
  return run_method("SplitMix", std::make_unique<SplitMixStrategy>(largest), p,
                    preset_session(p, eval_every),
                    [&](SplitMixStrategy& s, MethodResult& res) {
                      res.num_models = s.num_bases();
                      res.largest_spec = largest;
                    });
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
  SessionConfig cfg = preset_session(p, eval_every);
  cfg.local.sgd.prox_mu = prox_mu;
  FedAvgOptions opts;
  opts.server_opt = opt;
  Rng rng(p.fedtrans.seed + 41);
  return run_method(opt == ServerOptKind::FedYogi
                        ? "FedYogi"
                        : (prox_mu > 0.0 ? "FedProx" : "FedAvg"),
                    std::make_unique<FedAvgStrategy>(Model(spec, rng), opts),
                    p, cfg, [&](FedAvgStrategy& s, MethodResult& res) {
                      res.largest_spec = spec;
                      res.largest_macs = static_cast<double>(s.model().macs());
                    });
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
