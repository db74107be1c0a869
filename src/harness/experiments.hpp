#pragma once

#include "fl/engine.hpp"
#include "fl/server_opt.hpp"
#include "harness/presets.hpp"

namespace fedtrans {

/// Uniform result bundle of one finished session, consumed by the
/// table/figure benches.
struct BaselineReport {
  std::vector<double> client_accuracy;
  double mean_accuracy = 0.0;
  double accuracy_iqr = 0.0;
  CostMeter costs;
  std::vector<RoundRecord> history;
};

/// Uniform per-method result consumed by the table/figure benches.
struct MethodResult {
  std::string method;
  BaselineReport report;
  int num_models = 1;
  /// Largest model in the family (== the single model for baselines).
  ModelSpec largest_spec;
  double largest_macs = 0.0;
};

/// Every client's top-1 accuracy on its eval shard: of one model, or of
/// what the strategy deploys to each client (Strategy::deployed_accuracy).
std::vector<double> client_accuracy(const Model& model,
                                    const ClientDataProvider& data);
std::vector<double> client_accuracy(Strategy& s,
                                    const ClientDataProvider& data);
/// Mean of client_accuracy(model, data).
double mean_client_accuracy(const Model& model,
                            const ClientDataProvider& data);

/// The report of a finished session: `client_accuracy` with its mean and
/// IQR, plus the engine's costs and round history.
BaselineReport baseline_report(const FederationEngine& engine,
                               std::vector<double> client_accuracy);

/// Run FedTrans on a preset. `eval_every` > 0 records accuracy probes in the
/// history (for Fig. 7 curves). The returned largest_spec is what the
/// paper's protocol feeds to HeteroFL/SplitMix/FLuID.
MethodResult run_fedtrans(const ExperimentPreset& p, int eval_every = 0);
/// Same but with an explicit (ablated / swept) FedTransConfig.
MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg, int eval_every = 0);
/// Same, run under `session` (its runtime block and engine-level knobs such
/// as the selector) instead of the session lifted from cfg.
MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg,
                              const SessionConfig& session);

/// The multi-model baselines. Per the paper's protocol (§A.1) each receives
/// the *largest* model FedTrans produced as its input architecture and the
/// preset's FedTrans runtime block as its session.
MethodResult run_heterofl(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every = 0);
MethodResult run_splitmix(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every = 0);
MethodResult run_fluid(const ExperimentPreset& p, const ModelSpec& largest,
                       int eval_every = 0);
/// FedRolex (extension baseline): rolling sub-model extraction.
MethodResult run_fedrolex(const ExperimentPreset& p, const ModelSpec& largest,
                          int eval_every = 0);

/// Single-global-model FL (FedAvg / FedProx via prox_mu / FedYogi).
MethodResult run_single_model(const ExperimentPreset& p, const ModelSpec& spec,
                              ServerOptKind opt = ServerOptKind::FedAvg,
                              double prox_mu = 0.0, int eval_every = 0);

/// Centralized ("cloud ML") upper bound: pool all client data, train `spec`
/// with plain SGD for the same optimizer budget.
MethodResult run_centralized(const ExperimentPreset& p, const ModelSpec& spec);

}  // namespace fedtrans
