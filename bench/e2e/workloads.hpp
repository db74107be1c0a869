#pragma once

// The four named workloads of the end-to-end benchmark (README.md has the
// table and the reason for each). Every session is built from public seats
// only — FederationEngine + Strategy + SessionConfig over the
// src/harness/presets datasets and the src/pop population types — and from
// nothing but the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/hetero_fl.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "pop/population.hpp"

namespace fedtrans::e2e {

/// Synchronous rounds per session, on every workload.
inline constexpr int kRounds = 200;

enum class Kind { FedTransCifar, FedTransCifarTree, FedAvgPop, HeteroFLFaulty };

struct Workload {
  const char* name;
  Kind kind;
};

/// All workloads, in README order.
const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// One cold session and everything it borrows. Members are destroyed in
/// reverse order, so the engine goes before the data it references.
struct Federation {
  std::unique_ptr<FederatedDataset> dataset;
  std::unique_ptr<Population> population;
  std::unique_ptr<PopulationDataView> view;
  std::unique_ptr<ClientDataProvider> timed_data;
  std::unique_ptr<FederationEngine> engine;
  /// The undecorated strategy inside *engine; exactly one is set.
  FedTransStrategy* fedtrans = nullptr;
  HeteroFLStrategy* heterofl = nullptr;
  FedAvgStrategy* fedavg = nullptr;
  /// Tasks plan_round schedules every round (the session's cohort size).
  int tasks_per_round = 0;
};

/// Build a session for `w` from `seed`. `timed` wraps the strategy,
/// selector and data provider in the decorators of decorators.hpp.
std::unique_ptr<Federation> build_federation(const Workload& w,
                                             std::uint64_t seed, bool timed);

/// Client accuracy after the session (not timed):
///   FedTrans  FedTransStrategy::evaluate_final();
///   HeteroFL  every client on submodel(level_for(c));
///   FedAvg    the global model on 256 clients drawn from the seed.
double final_accuracy(Federation& f, std::uint64_t seed);

/// FNV-1a digest over the weights of every server-side model.
std::uint64_t weights_digest(Federation& f);

}  // namespace fedtrans::e2e
