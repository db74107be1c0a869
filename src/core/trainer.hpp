#pragma once

#include <iosfwd>
#include <memory>

#include "core/aggregator.hpp"
#include "core/client_manager.hpp"
#include "core/signals.hpp"
#include "core/transformer.hpp"
#include "data/dataset.hpp"
#include "fl/engine.hpp"
#include "fl/local_train.hpp"
#include "fl/metrics.hpp"
#include "fl/selection.hpp"
#include "fl/server_opt.hpp"
#include "fl/session.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// Full FedTrans configuration (paper §5.1 / Table 7 defaults where noted):
/// the shared session runtime block plus the Model Transformer / Model
/// Aggregator knobs. Engine-level knobs (selector, fabric, async, …) live on
/// the SessionConfig the engine runs with — `SessionConfig::from(cfg)` lifts
/// this runtime block into one.
struct FedTransConfig : SessionRuntime {
  FedTransConfig() { rounds = 60; }

  // Model Transformer.
  double alpha = 0.9;        // Cell activeness threshold
  double beta = 0.003;       // DoC threshold to transform
  int gamma = 10;            // #consecutive slopes for DoC
  int doc_delta = 5;         // loss-slope step δ (per-dataset in the paper)
  int act_window = 5;        // T: rounds averaged for activeness
  double widen_factor = 2.0;
  int deepen_blocks = 1;
  int max_models = 6;        // safety bound on the family size
  /// Compound (paper default, widen/deepen alternation) vs the widen-only /
  /// deepen-only counterparts of the §5.4 scaling ablation.
  ScalingPolicy scaling_policy = ScalingPolicy::Compound;

  // Model Aggregator.
  double eta = 0.98;         // decay factor

  /// Server optimizer applied per model to the FedAvg'd delta (Fig. 8:
  /// FedTrans composes with FedYogi; FedProx composes via local.sgd.prox_mu).
  ServerOptKind server_opt = ServerOptKind::FedAvg;

  // Ablation switches (Table 3 / Table 1).
  bool enable_layer_selection = true;  // 'l'
  bool enable_soft_agg = true;         // 's'
  bool enable_warmup = true;           // 'w'
  bool enable_decay = true;            // 'd'
  bool enable_l2s = false;             // Table 1 (large→small sharing)
  /// Disable transformation entirely (degenerates to single-model FedAvg —
  /// the paper notes single-model training is a special case).
  bool enable_transform = true;
  /// Deployment-time assignment. `LossProbe` (default) refreshes each
  /// client's utility with one local-loss measurement per compatible model
  /// before picking — a client-side probe that sharpens the noisy
  /// accumulated utilities at reduced round budgets. `Utility` uses the
  /// accumulated utilities verbatim (Algorithm 1's U_c).
  enum class FinalAssignment { LossProbe, Utility };
  FinalAssignment final_assignment = FinalAssignment::LossProbe;
};

/// One member of the model family being co-trained.
struct ModelEntry {
  std::unique_ptr<Model> model;
  int id = 0;
  int created_round = 0;
  /// Per-model server optimizer state (FedAvg / FedYogi).
  std::unique_ptr<ServerOptimizer> opt;
};

/// Deployment-time evaluation report (paper metric: every client evaluated
/// on the family member it deploys).
struct FinalEval {
  std::vector<double> client_accuracy;
  std::vector<int> client_model;
  double mean_accuracy = 0.0;
  double accuracy_iqr = 0.0;
};

/// The FedTrans coordinator (Algorithm 1) as an engine Strategy: per round
/// it assigns every participant a compatible model by utility (the
/// prepare_task hook), trains locally, jointly updates utilities,
/// FedAvg-aggregates per model, soft-aggregates across models, and — the
/// transform hook — transforms the newest model when its DoC crosses β.
class FedTransStrategy : public Strategy {
 public:
  FedTransStrategy(ModelSpec initial, FedTransConfig cfg);

  std::string name() const override { return "fedtrans"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  void prepare_task(ClientTask& task, Rng& rng, RoundContext& ctx) override;
  Model client_payload(const ClientTask& task) override;
  // Tasks assigned the same family model download identical weights.
  int payload_key(const ClientTask& task) const override { return task.tag; }
  const Model& reference_model() const override {
    return *models_.front().model;
  }
  /// Utility learning and per-model loss bookkeeping.
  void absorb_metrics(const ClientTask& task, const LocalTrainResult& res,
                      RoundContext& ctx) override;
  /// Also replaces the record's loss with the mean of per-model means.
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  /// The family member deployed_model picks.
  double deployed_accuracy(int client, const ClientData& data) override;
  /// Per-model FedAvg is a weighted linear sum per family member (the
  /// reduce key is the assigned model index); utility learning only needs
  /// the per-client losses, which ride the tree verbatim as metrics.
  bool supports_partial_aggregation() const override { return true; }
  /// The model family (specs + weights + per-model optimizer state), client
  /// utilities, DoC/activeness histories and transform counters.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Index of the family member `client` deploys, chosen from its shards
  /// `data` by cfg.final_assignment. Evaluates private model copies, so
  /// safe to call concurrently.
  int deployed_model(int client, const ClientData& data) const;
  /// Every client's deployed_model and its accuracy.
  FinalEval evaluate_final();

  int num_models() const { return static_cast<int>(models_.size()); }
  Model& model(int i) { return *models_[static_cast<std::size_t>(i)].model; }
  const std::vector<ModelEntry>& entries() const { return models_; }
  const ClientManager& client_manager() const { return *cm_; }
  int transforms_done() const { return transforms_; }
  const FedTransConfig& config() const { return cfg_; }

 protected:
  void fold(const ClientTask& task, Model* payload, const WeightSet& delta,
            double delta_scale, double weight, RoundContext& ctx) override;

 private:
  /// The transform hook: grow the family when the newest model's DoC
  /// crosses β (consumes ctx.rng exactly like the legacy coordinator).
  void maybe_transform(RoundContext& ctx);
  std::vector<Model*> model_ptrs();

  ModelSpec initial_spec_;
  FedTransConfig cfg_;
  const ClientDataProvider* data_ = nullptr;
  const std::vector<DeviceProfile>* fleet_ = nullptr;

  std::vector<ModelEntry> models_;
  std::unique_ptr<ClientManager> cm_;
  SoftAggregator aggregator_;
  DoCTracker doc_;          // tracks the newest model's loss curve
  std::unique_ptr<ActivenessTracker> act_;  // newest model's cell activeness
  double max_capacity_ = 0.0;
  bool exhausted_ = false;  // no further growth possible
  int next_model_id_ = 1;
  int transforms_ = 0;

  // Per-round accumulators.
  struct Participation {
    int client;
    int model;
    double loss;
  };
  std::vector<WeightSet> acc_;
  std::vector<double> wsum_;
  std::vector<double> loss_sum_;
  std::vector<int> loss_cnt_;
  std::vector<Participation> parts_;
};

}  // namespace fedtrans
