#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fl/metrics.hpp"
#include "fl/session.hpp"
#include "model/model.hpp"
#include "net/server.hpp"
#include "trace/device.hpp"

namespace fedtrans {

class FederationEngine;

/// One unit of client work inside a round. Most strategies schedule one
/// task per selected client; SplitMix schedules one per (client, base).
/// `tag` is strategy-private (assigned model index, base index, level, …).
struct ClientTask {
  int client = 0;
  int tag = 0;
};

/// Everything a Strategy hook may touch while a round executes. Handed to
/// every hook so strategies stay free of engine back-pointers.
struct RoundContext {
  const ClientDataProvider& data;
  const std::vector<DeviceProfile>& fleet;
  const SessionConfig& session;
  CostMeter& costs;
  ClientSelector& selector;
  Rng& rng;
  int round = 0;
  /// Filled by the engine as updates are absorbed / lost.
  int trained = 0;
  int lost = 0;
};

/// The time function of the round ledger: simulated seconds for `dev` to
/// download `trained`, train it for the session's local steps and upload
/// it, at the session's wire width. FedAvg's deadline predicts with it.
double task_round_time_s(const SessionConfig& cfg, const DeviceProfile& dev,
                         const Model& trained);
/// Bill a task whose update never reached aggregation: the spent downlink
/// of `trained` and, unless the downlink itself was lost, the wasted
/// compute. The engine bills every casualty it sees this way; FedAvg bills
/// the stragglers its deadline drops.
void bill_lost_update(RoundContext& ctx, ClientOutcome outcome,
                      const Model& trained);
/// Wire width of a weight payload relative to fp32: 0.5 in mixed-precision
/// sessions (tensors ship 2 bytes/element), 1 otherwise. The ledger
/// rescales a model's fp32 param_bytes by this, so CostMeter matches what
/// actually crosses the (real or simulated) wire.
double wire_dtype_scale(const SessionConfig& cfg);

/// Observer of engine progress. Observers are non-owning and invoked in
/// registration order after each round (or, in async mode, after each
/// server aggregation).
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void on_round_start(int /*round*/) {}
  virtual void on_round_end(const RoundRecord& /*rec*/) {}
};

/// The pluggable algorithm seat of the FederationEngine. FedTrans's core
/// observation — multi-model transformation, single-model FL, and the
/// HeteroFL/SplitMix/FLuID/FedRolex baselines are all one
/// select → train → aggregate protocol with different per-model policies —
/// is expressed here: the engine owns the canonical loop, the strategy owns
/// the per-model policy. Hooks run in a fixed order per round:
///
///   plan_round         selection (+ strategy-specific trimming)
///   prepare_task ×n    per-task state (FedTrans model assignment); the
///                      engine forks the task's Rng right after each call,
///                      preserving legacy fork sequences bit-exactly
///   client_payload ×n  materialize the model each task trains
///   (engine trains concurrently, in-process or over the fabric)
///   absorb_update ×n   fixed task-order reduction: absorb_metrics + fold;
///                      numeric trees fold per reduce group
///   lost_update  ×k    notice of a fabric casualty
///   finish_round       aggregate, optionally transform, adjust the record
///   probe_accuracy     periodic eval probe (engine picks the client ids),
///                      scoring deployed_accuracy per probed client
///
/// The engine keeps the round's ledger itself, from the model each task
/// trained: it bills every task's compute and transfers to CostMeter, times
/// each client, reports each client's loss to the selector, and fills the
/// record's avg_loss and round_time_s before finish_round. Strategies keep
/// only their aggregation.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// One-time binding, called from the engine constructor before any
  /// round: build server models (draws made here come out of the
  /// coordinator Rng and continue into round 1 bit-identically) and capture
  /// the data/fleet references the strategy needs outside of round hooks.
  virtual void attach(RoundContext& /*ctx*/, Rng& /*rng*/) {}

  /// Build this round's work list; may consume `rng` (selection draws).
  /// Default: one task per client chosen by the session's selector.
  virtual std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng);

  /// Per-task pre-pass, in task order, immediately before the engine forks
  /// that task's Rng. Consume `rng` here (e.g. FedTrans model assignment)
  /// and the legacy draw order is preserved exactly.
  virtual void prepare_task(ClientTask& /*task*/, Rng& /*rng*/,
                            RoundContext& /*ctx*/) {}

  /// Materialize the model `task` trains — architecture and weights. Called
  /// concurrently from pool workers on the in-process path; must not mutate
  /// strategy state.
  virtual Model client_payload(const ClientTask& task) = 0;

  /// Non-null when every task of every round downloads this exact model
  /// (single-global-model strategies). Lets the engine broadcast one
  /// encoded weight blob over the fabric instead of per-task payloads; the
  /// engine constructor requires it of async sessions.
  virtual Model* shared_model() { return nullptr; }

  /// Tasks reporting the same non-negative key within a round download
  /// byte-identical payloads (client_payload would return the same model).
  /// Lets the fabric path materialize and encode each distinct payload once
  /// per round — ladder strategies ship one submodel per capacity level, not
  /// per client. Default: every task's payload is assumed distinct.
  virtual int payload_key(const ClientTask& /*task*/) const { return -1; }

  /// A structurally representative model (fabric prototype).
  virtual const Model& reference_model() const = 0;

  /// Server-resident model bytes at session start (CostMeter storage note).
  virtual double initial_storage_bytes() const {
    return static_cast<double>(reference_model().param_bytes());
  }

  /// Absorb one finished task, in task order. Default: absorb_metrics, then
  /// fold of res.delta at scale and weight res.num_samples. Override only to
  /// rewrite the update first (FedAvg's uplink compression, which records
  /// the compressed size in res.uplink_bytes for the ledger) or to reduce
  /// non-linearly. `trained` is null for shared-model strategies (clients
  /// train transient copies; read the update from `res`); otherwise it is
  /// the task's payload model: its *structure* matches what the client
  /// trained, its weights are post-training in-process and pre-training over
  /// the fabric, and the tasks of one payload_key group share it there, so
  /// treat it as read-only.
  virtual void absorb_update(const ClientTask& task, Model* trained,
                             LocalTrainResult& res, RoundContext& ctx);

  /// A task whose update never reached aggregation (fabric message loss,
  /// mid-round dropout). The engine bills and counts the loss; the default
  /// does nothing, and the hook stays virtual for decorators that forward
  /// it.
  virtual void lost_update(const ClientTask& /*task*/,
                           ClientOutcome /*outcome*/, RoundContext& /*ctx*/) {}

  /// Per-task bookkeeping beyond the weight accumulation (FedTrans's
  /// utility learning), in task order. Numeric tree rounds call only this
  /// per task. Default: nothing.
  virtual void absorb_metrics(const ClientTask& /*task*/,
                              const LocalTrainResult& /*res*/,
                              RoundContext& /*ctx*/) {}

  // --- numeric partial aggregation (associativity-tolerant tree mode) ----

  /// True when the strategy's reduction is its fold — `acc += n·Δ` plus a
  /// weight total per reduce group — which lets tree aggregators pre-sum
  /// updates numerically (FabricTopology::partial_aggregation). Opt-in: the
  /// engine refuses a numeric session on a strategy that returns false.
  virtual bool supports_partial_aggregation() const { return false; }

  /// Reduce-group key for the numeric reduction: tasks with equal keys
  /// must have shape-identical deltas and fold into the same strategy
  /// slot. Default: the task tag (FedTrans's model index, a submodel
  /// level, SplitMix's base; 0 for single-model strategies).
  virtual int reduce_key(const ClientTask& task) const { return task.tag; }

  /// Fold one pre-summed reduce group (`sum` = Σ n·Δ, `weight` = Σ n) after
  /// the round's absorb_metrics passes, in ascending min-slot order; `task`
  /// is the group's smallest trained slot and `payload` its payload model.
  /// Default: fold at scale 1. `count` is unused; the hook stays virtual for
  /// decorators that forward it.
  virtual void absorb_reduced(const ClientTask& task, Model* payload,
                              WeightSet& sum, double weight, int count,
                              RoundContext& ctx);

  /// Apply the round's aggregate to the server model(s) and run any model
  /// transformation. The engine has filled rec.avg_loss (the mean over
  /// absorbed updates) and rec.round_time_s (the slowest client); a
  /// strategy may adjust them (FedTrans's per-model means, FedAvg's
  /// deadline) and pre-add deadline drops to rec.lost_updates. The engine
  /// fills round / cum_macs / participants / accuracy afterwards.
  virtual void finish_round(RoundContext& ctx, RoundRecord& rec) = 0;

  /// Top-1 accuracy, on `data` (the client's shards), of what `client`
  /// deploys once training ends. The periodic probe and the harness both
  /// score it. Called concurrently for distinct clients from pool workers,
  /// so evaluate private model copies: forward() mutates layer caches.
  /// Default: a copy of shared_model(); a strategy without one must
  /// override (the default throws).
  virtual double deployed_accuracy(int client, const ClientData& data);

  /// Mean deployed_accuracy over `ids` for the periodic probe, summed in
  /// id order (0 for no ids). Virtual only for decorators that forward it.
  virtual double probe_accuracy(const std::vector<int>& ids,
                                RoundContext& ctx);

  // --- async scheduling mode (FedBuff) -----------------------------------

  /// Fold one completed (and already billed) async update, pre-weighted by
  /// the engine's staleness `discount`. Return the shipped server version's
  /// mean buffer loss when this update filled the buffer and a new version
  /// was applied; nullopt otherwise. FedAvg implements it (FedBuff is its
  /// async mode). Default: refuse with an Error naming the strategy, so an
  /// async session on any other strategy fails instead of never shipping.
  virtual std::optional<double> absorb_async(int client,
                                             LocalTrainResult& res,
                                             double discount,
                                             RoundContext& ctx);

  // --- checkpointing -----------------------------------------------------

  /// Append / restore the strategy's dynamic state (server models,
  /// optimizer state, per-strategy counters) — the last block of a
  /// FederationEngine checkpoint. load_state runs on a strategy attached to
  /// the same data, fleet and config. Default: refuse with an Error naming
  /// the strategy.
  virtual void save_state(std::ostream& os) const;
  virtual void load_state(std::istream& is);

 protected:
  /// A linear strategy's one reduction: acc += delta_scale·delta and
  /// wsum += weight in the slot of `task`'s reduce group. Callers pass the
  /// scale, not a scaled delta: the Release build contracts `acc += n·Δ`
  /// into one FMA, and pre-scaling would round twice. Default: throws.
  virtual void fold(const ClientTask& task, Model* payload,
                    const WeightSet& delta, double delta_scale, double weight,
                    RoundContext& ctx);
};

/// The deployment evaluator: `s.deployed_accuracy` of each client in `ids`,
/// evaluated concurrently on the shared ThreadPool; slot i holds ids[i]'s.
std::vector<double> deployed_accuracies(Strategy& s,
                                        const std::vector<int>& ids,
                                        const ClientDataProvider& data);

/// The one federation engine: owns the canonical round loop (select →
/// materialize per-client payloads → local train on the shared ThreadPool →
/// collect → aggregate → server-opt → eval/record) for every strategy, and
/// fronts both the in-process path and the wire-protocol FederationServer —
/// so any strategy runs over the fabric, with fault injection and
/// lost-update accounting, by flipping SessionConfig::use_fabric.
class FederationEngine {
 public:
  FederationEngine(std::unique_ptr<Strategy> strategy,
                   const ClientDataProvider& data,
                   std::vector<DeviceProfile> fleet, SessionConfig cfg);
  ~FederationEngine();
  // Not movable: strategies capture &fleet_/&data_ in attach(), so a moved
  // engine would leave them dangling. Hold engines by unique_ptr.
  FederationEngine(FederationEngine&&) = delete;
  FederationEngine& operator=(FederationEngine&&) = delete;

  /// Execute one synchronous round; returns the round's mean loss.
  double run_round();
  /// Execute the configured session: cfg.rounds synchronous rounds, or the
  /// async event loop until cfg.async.aggregations versions shipped.
  void run();

  // Observers. Raw pointers are borrowed (caller keeps them alive);
  // on_round registers an engine-owned callback observer.
  void add_observer(RoundObserver* obs) { observers_.push_back(obs); }
  void on_round(std::function<void(const RoundRecord&)> fn);

  Strategy& strategy() { return *strategy_; }
  const Strategy& strategy() const { return *strategy_; }
  template <typename T>
  T& strategy_as() {
    return static_cast<T&>(*strategy_);
  }

  const SessionConfig& config() const { return cfg_; }
  const ClientDataProvider& data() const { return data_; }
  const std::vector<DeviceProfile>& fleet() const { return fleet_; }
  const std::vector<RoundRecord>& history() const { return history_; }
  const CostMeter& costs() const { return costs_; }
  int rounds_done() const { return round_; }
  ClientSelector& selector() { return *selector_; }

  /// Replace the selector built from cfg.selector — e.g. the population
  /// layer's availability-aware selector (src/pop). Call before any round
  /// has run; the engine owns the replacement.
  void set_selector(std::unique_ptr<ClientSelector> selector);

  /// The federation fabric backing this session; null until the first
  /// use_fabric round executes (and always null without use_fabric).
  const FederationServer* fabric() const { return fabric_.get(); }

  // Async-mode state.
  double now_s() const { return now_s_; }
  int versions_done() const { return version_; }
  /// Mean staleness (server versions behind) across folded-in updates.
  double mean_staleness() const;

  /// Checkpoint the session: a header (magic, version, seed, fleet size,
  /// strategy name), the engine's state (Rng, costs, selector, round
  /// counter, history), then the strategy's save_state blob.
  /// load_checkpoint restores it into an engine built with the same
  /// dataset, fleet, config and strategy kind; resumed rounds then replay
  /// bit-identically. A load that throws leaves the session untouched.
  /// Both refuse fabric sessions with drop/duplicate/reorder faults (those
  /// draws are keyed by transport sequence numbers a checkpoint does not
  /// carry) and strategies without save_state (every one but FedTrans).
  void save_checkpoint(std::ostream& os) const;
  void load_checkpoint(std::istream& is);

 private:
  RoundContext make_context();
  /// FedBuff's event loop: each dispatch is a one-task exchange started at
  /// the dispatch instant, and its update is folded in when it reaches the
  /// server.
  void run_async();
  /// The fabric server, built on first use (so transport and socket setup
  /// stays out of engine construction).
  FederationServer& server();
  /// In-process client training: what a ClientAgent does on receipt of its
  /// ModelDown, minus the wire.
  LocalTrainResult train_locally(Model& model, int client, Rng& rng,
                                 std::uint32_t round) const;
  /// Periodic accuracy probe shared by both modes: fills rec.accuracy when
  /// eval_every divides `tick` (the round in sync mode, the shipped server
  /// version in async mode).
  void maybe_probe(int tick, RoundContext& ctx, RoundRecord& rec);
  /// Train `tasks` in-process or over the fabric, as round `round` (it
  /// keys the frames and the per-round fault and Byzantine draws) starting
  /// at simulated instant `start_s`, and bill the fabric's extra traffic.
  ExchangeResult exchange(std::uint32_t round, double start_s,
                          const std::vector<ClientTask>& tasks,
                          std::vector<Rng>& client_rngs, Model* shared,
                          std::vector<std::optional<Model>>& payloads,
                          std::vector<Model*>& task_models);
  /// True when this session's rounds run the numeric tree reduction
  /// (fabric + partial_aggregation topology; the constructor checks the
  /// strategy's supports_partial_aggregation).
  bool numeric_rounds() const;
  void check_resumable() const;
  void read_checkpoint(std::istream& is);

  std::unique_ptr<Strategy> strategy_;
  const ClientDataProvider& data_;
  std::vector<DeviceProfile> fleet_;
  SessionConfig cfg_;
  Rng rng_;
  CostMeter costs_;
  std::vector<RoundRecord> history_;
  std::unique_ptr<ClientSelector> selector_;
  std::unique_ptr<FederationServer> fabric_;
  std::vector<RoundObserver*> observers_;
  std::vector<std::unique_ptr<RoundObserver>> owned_observers_;
  int round_ = 0;

  // Async-mode progress.
  double now_s_ = 0.0;
  int version_ = 0;
  std::int64_t async_updates_ = 0;
  double staleness_sum_ = 0.0;
};

}  // namespace fedtrans
