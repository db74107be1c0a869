#include "fl/engine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "fl/byzantine.hpp"
#include "fl/local_train.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

namespace {

/// Adapter turning a plain callback into a RoundObserver (the convenience
/// face of the observer API).
class CallbackObserver : public RoundObserver {
 public:
  explicit CallbackObserver(std::function<void(const RoundRecord&)> fn)
      : fn_(std::move(fn)) {}
  void on_round_end(const RoundRecord& rec) override { fn_(rec); }

 private:
  std::function<void(const RoundRecord&)> fn_;
};

/// Snap a weight copy onto the session's storage grid so its fabric
/// serialization is half-width (and exactly what local_train would produce
/// by quantizing on entry — keeping fabric and in-process rounds in parity).
WeightSet quantized_for_wire(WeightSet ws, const Precision& p) {
  if (p.enabled())
    for (auto& t : ws) t.quantize_storage(p.dtype);
  return ws;
}

/// One transfer of `m` as the session's wire carries it.
double wire_bytes(const Model& m, const SessionConfig& cfg) {
  return static_cast<double>(m.param_bytes()) * wire_dtype_scale(cfg);
}

/// The ledger's bill for a task whose update reached aggregation: its
/// training MACs, one downlink of `trained` and one uplink (the compressed
/// size when the strategy compressed it).
void bill_update(CostMeter& costs, const SessionConfig& cfg,
                 const LocalTrainResult& res, const Model& trained) {
  const double bytes = wire_bytes(trained, cfg);
  costs.add_training_macs(res.macs_used);
  costs.add_transfer(bytes,
                     res.uplink_bytes > 0.0 ? res.uplink_bytes : bytes);
}

}  // namespace

double wire_dtype_scale(const SessionConfig& cfg) {
  const Precision& p = cfg.local.precision;
  return p.enabled() ? static_cast<double>(dtype_bytes(p.dtype)) / 4.0 : 1.0;
}

double task_round_time_s(const SessionConfig& cfg, const DeviceProfile& dev,
                         const Model& trained) {
  return client_round_time_s(dev, static_cast<double>(trained.macs()),
                             cfg.local.steps, cfg.local.batch,
                             wire_bytes(trained, cfg));
}

void bill_lost_update(RoundContext& ctx, ClientOutcome outcome,
                      const Model& trained) {
  if (outcome != ClientOutcome::LostDown)
    ctx.costs.add_training_macs(3.0 * static_cast<double>(trained.macs()) *
                                ctx.session.local.steps *
                                ctx.session.local.batch);
  ctx.costs.add_transfer(wire_bytes(trained, ctx.session), 0.0);
}

std::vector<ClientTask> Strategy::plan_round(RoundContext& ctx, Rng& rng) {
  auto selected = ctx.selector.select(ctx.data.num_clients(),
                                      ctx.session.clients_per_round, rng);
  std::vector<ClientTask> tasks;
  tasks.reserve(selected.size());
  for (int c : selected) tasks.push_back(ClientTask{c, 0});
  return tasks;
}

void Strategy::absorb_update(const ClientTask& task, Model* trained,
                             LocalTrainResult& res, RoundContext& ctx) {
  absorb_metrics(task, res, ctx);
  const double n = static_cast<double>(res.num_samples);
  fold(task, trained, res.delta, n, n, ctx);
}

void Strategy::absorb_reduced(const ClientTask& task, Model* payload,
                              WeightSet& sum, double weight, int,
                              RoundContext& ctx) {
  fold(task, payload, sum, 1.0, weight, ctx);
}

void Strategy::fold(const ClientTask&, Model*, const WeightSet&, double,
                    double, RoundContext&) {
  FT_CHECK_MSG(false, "strategy '" << name()
                                   << "' implements neither fold nor "
                                      "absorb_update");
}

double Strategy::deployed_accuracy(int, const ClientData& data) {
  const Model* shared = shared_model();
  FT_CHECK_MSG(shared != nullptr,
               "strategy '" << name()
                            << "' has no shared model: override "
                               "deployed_accuracy");
  Model local = *shared;
  return evaluate_accuracy(local, data);
}

double Strategy::probe_accuracy(const std::vector<int>& ids,
                                RoundContext& ctx) {
  return mean(deployed_accuracies(*this, ids, ctx.data));
}

std::vector<double> deployed_accuracies(Strategy& s,
                                        const std::vector<int>& ids,
                                        const ClientDataProvider& data) {
  // Per-client slots keep the result order, and so every mean over it,
  // independent of the thread count.
  std::vector<double> accs(ids.size(), 0.0);
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(ids.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const int c = ids[static_cast<std::size_t>(i)];
          accs[static_cast<std::size_t>(i)] =
              s.deployed_accuracy(c, data.client(c));
        }
      });
  return accs;
}

std::optional<double> Strategy::absorb_async(int, LocalTrainResult&, double,
                                             RoundContext&) {
  FT_CHECK_MSG(false, "strategy '" << name()
                                   << "' does not support async scheduling");
  return std::nullopt;
}

void Strategy::save_state(std::ostream&) const {
  FT_CHECK_MSG(false, "strategy '" << name()
                                   << "' does not support checkpointing");
}

void Strategy::load_state(std::istream&) {
  FT_CHECK_MSG(false, "strategy '" << name()
                                   << "' does not support checkpointing");
}

FederationEngine::FederationEngine(std::unique_ptr<Strategy> strategy,
                                   const ClientDataProvider& data,
                                   std::vector<DeviceProfile> fleet,
                                   SessionConfig cfg)
    : strategy_(std::move(strategy)),
      data_(data),
      fleet_(std::move(fleet)),
      cfg_(cfg),
      rng_(cfg.seed) {
  FT_CHECK_MSG(strategy_ != nullptr, "engine requires a strategy");
  FT_CHECK_MSG(static_cast<int>(fleet_.size()) == data_.num_clients(),
               "fleet size must match client count");
  validate_topology(cfg_.topology);
  // Validate the partial-aggregation/strategy combination here, at session
  // build time, instead of letting the first round throw: a numeric tree
  // can only pre-sum weighted-linear-sum reductions. Strategies that
  // reduce non-linearly (robust aggregators, compressed uplinks) still
  // compose with trees of any depth — in the default verbatim-bundle mode,
  // where interior aggregators forward updates untouched.
  if (numeric_rounds())
    FT_CHECK_MSG(
        strategy_->supports_partial_aggregation(),
        "SessionConfig: topology.partial_aggregation=true needs a strategy "
        "whose reduction is a weighted linear sum, but strategy '"
            << strategy_->name()
            << "' reduces non-linearly (supports_partial_aggregation() is "
               "false). Drop with_partial_aggregation() — verbatim bundles "
               "compose with aggregation trees of any depth — or pick a "
               "linear strategy (FedAvg without compression, FedTrans, "
               "HeteroFL, FedRolex, FLuID, SplitMix).");
  if (cfg_.mode == SessionMode::Async) {
    FT_CHECK_MSG(cfg_.async.concurrency > 0 && cfg_.async.buffer_size > 0 &&
                     cfg_.async.aggregations > 0 &&
                     cfg_.async.staleness_exponent >= 0.0,
                 "SessionConfig: async concurrency, buffer_size and "
                 "aggregations must be positive and staleness_exponent "
                 "non-negative");
    FT_CHECK_MSG(strategy_->shared_model() != nullptr,
                 "async scheduling requires a shared-model strategy, but "
                 "strategy '" << strategy_->name() << "' has none");
  }
  selector_ = make_selector(cfg_.selector);
  {
    RoundContext ctx = make_context();
    strategy_->attach(ctx, rng_);
  }
  costs_.note_storage(strategy_->initial_storage_bytes());
}

FederationEngine::~FederationEngine() = default;

void FederationEngine::set_selector(std::unique_ptr<ClientSelector> selector) {
  FT_CHECK_MSG(selector != nullptr, "null selector");
  FT_CHECK_MSG(round_ == 0 && version_ == 0,
               "selector swap after rounds have run");
  selector_ = std::move(selector);
}

void FederationEngine::on_round(std::function<void(const RoundRecord&)> fn) {
  owned_observers_.push_back(
      std::make_unique<CallbackObserver>(std::move(fn)));
  observers_.push_back(owned_observers_.back().get());
}

RoundContext FederationEngine::make_context() {
  return RoundContext{data_, fleet_, cfg_,   costs_, *selector_,
                      rng_,  round_, 0,      0};
}

FederationServer& FederationEngine::server() {
  if (!fabric_)
    fabric_ = std::make_unique<FederationServer>(
        strategy_->reference_model(), data_, fleet_, cfg_.local,
        cfg_.fabric_faults, cfg_.topology, cfg_.transport, cfg_.socket);
  return *fabric_;
}

LocalTrainResult FederationEngine::train_locally(Model& model, int client,
                                                 Rng& rng,
                                                 std::uint32_t round) const {
  // Byzantine behavior is a *client* property (drawn per (seed, round,
  // client)), so it applies here exactly as it does on the fabric —
  // keeping adversarial runs path-independent.
  return byzantine_local_train(model, data_.client(client),
                               data_.num_classes(), cfg_.local, rng,
                               cfg_.fabric_faults, round, client);
}

bool FederationEngine::numeric_rounds() const {
  return cfg_.use_fabric && cfg_.topology.partial_aggregation &&
         cfg_.topology.levels >= 2 && cfg_.mode == SessionMode::Sync;
}

ExchangeResult FederationEngine::exchange(
    std::uint32_t round, double start_s, const std::vector<ClientTask>& tasks,
    std::vector<Rng>& client_rngs, Model* shared,
    std::vector<std::optional<Model>>& payloads,
    std::vector<Model*>& task_models) {
  ExchangeResult ex;
  if (cfg_.use_fabric) {
    // Message-passing path: payload models and forked Rngs ride ModelDown
    // frames over the simulated transport; ClientAgent workers train on
    // receipt and upload UpdateUp. The fixed-order reduction in run_round
    // is shared with the in-process path, so a fault-free fabric round is
    // bitwise identical to it — for every strategy.
    FederationServer& fabric = server();
    std::vector<int> clients;
    clients.reserve(tasks.size());
    for (const ClientTask& t : tasks) clients.push_back(t.client);

    // Numeric partial aggregation: hand the tree one reduce key per slot
    // so leaves know which updates sum into the same accumulator.
    std::vector<std::int32_t> reduce_keys;
    if (numeric_rounds()) {
      reduce_keys.reserve(tasks.size());
      for (const ClientTask& t : tasks)
        reduce_keys.push_back(strategy_->reduce_key(t));
    }

    if (shared != nullptr) {
      // Single-global-model strategies broadcast one encoded weight blob
      // (snapped to the session's storage grid for half-width ModelDown).
      ex = fabric.run_round(
          round, quantized_for_wire(shared->weights(), cfg_.local.precision),
          clients, client_rngs, reduce_keys, start_s);
    } else {
      // Heterogeneous strategies ship per-task architectures on the wire.
      // Tasks sharing a payload_key reuse one materialized model (ladder
      // strategies: one submodel per capacity level, not per client); the
      // server then encodes each distinct instance once.
      std::vector<Model*> ptrs;
      ptrs.reserve(tasks.size());
      std::unordered_map<int, Model*> by_key;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const int key = strategy_->payload_key(tasks[i]);
        Model* m = nullptr;
        if (key >= 0) {
          auto it = by_key.find(key);
          if (it != by_key.end()) m = it->second;
        }
        if (m == nullptr) {
          payloads[i].emplace(strategy_->client_payload(tasks[i]));
          m = &*payloads[i];
          if (cfg_.local.precision.enabled())
            for (auto& pr : m->params())
              pr.value->quantize_storage(cfg_.local.precision.dtype);
          if (key >= 0) by_key.emplace(key, m);
        }
        task_models[i] = m;
        ptrs.push_back(m);
      }
      ex = fabric.run_round(round, ptrs, clients, client_rngs, reduce_keys,
                            start_s);
    }
    // Retry-policy resends and leaf-failover redirects are real network
    // traffic beyond the ledger's one down + one up per task; the engine
    // bills them here. Zero without faults, so parity with in-process runs
    // holds.
    if (ex.retry_down_bytes > 0.0 || ex.retry_up_bytes > 0.0 ||
        ex.failover_down_bytes > 0.0)
      costs_.add_transfer(ex.retry_down_bytes + ex.failover_down_bytes,
                          ex.retry_up_bytes);
    // Delta downlinks shipped fewer bytes than the full ModelDown the
    // ledger bills — credit the difference back so the meter matches
    // what actually crossed the wire.
    if (ex.delta_saved_bytes > 0.0)
      costs_.add_transfer(-ex.delta_saved_bytes, 0.0);
    return ex;
  }

  // In-process path. Tasks are embarrassingly parallel: the Rngs were
  // pre-forked in task order, each worker trains a private payload model,
  // and the reduction afterwards runs in fixed task order — so every
  // metric is bitwise-independent of the thread count. Shared-model
  // strategies train on transient copies (absorb hooks never read them);
  // heterogeneous strategies keep each payload alive for absorb's
  // structural walks. An update reaches the server one simulated client
  // round time after the start.
  ex.results.resize(tasks.size());
  ex.outcomes.assign(tasks.size(), ClientOutcome::Trained);
  ex.arrived_at_s.resize(tasks.size());
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(tasks.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          std::optional<Model> transient;
          Model& local = shared != nullptr
                             ? transient.emplace(*shared)
                             : payloads[idx].emplace(
                                   strategy_->client_payload(tasks[idx]));
          ex.results[idx] = train_locally(local, tasks[idx].client,
                                          client_rngs[idx], round);
        }
      });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (payloads[i].has_value()) task_models[i] = &*payloads[i];
    const Model& trained =
        task_models[i] != nullptr ? *task_models[i] : *shared;
    ex.arrived_at_s[i] =
        start_s +
        task_round_time_s(
            cfg_, fleet_[static_cast<std::size_t>(tasks[i].client)], trained);
  }
  return ex;
}

double FederationEngine::run_round() {
  FT_CHECK_MSG(cfg_.mode == SessionMode::Sync,
               "run_round requires a synchronous session");
  FT_SPAN_ARG("engine", "round", "round", round_);
  for (RoundObserver* obs : observers_) obs->on_round_start(round_);
  RoundContext ctx = make_context();

  std::vector<ClientTask> tasks;
  std::vector<Rng> client_rngs;
  {
    FT_SPAN("engine", "select");
    tasks = strategy_->plan_round(ctx, rng_);
    client_rngs.reserve(tasks.size());
    for (ClientTask& t : tasks) {
      strategy_->prepare_task(t, rng_, ctx);
      client_rngs.push_back(rng_.fork());
    }
  }

  // Fetched once: the exchange ships it and the ledger bills from it.
  Model* shared = strategy_->shared_model();
  std::vector<std::optional<Model>> payloads(tasks.size());
  std::vector<Model*> task_models(tasks.size(), nullptr);
  ExchangeResult ex;
  {
    FT_SPAN_ARG("engine", "exchange", "tasks", tasks.size());
    ex = exchange(static_cast<std::uint32_t>(round_), 0.0, tasks, client_rngs,
                  shared, payloads, task_models);
  }

  // Byzantine accounting before aggregation (strategies may consume the
  // deltas): re-derive the pure (seed, round, client) attack draw per
  // trained task — no wire metadata needed — and record attacker identity
  // plus an L2 damage proxy on the round. In numeric tree rounds the
  // per-update deltas were pre-summed in-tree, so the proxy stays 0.
  int byz_updates = 0;
  double byz_l2 = 0.0;
  std::vector<std::int32_t> byz_clients;
  if (cfg_.fabric_faults.byzantine_prob > 0.0) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (ex.outcomes[i] != ClientOutcome::Trained) continue;
      if (!byzantine_client(cfg_.fabric_faults,
                            static_cast<std::uint32_t>(round_),
                            tasks[i].client))
        continue;
      ++byz_updates;
      byz_clients.push_back(tasks[i].client);
      byz_l2 += ws_l2_norm(ex.results[i].delta);
    }
  }

  FT_SPAN("engine", "aggregate");
  // The round ledger and the reduction, in one pass in fixed task order.
  // A task bills from the model it trained: compute, one downlink and one
  // uplink (res.uplink_bytes if compressed) when trained; the downlink and,
  // unless that was lost, the compute when lost. A client's consecutive
  // trained tasks (SplitMix's bases) make one client run: one device time,
  // their sum, and one selector report, their mean loss and summed
  // samples. A numeric tree round's metrics arrive verbatim and its deltas
  // pre-summed per reduce group, folded afterwards in ascending min-slot
  // order — the canonical order the tree reduced them in.
  double loss_sum = 0.0;
  double slowest = 0.0;
  struct ClientRun {
    int client = -1;
    int tasks = 0;
    int samples = 0;
    double loss_sum = 0.0;
    double time_s = 0.0;
  } run;
  auto end_run = [&] {
    if (run.tasks == 0) return;
    costs_.add_client_round_time(run.time_s);
    slowest = std::max(slowest, run.time_s);
    selector_->report(run.client, run.loss_sum / run.tasks, run.samples);
    run = ClientRun{};
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Model& trained =
        task_models[i] != nullptr ? *task_models[i] : *shared;
    if (ex.outcomes[i] != ClientOutcome::Trained) {
      strategy_->lost_update(tasks[i], ex.outcomes[i], ctx);
      bill_lost_update(ctx, ex.outcomes[i], trained);
      ++ctx.lost;
      continue;
    }
    LocalTrainResult& res = ex.results[i];
    if (ex.reduced)
      strategy_->absorb_metrics(tasks[i], res, ctx);
    else
      strategy_->absorb_update(tasks[i], task_models[i], res, ctx);
    ++ctx.trained;
    bill_update(costs_, cfg_, res, trained);
    if (run.client != tasks[i].client) end_run();
    run.client = tasks[i].client;
    ++run.tasks;
    run.samples += res.num_samples;
    run.loss_sum += res.avg_loss;
    run.time_s += task_round_time_s(
        cfg_, fleet_[static_cast<std::size_t>(run.client)], trained);
    loss_sum += res.avg_loss;
  }
  end_run();
  for (ReducedGroup& g : ex.groups) {
    const auto slot = static_cast<std::size_t>(g.min_slot);
    FT_CHECK_MSG(slot < tasks.size(), "reduce group references slot "
                                          << g.min_slot << " of "
                                          << tasks.size());
    strategy_->absorb_reduced(tasks[slot], task_models[slot], g.sum, g.weight,
                              g.count, ctx);
  }

  RoundRecord rec;
  rec.avg_loss = ctx.trained > 0 ? loss_sum / ctx.trained : 0.0;
  rec.round_time_s = slowest;
  strategy_->finish_round(ctx, rec);
  rec.round = round_;
  rec.cum_macs = costs_.total_macs();
  rec.participants = ctx.trained;
  rec.lost_updates += ctx.lost;  // strategies may pre-add deadline drops
  rec.leaf_failovers = ex.leaf_failovers;
  rec.byzantine_updates = byz_updates;
  rec.byzantine_l2 = byz_l2;
  rec.byzantine_clients = std::move(byz_clients);
  if (byz_updates > 0) {
    static Counter byz_total("fedtrans_byzantine_updates_total");
    byz_total.add(byz_updates);
    static Counter byz_rounds("fedtrans_byzantine_rounds_total");
    byz_rounds.inc();
    static Histogram byz_damage("fedtrans_byzantine_round_l2");
    byz_damage.observe(byz_l2);
  }

  maybe_probe(round_, ctx, rec);
  static Counter rounds_total("fedtrans_engine_rounds_total");
  rounds_total.inc();
  if (trace_virtual_on()) {
    // Round envelope on the simulated timeline: rounds run back to back,
    // each lasting its slowest participant.
    double start_s = 0.0;
    for (const RoundRecord& h : history_) start_s += h.round_time_s;
    FT_VSPAN_ARG("engine", "round", start_s, rec.round_time_s, kTrackEngine,
                 "participants", rec.participants);
  }
  history_.push_back(rec);
  for (RoundObserver* obs : observers_) obs->on_round_end(rec);
  ++round_;
  return rec.avg_loss;
}

void FederationEngine::maybe_probe(int tick, RoundContext& ctx,
                                   RoundRecord& rec) {
  if (cfg_.eval_every <= 0 || tick % cfg_.eval_every != 0) return;
  FT_SPAN_ARG("engine", "eval", "tick", tick);
  // Subsampled accuracy probe for learning curves; the probe Rng and id
  // draw are engine-owned so every strategy probes the same cohort.
  Rng erng(cfg_.seed + 977 + static_cast<std::uint64_t>(tick));
  const int k = cfg_.eval_clients > 0
                    ? std::min(cfg_.eval_clients, data_.num_clients())
                    : data_.num_clients();
  auto eval_ids = uniform_select(data_.num_clients(), k, erng);
  rec.accuracy = strategy_->probe_accuracy(eval_ids, ctx);
}

void FederationEngine::run() {
  {
    FT_SPAN("engine", "run");
    if (cfg_.mode == SessionMode::Async) {
      run_async();
    } else {
      for (int r = 0; r < cfg_.rounds; ++r) run_round();
    }
  }
  maybe_write_run_report_env(*this);
}

void FederationEngine::run_async() {
  // FedBuff's event loop. Every dispatch is a one-task exchange — the same
  // exchange a synchronous round runs, in-process or over the fabric —
  // keyed by its job id and started at the dispatch instant: the client
  // trains at once on the weights it downloaded, and the loop folds its
  // update in when it reaches the server (ExchangeResult::arrived_at_s),
  // staleness entering through the FedBuff discount. Over the fabric, an
  // update the server has not received within the ack-timeout deadline is
  // lost and the client replaced. The round ledger's rules bill each
  // dispatch once: when its event is processed, or after the loop for a
  // job still in flight when the last version ships.
  Model* shared = strategy_->shared_model();
  RoundContext ctx = make_context();
  // The server waits one ack-timeout per allowed uplink attempt: resend k
  // leaves the device ~k·ack_timeout_s after training ends, so a deadline
  // of a single timeout could never admit a retried update — the budget
  // would be billed traffic with zero recovery.
  const double deadline_s =
      static_cast<double>(cfg_.topology.max_retries + 1) *
      cfg_.topology.ack_timeout_s;

  // One pending server-side event per in-flight client: either the arrival
  // of its update, or the ack-timeout at which the server gives up on it
  // (the update was lost despite retries, or lands too late to count).
  struct Pending {
    double t = 0.0;
    std::uint32_t job = 0;
    int client = 0;
    int version = 0;
    ClientOutcome outcome = ClientOutcome::LostDown;
    bool arrival = false;
    LocalTrainResult res;  // valid iff arrival
  };
  auto later = [](const Pending& a, const Pending& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.job > b.job;  // deterministic tie-break: dispatch order
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)>
      pending(later);
  std::uint32_t next_job = 0;
  int folded_since_ship = 0;
  int lost_since_ship = 0;
  int failovers_since_ship = 0;

  auto dispatch = [&] {
    const int c = rng_.uniform_int(0, data_.num_clients() - 1);
    // The dispatch-order job id keys the client's Byzantine draw and, over
    // the fabric, its frames and fault draws.
    const std::uint32_t job = next_job++;
    const std::vector<ClientTask> tasks{ClientTask{c, 0}};
    std::vector<Rng> client_rngs{rng_.fork()};
    std::vector<std::optional<Model>> payloads(1);
    std::vector<Model*> task_models(1, nullptr);
    ExchangeResult ex =
        exchange(job, now_s_, tasks, client_rngs, shared, payloads,
                 task_models);
    // Dead leaves re-routed this dispatch; surface them on the next
    // shipped version's record.
    failovers_since_ship += ex.leaf_failovers;
    Pending p;
    p.job = job;
    p.client = c;
    p.version = version_;
    p.outcome = ex.outcomes[0];
    if (p.outcome != ClientOutcome::LostDown)
      costs_.add_client_round_time(task_round_time_s(
          cfg_, fleet_[static_cast<std::size_t>(c)], *shared));
    // The ack-timeout deadline is a fabric policy: in-process updates
    // always arrive. A leaf failover sent the model one ack-timeout late,
    // and the server, which redirected it, waits that much longer.
    const double give_up_s =
        now_s_ + deadline_s +
        static_cast<double>(ex.leaf_failovers) * cfg_.topology.ack_timeout_s;
    if (p.outcome == ClientOutcome::Trained &&
        (!cfg_.use_fabric || ex.arrived_at_s[0] <= give_up_s)) {
      p.arrival = true;
      p.t = ex.arrived_at_s[0];
      p.res = std::move(ex.results[0]);
    } else {
      p.t = give_up_s;
    }
    pending.push(std::move(p));
  };

  // Zero-progress guard: if the deadline is shorter than every client's
  // round trip (slow fleet, huge model, tiny ack_timeout_s), every event
  // is a timeout and version_ never advances — fail loudly instead of
  // looping forever. Legitimate faulty runs fold arrivals in long before
  // this bound.
  const int max_consecutive_timeouts =
      std::max(1000, 64 * cfg_.async.concurrency);
  int consecutive_timeouts = 0;

  for (int i = 0; i < cfg_.async.concurrency; ++i) dispatch();
  while (version_ < cfg_.async.aggregations) {
    FT_CHECK_MSG(!pending.empty(), "async scheduler starved");
    // Move the event out (top() is const only to protect heap order, which
    // pop() discards anyway) — the delta is model-sized, a copy per
    // absorbed update would be pure memcpy waste.
    Pending ev = std::move(const_cast<Pending&>(pending.top()));
    pending.pop();
    now_s_ = ev.t;

    if (ev.arrival) {
      consecutive_timeouts = 0;
      const int staleness = version_ - ev.version;
      staleness_sum_ += staleness;
      ++async_updates_;
      const double discount =
          std::pow(1.0 + staleness, -cfg_.async.staleness_exponent);
      ctx.round = version_;
      bill_update(costs_, cfg_, ev.res, *shared);
      const auto shipped =
          strategy_->absorb_async(ev.client, ev.res, discount, ctx);
      ++folded_since_ship;
      if (shipped.has_value()) {
        ++version_;
        RoundRecord rec;
        rec.round = version_;
        rec.avg_loss = *shipped;
        rec.cum_macs = costs_.total_macs();
        rec.round_time_s = now_s_;
        rec.participants = folded_since_ship;
        rec.lost_updates = lost_since_ship;
        rec.leaf_failovers = failovers_since_ship;
        folded_since_ship = 0;
        lost_since_ship = 0;
        failovers_since_ship = 0;
        FT_VSPAN_ARG("engine", "version_shipped", now_s_, 0.0, kTrackEngine,
                     "version", version_);
        maybe_probe(version_, ctx, rec);
        history_.push_back(rec);
        for (RoundObserver* obs : observers_) obs->on_round_end(rec);
      }
    } else {
      // Ack-timeout: bill the lost update, count the loss against the next
      // shipped version, and replace the client.
      ++lost_since_ship;
      bill_lost_update(ctx, ev.outcome, *shared);
      FT_CHECK_MSG(++consecutive_timeouts < max_consecutive_timeouts,
                   "fabric-backed async session makes no progress: no "
                   "update arrived within (max_retries + 1) * ack_timeout_s"
                   " — raise topology.ack_timeout_s above the fleet's round"
                   "-trip time");
    }
    if (version_ < cfg_.async.aggregations) dispatch();
  }
  // Jobs still in flight downloaded (and trained, unless the downlink was
  // lost) but never count: bill them as lost updates.
  for (; !pending.empty(); pending.pop())
    bill_lost_update(ctx, pending.top().outcome, *shared);
}

double FederationEngine::mean_staleness() const {
  return async_updates_ > 0
             ? staleness_sum_ / static_cast<double>(async_updates_)
             : 0.0;
}

}  // namespace fedtrans
