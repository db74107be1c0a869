#pragma once

// Seat decorators for the traced run. Each wraps one public seat of the
// FederationEngine — Strategy, ClientSelector, ClientDataProvider — forwards
// every virtual to the wrapped object unchanged, and records one wall span
// (FT_SPAN, category "bench") around the calls that do work. That is how the
// benchmark splits a round across src/core, src/fl/selection, src/pop and
// src/data from outside, without adding spans to the library.
//
// With wall tracing off every span is one relaxed atomic load, and the
// decorated session must stay bitwise identical to the plain one
// (`run.sh --check` asserts it).

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "fl/engine.hpp"
#include "fl/selection.hpp"
#include "obs/trace.hpp"

namespace fedtrans::e2e {

/// Strategy decorator. Spans: "strategy.plan" (plan_round, prepare_task),
/// "strategy.payload" (client_payload, shared_model), "strategy.absorb"
/// (absorb_update, lost_update, absorb_metrics, absorb_reduced,
/// absorb_async) and "strategy.finish". Accessors, attach (it runs before
/// any tracing) and probe_accuracy (no timed round probes) forward without
/// a span. client_payload runs concurrently on pool threads; spans go to
/// per-thread trace buffers, so the decorator holds no shared state.
class TimedStrategy : public Strategy {
 public:
  explicit TimedStrategy(std::unique_ptr<Strategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void attach(RoundContext& ctx, Rng& rng) override {
    inner_->attach(ctx, rng);
  }
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override {
    FT_SPAN("bench", "strategy.plan");
    return inner_->plan_round(ctx, rng);
  }
  void prepare_task(ClientTask& task, Rng& rng, RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.plan");
    inner_->prepare_task(task, rng, ctx);
  }
  Model client_payload(const ClientTask& task) override {
    FT_SPAN("bench", "strategy.payload");
    return inner_->client_payload(task);
  }
  Model* shared_model() override {
    FT_SPAN("bench", "strategy.payload");
    return inner_->shared_model();
  }
  int payload_key(const ClientTask& task) const override {
    return inner_->payload_key(task);
  }
  const Model& reference_model() const override {
    return inner_->reference_model();
  }
  double initial_storage_bytes() const override {
    return inner_->initial_storage_bytes();
  }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.absorb");
    inner_->absorb_update(task, trained, res, ctx);
  }
  void lost_update(const ClientTask& task, ClientOutcome outcome,
                   RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.absorb");
    inner_->lost_update(task, outcome, ctx);
  }
  bool supports_partial_aggregation() const override {
    return inner_->supports_partial_aggregation();
  }
  int reduce_key(const ClientTask& task) const override {
    return inner_->reduce_key(task);
  }
  void absorb_metrics(const ClientTask& task, const LocalTrainResult& res,
                      RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.absorb");
    inner_->absorb_metrics(task, res, ctx);
  }
  void absorb_reduced(const ClientTask& task, Model* payload, WeightSet& sum,
                      double weight, int count, RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.absorb");
    inner_->absorb_reduced(task, payload, sum, weight, count, ctx);
  }
  void finish_round(RoundContext& ctx, RoundRecord& rec) override {
    FT_SPAN("bench", "strategy.finish");
    inner_->finish_round(ctx, rec);
  }
  double probe_accuracy(const std::vector<int>& ids,
                        RoundContext& ctx) override {
    return inner_->probe_accuracy(ids, ctx);
  }
  std::optional<double> absorb_async(int client, LocalTrainResult& res,
                                     double discount,
                                     RoundContext& ctx) override {
    FT_SPAN("bench", "strategy.absorb");
    return inner_->absorb_async(client, res, discount, ctx);
  }

 private:
  std::unique_ptr<Strategy> inner_;
};

/// ClientSelector decorator: one "select" span per select() call.
class TimedSelector : public ClientSelector {
 public:
  explicit TimedSelector(std::unique_ptr<ClientSelector> inner)
      : inner_(std::move(inner)) {}

  std::vector<int> select(int population, int k, Rng& rng) override {
    FT_SPAN("bench", "select");
    return inner_->select(population, k, rng);
  }
  void report(int client, double loss, int samples) override {
    inner_->report(client, loss, samples);
  }
  std::string name() const override { return inner_->name(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<ClientSelector> inner_;
};

/// ClientDataProvider decorator: one "data.client" span per client() call
/// (called concurrently from pool threads). Borrows the wrapped provider.
class TimedDataProvider : public ClientDataProvider {
 public:
  explicit TimedDataProvider(const ClientDataProvider& inner)
      : inner_(&inner) {}

  int num_clients() const override { return inner_->num_clients(); }
  int num_classes() const override { return inner_->num_classes(); }
  const ClientData& client(int c) const override {
    FT_SPAN("bench", "data.client");
    return inner_->client(c);
  }

 private:
  const ClientDataProvider* inner_;
};

}  // namespace fedtrans::e2e
