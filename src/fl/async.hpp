#pragma once

#include "data/dataset.hpp"
#include "fl/engine.hpp"
#include "fl/local_train.hpp"
#include "fl/metrics.hpp"
#include "fl/server_opt.hpp"
#include "fl/session.hpp"
#include "model/model.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// FedBuff's (Nguyen et al., AISTATS'22) aggregation policy as an engine
/// Strategy, run in SessionMode::Async: the engine owns the event loop —
/// dispatch a new client the moment one finishes, fold completions in
/// simulated-completion order, discount by staleness (SessionConfig::async)
/// — and this strategy owns the buffer and the server model.
class FedBuffStrategy : public Strategy {
 public:
  explicit FedBuffStrategy(Model init,
                           ServerOptKind server_opt = ServerOptKind::FedAvg);

  std::string name() const override { return "fedbuff"; }
  void attach(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  Model* shared_model() override { return &model_; }
  const Model& reference_model() const override { return model_; }
  std::optional<double> absorb_async(int client, LocalTrainResult& res,
                                     double discount,
                                     RoundContext& ctx) override;

  // Synchronous hooks are not part of the async protocol.
  void absorb_update(const ClientTask&, Model*, LocalTrainResult&,
                     RoundContext&) override;
  void finish_round(RoundContext&, RoundRecord&) override;

  Model& model() { return model_; }

 private:
  Model model_;
  ServerOptKind opt_kind_;
  std::unique_ptr<ServerOptimizer> server_opt_;
  WeightSet buffer_;  // staleness-weighted sum of pending deltas
  double buffer_weight_ = 0.0;
  int buffered_ = 0;
  double loss_accum_ = 0.0;
  int loss_count_ = 0;
};

}  // namespace fedtrans
