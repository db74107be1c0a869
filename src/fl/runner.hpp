#pragma once

#include "data/dataset.hpp"
#include "fl/compression.hpp"
#include "fl/engine.hpp"
#include "fl/local_train.hpp"
#include "fl/metrics.hpp"
#include "fl/selection.hpp"
#include "fl/server_opt.hpp"
#include "fl/session.hpp"
#include "model/model.hpp"
#include "net/transport.hpp"
#include "trace/device.hpp"

namespace fedtrans {

/// FedAvg's per-strategy options block (everything beyond the engine's
/// SessionConfig).
struct FedAvgOptions {
  ServerOptKind server_opt = ServerOptKind::FedAvg;
  /// Uplink (client → server) delta compression; downlink stays dense.
  CompressionKind compression = CompressionKind::None;
  double topk_ratio = 0.1;
  /// Per-client error feedback for biased compressors (EF-SGD).
  bool error_feedback = false;
  /// Straggler mitigation by over-selection (FedScale-style over-commit):
  /// select ceil((1 + overcommit) × k) participants, close the round at the
  /// `deadline_quantile` of their predicted completion times, and keep the
  /// k fastest on-time clients. Late and surplus clients still burn device
  /// compute (and receive the model) but their updates are dropped.
  /// overcommit = 0 / quantile = 1 reproduces the paper protocol.
  double overcommit = 0.0;
  double deadline_quantile = 1.0;
  /// When true, clients whose capacity is below the model's MACs skip the
  /// round (single-model FL typically ignores this — the straggler issue).
  bool respect_capacity = false;
};

/// Classic single-model federated averaging expressed as an engine
/// Strategy: one shared global model, weighted-mean aggregation through a
/// pluggable server optimizer, optional uplink compression with error
/// feedback, and FedScale-style over-selection with deadline trimming.
/// In SessionMode::Async it is FedBuff (Nguyen et al., AISTATS'22): the
/// engine discounts each arrival by its staleness, and every
/// `async.buffer_size` arrivals ship one server version through the same
/// weighted mean and server step a synchronous round applies.
class FedAvgStrategy : public Strategy {
 public:
  FedAvgStrategy(Model init, FedAvgOptions opts);

  std::string name() const override { return "fedavg"; }
  /// Refuses, in an async session, the options only a synchronous round
  /// reads (compression, over-selection, respect_capacity).
  void attach(RoundContext& ctx, Rng& rng) override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  Model* shared_model() override { return &model_; }
  const Model& reference_model() const override { return model_; }
  /// Compresses the uplink delta and records its size in res.uplink_bytes,
  /// then absorbs it as the default does.
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override;
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;
  /// Folds the arrival at scale and weight `discount`; every
  /// async.buffer_size arrivals applies the buffer's mean and returns its
  /// mean loss.
  std::optional<double> absorb_async(int client, LocalTrainResult& res,
                                     double discount,
                                     RoundContext& ctx) override;
  /// The weighted mean is a linear sum — numeric tree reduction applies as
  /// long as no per-client uplink compression rewrites the deltas.
  bool supports_partial_aggregation() const override {
    return opts_.compression == CompressionKind::None;
  }

  Model& model() { return model_; }

 protected:
  void fold(const ClientTask& task, Model* payload, const WeightSet& delta,
            double delta_scale, double weight, RoundContext& ctx) override;

 private:
  /// The server step: apply acc_ / weight_sum_ to global_ through the
  /// server optimizer and install the result.
  void apply_mean();

  Model model_;
  FedAvgOptions opts_;
  std::unique_ptr<ServerOptimizer> server_opt_;
  std::unique_ptr<DeltaCompressor> compressor_;
  ErrorFeedback ef_;

  // Per-round accumulators (reset in plan_round, consumed in finish_round;
  // in async sessions, the buffer between two shipped versions).
  WeightSet global_;  // weight snapshot the round's deltas apply to
  WeightSet acc_;
  double weight_sum_ = 0.0;
  int buffered_ = 0;
  double buffer_loss_ = 0.0;
  std::vector<int> dropped_;
  double deadline_ = 0.0;
};

}  // namespace fedtrans
