#pragma once

#include "data/dataset.hpp"
#include "fl/weights.hpp"
#include "model/model.hpp"
#include "nn/sgd.hpp"

namespace fedtrans {

/// Paper defaults (Table 7): 20 local steps, batch size 10, lr 0.05.
struct LocalTrainConfig {
  int steps = 20;
  int batch = 10;
  SgdOptions sgd{};
  /// Mixed-precision training (tensor/dtype.hpp). When enabled, weights,
  /// activations and the returned delta are kept on the f16/bf16 grid with
  /// fp32 accumulation, the loss gradient is scaled by the precision's
  /// loss scale (unscaled again inside Sgd::step), and the delta serializes
  /// half-width on the wire. Default: disabled (pure fp32).
  Precision precision{};
};

/// Outcome of one client's local training pass.
struct LocalTrainResult {
  /// w_start − w_end (the client's pseudo-gradient / "model update").
  WeightSet delta;
  /// Mean training loss across the local steps (the signal the coordinator
  /// uses for utilities and DoC).
  double avg_loss = 0.0;
  int num_samples = 0;
  /// Training compute spent: 3 × model MACs × steps × batch.
  double macs_used = 0.0;
  /// Bytes the update's uplink carried when it was compressed; 0 means a
  /// dense uplink of the trained model. The engine bills this.
  double uplink_bytes = 0.0;
};

/// Run local SGD on `model` (entered with the server weights, leaves with
/// the locally updated ones) over the client's train shard.
LocalTrainResult local_train(Model& model, const ClientData& data,
                             const LocalTrainConfig& cfg, Rng& rng);

/// Top-1 accuracy of `model` on the client's eval shard.
double evaluate_accuracy(Model& model, const ClientData& data,
                         int eval_batch = 64);

/// Mean training loss of `model` over (up to `max_samples` of) the client's
/// train shard, without updating weights. Used for utility probes.
double evaluate_loss(Model& model, const ClientData& data,
                     int max_samples = 64);

}  // namespace fedtrans
