#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "net/transport.hpp"

namespace fedtrans {

/// Byzantine client behavior, applied identically at both train sites —
/// the engine's in-process path and the fabric's ClientAgent, each serving
/// synchronous rounds and async dispatches — so adversarial runs replay
/// bit-identically whichever path executes them (see docs/robustness.md
/// for the threat model).
///
/// Whether a client attacks is the pure (seed, round, client) draw
/// `byzantine_client` (net/transport.hpp); *how* it attacks is
/// FaultConfig::byzantine_mode:
///  * SignFlip / ScaledUpdate corrupt the trained delta after honest
///    training (−Δ, λ·Δ);
///  * LabelFlip trains honestly on label-flipped local data (y → C−1−y);
///  * UtilityInflate uploads the honest update but reports a zero training
///    loss, gaming loss-driven coordinators (FedTrans utility learning).
///
/// In mixed-precision sessions the corrupted delta is re-snapped onto the
/// session's storage grid, so fabric serialization round-trips it exactly
/// and in-process/fabric parity is preserved.
LocalTrainResult byzantine_local_train(Model& model, const ClientData& data,
                                       int num_classes,
                                       const LocalTrainConfig& cfg, Rng& rng,
                                       const FaultConfig& faults,
                                       std::uint32_t round,
                                       std::int32_t client);

}  // namespace fedtrans
