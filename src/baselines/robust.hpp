#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/engine.hpp"
#include "fl/server_opt.hpp"

namespace fedtrans {

/// Which robust reduction a RobustStrategy applies to the round's client
/// deltas.
enum class RobustAggregator : std::uint8_t {
  /// Coordinate-wise median of the client deltas ("robust-median").
  CoordinateMedian,
  /// Coordinate-wise trimmed mean: drop the ⌈trim_fraction·n⌉ largest and
  /// smallest values per coordinate, average the rest ("trimmed-mean").
  TrimmedMean,
  /// Krum-style scoring plus norm clipping: drop the ⌈trim_fraction·n⌉
  /// highest-scoring (most outlying) updates, clip the survivors to
  /// clip_multiplier × their median L2 norm, average ("norm-clip").
  NormClip,
};

/// RobustStrategy's options block (see docs/robustness.md). Robust
/// reductions are one-client-one-vote: they deliberately ignore
/// self-reported sample counts, which are themselves an attack surface
/// under the threat model.
struct RobustConfig {
  RobustAggregator aggregator = RobustAggregator::CoordinateMedian;
  /// Per-side trim fraction (TrimmedMean) / outlier-discard fraction
  /// (NormClip's score cut), in [0, 0.5).
  double trim_fraction = 0.2;
  /// NormClip survivors are clipped to this multiple of their median norm;
  /// positive.
  double clip_multiplier = 1.0;
};

// Byzantine-robust reducers over a round's client deltas (the building
// blocks of RobustStrategy; docs/robustness.md). All three are
// one-client-one-vote: self-reported sample counts are an attack surface
// under the threat model, so — unlike FedAvg's weighted mean — they carry
// no per-update weights. Inputs must be finite (RobustStrategy rejects
// NaN/Inf-poisoned updates before they get here) and shape-identical.

/// Coordinate-wise median (even counts average the two middle values).
/// Bitwise invariant to the order of `deltas`.
WeightSet robust_coordinate_median(const std::vector<WeightSet>& deltas);

/// Coordinate-wise trimmed mean: per coordinate, drop the ⌈trim·n⌉ largest
/// and smallest values (clamped so at least one survives) and average the
/// rest, summing in sorted order — bitwise permutation-invariant. With
/// trim = 0 the sum runs in input order, matching an unweighted FedAvg
/// fold (ws_axpy per update, then one scale) bit for bit.
WeightSet robust_trimmed_mean(const std::vector<WeightSet>& deltas,
                              double trim_fraction);

/// Krum-style scoring + norm clipping: score each update by its summed
/// squared distance to its closest neighbors, drop the ⌈trim·n⌉ highest
/// scorers (the outliers), clip the survivors to clip_multiplier × their
/// median L2 norm, and average the survivors.
WeightSet robust_norm_clip(const std::vector<WeightSet>& deltas,
                           double trim_fraction, double clip_multiplier);

/// Byzantine-robust aggregation as an engine Strategy: one shared global
/// model, per-round delta stash in fixed task order, a RobustConfig-chosen
/// reducer in finish_round, and NaN/Inf update rejection on admission. The
/// constructor validates the RobustConfig.
///
/// The reductions are non-linear, so supports_partial_aggregation() stays
/// false: sessions compose with FabricTopology trees of any depth in the
/// default verbatim-bundle mode (bitwise identical to flat rounds), and a
/// partial_aggregation=true topology fails loudly at engine construction.
class RobustStrategy final : public Strategy {
 public:
  explicit RobustStrategy(Model init, RobustConfig cfg = {});

  std::string name() const override;
  std::vector<ClientTask> plan_round(RoundContext& ctx, Rng& rng) override;
  Model client_payload(const ClientTask& task) override;
  Model* shared_model() override { return &model_; }
  const Model& reference_model() const override { return model_; }
  void absorb_update(const ClientTask& task, Model* trained,
                     LocalTrainResult& res, RoundContext& ctx) override;
  /// Also replaces the record's loss with the mean over admitted updates.
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;

  Model& model() { return model_; }
  /// NaN/Inf-poisoned updates rejected on admission, whole session.
  int rejected_updates() const { return total_rejected_; }

 private:
  Model model_;
  RobustConfig cfg_;
  std::unique_ptr<ServerOptimizer> server_opt_;

  // Per-round accumulators (reset in plan_round, consumed in finish_round).
  WeightSet global_;
  std::vector<WeightSet> deltas_;
  double loss_sum_ = 0.0;
  int total_rejected_ = 0;
};

}  // namespace fedtrans
