#pragma once

#include "baselines/submodel.hpp"

namespace fedtrans {

/// FLuID (Wang et al., NeurIPS 2024): invariant-dropout FL. The server
/// tracks each neuron's (output channel's) aggregate update magnitude; for
/// a capacity-limited client it extracts a submodel that keeps the
/// *dynamic* neurons (largest recent updates) and drops the *invariant*
/// ones, then merges client updates back into the tracked positions. Unlike
/// HeteroFL's prefix crops, FLuID submodels select arbitrary channel
/// subsets. The ladder is a grid of width ratios 1.0, 0.9, …, 0.1.
/// Conv-cell models only.
class FluidStrategy : public SubmodelStrategy {
 public:
  explicit FluidStrategy(ModelSpec full_spec);

  std::string name() const override { return "fluid"; }
  /// Merges, then re-scores the channels from the applied update.
  void finish_round(RoundContext& ctx, RoundRecord& rec) override;

  /// Width ratio the client's capacity affords (the largest grid ratio
  /// whose submodel's MACs fit; 1.0 = full model).
  double ratio_for(int client) const { return width_ratio(level_for(client)); }

 protected:
  /// Keeps each width space's highest-scoring channels. Scores change only
  /// in finish_round, so payload and absorb see identical maps.
  void for_each_element(int level, Model& sub, const ElementFn& fn) override;

 private:
  void update_scores(const WeightSet& update);

  /// Per width space (stem, then each Cell) per output channel: EMA of the
  /// update magnitude.
  std::vector<std::vector<double>> score_;
};

}  // namespace fedtrans
