#pragma once

#include "baselines/submodel.hpp"

namespace fedtrans {

/// HeteroFL (Diao et al., ICLR 2020): a *static* ladder of width-scaled
/// submodels of one global model, each the top-left (prefix) crop of the
/// global weights.
class HeteroFLStrategy : public SubmodelStrategy {
 public:
  /// `width_ratios` must be strictly descending and start at 1.0 (the full
  /// model).
  explicit HeteroFLStrategy(
      ModelSpec full_spec,
      std::vector<double> width_ratios = {1.0, 0.5, 0.25, 0.125, 0.0625})
      : SubmodelStrategy(std::move(full_spec), std::move(width_ratios)) {}

  std::string name() const override { return "heterofl"; }

 protected:
  void for_each_element(int level, Model& sub, const ElementFn& fn) override;
};

}  // namespace fedtrans
