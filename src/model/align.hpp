#pragma once

#include <functional>

#include "model/model.hpp"

namespace fedtrans {

/// A parameter tensor of `src` matched (by role) with one of `dst`:
/// stem ↔ stem, Cell-id-matched blocks by index, classifier ↔ classifier.
/// Shapes may differ (different widths); use for_each_overlap to visit the
/// shared prefix region.
struct AlignedPair {
  Tensor* dst = nullptr;
  Tensor* src = nullptr;
};

/// Enumerate aligned parameter tensors between two models of the same
/// lineage family. Because widening uses identity-prefix channel maps,
/// prefix overlap is the semantically meaningful shared region (the
/// HeteroFL-style "crop" the paper references for Eq. 5).
std::vector<AlignedPair> align_params(Model& dst, Model& src);

/// Visit the overlapping prefix hyper-rectangle of two same-rank tensors:
/// fn(a_flat_index, b_flat_index) for every coordinate < min(shape_a,
/// shape_b) element-wise.
void for_each_overlap(const Tensor& a, const Tensor& b,
                      const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Map parameter Tensor* -> index in model.params() order (to resolve
/// AlignedPair entries against external WeightSets such as client deltas).
std::unordered_map<const Tensor*, std::size_t> param_index(Model& m);

/// Width-scaled variant of a spec (HeteroFL/SplitMix-style submodels): every
/// Cell width and the stem width multiplied by `ratio` (min 1), Cell ids
/// preserved so weights align by prefix crop.
ModelSpec scale_widths(const ModelSpec& full, double ratio);

}  // namespace fedtrans
