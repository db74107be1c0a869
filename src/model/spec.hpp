#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fedtrans {

/// The paper's minimum transformable architecture unit ("Cell", §3): a
/// stack of identically-sized blocks (conv / MLP / transformer blocks).
/// FedTrans widens a Cell (multiply `width`) or deepens around it (insert a
/// fresh Cell). Cells carry a stable `id` so lineage-related models can be
/// aligned Cell-by-Cell for similarity scoring and weight sharing.
enum class CellKind { Conv, Mlp, Attention };

struct CellSpec {
  CellKind kind = CellKind::Conv;
  /// Output channels (Conv), hidden features (Mlp), or MLP hidden dim of the
  /// transformer block (Attention — the embed dim stays fixed).
  int width = 8;
  /// Number of stacked blocks inside the Cell.
  int blocks = 1;
  /// Spatial stride applied by the Cell's first block (Conv only).
  int stride = 1;
  /// Residual blocks compute y = x + f(x); requires in==out per block (all
  /// blocks after the first; the first too when widths line up).
  bool residual = false;
  /// Stable lineage id (allocated by ModelSpec::fresh_cell_id).
  std::uint64_t id = 0;
  /// True when the last transformation that touched this Cell widened it —
  /// drives the paper's widen/deepen alternation (Fig. 5 control flow).
  bool widened_last = false;

  bool operator==(const CellSpec&) const = default;
};

/// Complete, serializable architecture description. A Model is built from a
/// ModelSpec; transformations produce new ModelSpecs (plus warm-started
/// weights).
struct ModelSpec {
  std::string name = "M0";
  int model_id = 0;
  int parent_id = -1;

  CellKind kind = CellKind::Conv;
  int in_channels = 1;
  int in_hw = 16;       // square input resolution
  int num_classes = 10;
  int stem_width = 8;   // Conv/Mlp stem output width (fixed, not transformed)

  // Attention-only fields.
  int patch = 4;      // patch-embedding size (in_hw must be divisible)
  int embed_dim = 16; // token dimension

  std::vector<CellSpec> cells;

  /// Monotone id allocator shared along a lineage (children copy the
  /// parent's counter so ids never collide within a family).
  std::uint64_t next_cell_id = 1;
  std::uint64_t fresh_cell_id() { return next_cell_id++; }

  /// Convenience builder: a Conv model with the given cell widths,
  /// one block per cell, stride-2 on cells marked in `downsample`.
  static ModelSpec conv(int in_channels, int in_hw, int num_classes,
                        int stem_width, const std::vector<int>& cell_widths,
                        const std::vector<int>& cell_blocks = {},
                        const std::vector<int>& strides = {});
  static ModelSpec mlp(int in_features, int num_classes, int stem_width,
                       const std::vector<int>& cell_widths,
                       const std::vector<int>& cell_blocks = {});
  static ModelSpec attention(int in_channels, int in_hw, int num_classes,
                             int patch, int embed_dim,
                             const std::vector<int>& mlp_hidden,
                             const std::vector<int>& cell_blocks = {});

  /// Human-readable one-liner ("M2[conv 8-16x2-32]").
  std::string summary() const;

  /// Text round-trip serialization.
  std::string serialize() const;
  static ModelSpec deserialize(const std::string& text);

  bool operator==(const ModelSpec&) const = default;
};

/// Parameter count of each Cell, given the widths feeding into it (stem and
/// preceding cells). Matches Model::cell_params() exactly; used by
/// similarity scoring without having to instantiate weights.
std::vector<std::int64_t> cell_param_counts(const ModelSpec& spec);

/// Parameter count of the whole Model built from `spec` — the stem, every
/// Cell and the classifier — without building it. Counted in double, so a
/// corrupt spec's sizes cannot overflow it (exact below 2^53).
double model_param_count(const ModelSpec& spec);

}  // namespace fedtrans
