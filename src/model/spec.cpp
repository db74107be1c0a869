#include "model/spec.hpp"

#include <sstream>

#include "common/check.hpp"

namespace fedtrans {

namespace {
const char* kind_name(CellKind k) {
  switch (k) {
    case CellKind::Conv: return "conv";
    case CellKind::Mlp: return "mlp";
    case CellKind::Attention: return "attention";
  }
  return "?";
}

CellKind parse_kind(const std::string& s) {
  if (s == "conv") return CellKind::Conv;
  if (s == "mlp") return CellKind::Mlp;
  if (s == "attention") return CellKind::Attention;
  throw Error("unknown cell kind: " + s);
}

/// Parameters of one block of `kind` mapping `in_w` features to `w`.
double block_params(const ModelSpec& spec, CellKind kind, double in_w,
                    double w) {
  switch (kind) {
    case CellKind::Conv:
      return w * in_w * 9 + 3 * w;  // conv weight + bias + scale/shift
    case CellKind::Mlp:
      return w * in_w + w;
    case CellKind::Attention: {
      // Wq/Wk/Wv/Wo + biases, then MLP D->w->D with biases.
      const double d = spec.embed_dim;
      return 4 * d * d + 4 * d + 2 * d * w + w + d;
    }
  }
  return 0.0;
}

/// Parameters of Cell `c` whose first block reads `in_w` features.
double cell_params(const ModelSpec& spec, const CellSpec& c, double in_w) {
  if (c.blocks < 1) return 0.0;
  return block_params(spec, c.kind, in_w, c.width) +
         (c.blocks - 1) * block_params(spec, c.kind, c.width, c.width);
}
}  // namespace

ModelSpec ModelSpec::conv(int in_channels, int in_hw, int num_classes,
                          int stem_width, const std::vector<int>& cell_widths,
                          const std::vector<int>& cell_blocks,
                          const std::vector<int>& strides) {
  FT_CHECK(!cell_widths.empty());
  ModelSpec s;
  s.kind = CellKind::Conv;
  s.in_channels = in_channels;
  s.in_hw = in_hw;
  s.num_classes = num_classes;
  s.stem_width = stem_width;
  for (std::size_t i = 0; i < cell_widths.size(); ++i) {
    CellSpec c;
    c.kind = CellKind::Conv;
    c.width = cell_widths[i];
    c.blocks = i < cell_blocks.size() ? cell_blocks[i] : 1;
    c.stride = i < strides.size() ? strides[i] : 1;
    c.residual = true;
    c.id = s.fresh_cell_id();
    s.cells.push_back(c);
  }
  return s;
}

ModelSpec ModelSpec::mlp(int in_features, int num_classes, int stem_width,
                         const std::vector<int>& cell_widths,
                         const std::vector<int>& cell_blocks) {
  FT_CHECK(!cell_widths.empty());
  ModelSpec s;
  s.kind = CellKind::Mlp;
  s.in_channels = in_features;
  s.in_hw = 1;
  s.num_classes = num_classes;
  s.stem_width = stem_width;
  for (std::size_t i = 0; i < cell_widths.size(); ++i) {
    CellSpec c;
    c.kind = CellKind::Mlp;
    c.width = cell_widths[i];
    c.blocks = i < cell_blocks.size() ? cell_blocks[i] : 1;
    c.residual = true;
    c.id = s.fresh_cell_id();
    s.cells.push_back(c);
  }
  return s;
}

ModelSpec ModelSpec::attention(int in_channels, int in_hw, int num_classes,
                               int patch, int embed_dim,
                               const std::vector<int>& mlp_hidden,
                               const std::vector<int>& cell_blocks) {
  FT_CHECK(!mlp_hidden.empty());
  FT_CHECK_MSG(in_hw % patch == 0, "in_hw must be divisible by patch size");
  ModelSpec s;
  s.kind = CellKind::Attention;
  s.in_channels = in_channels;
  s.in_hw = in_hw;
  s.num_classes = num_classes;
  s.patch = patch;
  s.embed_dim = embed_dim;
  s.stem_width = embed_dim;
  for (std::size_t i = 0; i < mlp_hidden.size(); ++i) {
    CellSpec c;
    c.kind = CellKind::Attention;
    c.width = mlp_hidden[i];
    c.blocks = i < cell_blocks.size() ? cell_blocks[i] : 1;
    c.residual = true;
    c.id = s.fresh_cell_id();
    s.cells.push_back(c);
  }
  return s;
}

std::string ModelSpec::summary() const {
  std::ostringstream os;
  os << name << "[" << kind_name(kind) << " ";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os << "-";
    os << cells[i].width;
    if (cells[i].blocks > 1) os << "x" << cells[i].blocks;
    if (cells[i].stride > 1) os << "s" << cells[i].stride;
  }
  os << "]";
  return os.str();
}

std::string ModelSpec::serialize() const {
  std::ostringstream os;
  os << "fedtrans-spec v1\n";
  os << "name " << name << "\n";
  os << "ids " << model_id << " " << parent_id << " " << next_cell_id << "\n";
  os << "kind " << kind_name(kind) << "\n";
  os << "input " << in_channels << " " << in_hw << " " << num_classes << "\n";
  os << "stem " << stem_width << " " << patch << " " << embed_dim << "\n";
  os << "cells " << cells.size() << "\n";
  for (const auto& c : cells) {
    os << "cell " << kind_name(c.kind) << " " << c.width << " " << c.blocks
       << " " << c.stride << " " << (c.residual ? 1 : 0) << " " << c.id << " "
       << (c.widened_last ? 1 : 0) << "\n";
  }
  return os.str();
}

ModelSpec ModelSpec::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string tok, version;
  ModelSpec s;
  is >> tok >> version;
  FT_CHECK_MSG(tok == "fedtrans-spec" && version == "v1",
               "unrecognized spec header");
  std::size_t n_cells = 0;
  std::string kind_s;
  while (is >> tok) {
    if (tok == "name") {
      is >> s.name;
    } else if (tok == "ids") {
      is >> s.model_id >> s.parent_id >> s.next_cell_id;
    } else if (tok == "kind") {
      is >> kind_s;
      s.kind = parse_kind(kind_s);
    } else if (tok == "input") {
      is >> s.in_channels >> s.in_hw >> s.num_classes;
    } else if (tok == "stem") {
      is >> s.stem_width >> s.patch >> s.embed_dim;
    } else if (tok == "cells") {
      is >> n_cells;
    } else if (tok == "cell") {
      CellSpec c;
      int residual = 0, widened = 0;
      is >> kind_s >> c.width >> c.blocks >> c.stride >> residual >> c.id >>
          widened;
      c.kind = parse_kind(kind_s);
      c.residual = residual != 0;
      c.widened_last = widened != 0;
      s.cells.push_back(c);
    } else {
      throw Error("unknown spec token: " + tok);
    }
  }
  FT_CHECK_MSG(s.cells.size() == n_cells, "cell count mismatch in spec");
  // Every size shapes a tensor or a layer of the Model built from it.
  bool positive = s.in_channels > 0 && s.in_hw > 0 && s.num_classes > 0 &&
                  s.stem_width > 0 && s.patch > 0 && s.embed_dim > 0;
  for (const CellSpec& c : s.cells)
    positive = positive && c.width > 0 && c.blocks > 0 && c.stride > 0;
  FT_CHECK_MSG(positive, "non-positive size in spec");
  return s;
}

std::vector<std::int64_t> cell_param_counts(const ModelSpec& spec) {
  std::vector<std::int64_t> counts;
  counts.reserve(spec.cells.size());
  double prev_w = spec.kind == CellKind::Attention ? spec.embed_dim
                                                   : spec.stem_width;
  for (const auto& c : spec.cells) {
    counts.push_back(static_cast<std::int64_t>(cell_params(spec, c, prev_w)));
    if (c.kind != CellKind::Attention) prev_w = c.width;
  }
  return counts;
}

double model_param_count(const ModelSpec& spec) {
  const bool attention = spec.kind == CellKind::Attention;
  const double in_f = spec.kind == CellKind::Mlp
                          ? static_cast<double>(spec.in_channels) *
                                spec.in_hw * spec.in_hw
                          : spec.in_channels;
  // The stem: a block into stem_width, or the patch-embedding conv.
  double n = attention
                 ? spec.embed_dim * (in_f * spec.patch * spec.patch + 1)
                 : block_params(spec, spec.kind, in_f, spec.stem_width);
  double prev_w = attention ? spec.embed_dim : spec.stem_width;
  for (const auto& c : spec.cells) {
    n += cell_params(spec, c, prev_w);
    if (c.kind != CellKind::Attention) prev_w = c.width;
  }
  return n + (prev_w + 1) * spec.num_classes;  // the classifier
}

}  // namespace fedtrans
