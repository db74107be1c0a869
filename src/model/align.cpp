#include "model/align.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/check.hpp"

namespace fedtrans {

namespace {
void match_blocks(Block& dst, Block& src, std::vector<AlignedPair>& out) {
  auto dp = dst.params();
  auto sp = src.params();
  const std::size_t n = std::min(dp.size(), sp.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (dp[i].value->ndim() != sp[i].value->ndim()) continue;
    out.push_back({dp[i].value, sp[i].value});
  }
}
}  // namespace

std::vector<AlignedPair> align_params(Model& dst, Model& src) {
  std::vector<AlignedPair> pairs;
  match_blocks(dst.stem(), src.stem(), pairs);

  std::unordered_map<std::uint64_t, int> src_cell_by_id;
  for (int i = 0; i < src.num_cells(); ++i)
    src_cell_by_id[src.spec().cells[static_cast<std::size_t>(i)].id] = i;

  for (int j = 0; j < dst.num_cells(); ++j) {
    auto it = src_cell_by_id.find(
        dst.spec().cells[static_cast<std::size_t>(j)].id);
    if (it == src_cell_by_id.end()) continue;
    const int i = it->second;
    const int blocks = std::min(dst.blocks_in_cell(j), src.blocks_in_cell(i));
    for (int b = 0; b < blocks; ++b)
      match_blocks(dst.cell_block(j, b), src.cell_block(i, b), pairs);
  }

  auto dcp = dst.classifier().params();
  auto scp = src.classifier().params();
  const std::size_t n = std::min(dcp.size(), scp.size());
  for (std::size_t i = 0; i < n; ++i)
    pairs.push_back({dcp[i].value, scp[i].value});
  return pairs;
}

void for_each_overlap(
    const Tensor& a, const Tensor& b,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  FT_CHECK_MSG(a.ndim() == b.ndim(), "overlap requires equal rank");
  const int nd = a.ndim();
  std::vector<int> lim(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d)
    lim[static_cast<std::size_t>(d)] = std::min(a.dim(d), b.dim(d));

  // Iterative odometer over the overlap region, tracking both flat indices.
  std::vector<int> idx(static_cast<std::size_t>(nd), 0);
  while (true) {
    std::int64_t ai = 0, bi = 0;
    for (int d = 0; d < nd; ++d) {
      ai = ai * a.dim(d) + idx[static_cast<std::size_t>(d)];
      bi = bi * b.dim(d) + idx[static_cast<std::size_t>(d)];
    }
    fn(ai, bi);
    int d = nd - 1;
    while (d >= 0) {
      if (++idx[static_cast<std::size_t>(d)] <
          lim[static_cast<std::size_t>(d)])
        break;
      idx[static_cast<std::size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
}

std::unordered_map<const Tensor*, std::size_t> param_index(Model& m) {
  std::unordered_map<const Tensor*, std::size_t> idx;
  auto ps = m.params();
  idx.reserve(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) idx[ps[i].value] = i;
  return idx;
}

ModelSpec scale_widths(const ModelSpec& full, double ratio) {
  FT_CHECK(ratio > 0.0 && ratio <= 1.0);
  ModelSpec s = full;
  auto scaled = [&](int w) {
    return std::max(1, static_cast<int>(std::lround(w * ratio)));
  };
  s.stem_width = scaled(full.stem_width);
  for (auto& c : s.cells) c.width = scaled(c.width);
  s.name = full.name + "@" + std::to_string(ratio);
  return s;
}

}  // namespace fedtrans
