#include "baselines/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "model/align.hpp"
#include "nn/conv2d.hpp"

namespace fedtrans {

namespace {

std::vector<double> ratio_grid() {
  std::vector<double> grid;
  for (double r = 1.0; r > 0.05; r -= 0.1) grid.push_back(r);
  return grid;
}

}  // namespace

FluidStrategy::FluidStrategy(ModelSpec full_spec)
    : SubmodelStrategy(std::move(full_spec), ratio_grid(),
                       /*scaled_ladder=*/false) {
  FT_CHECK_MSG(this->full_spec().kind == CellKind::Conv,
               "FLuID runner supports Conv-cell models");
  for (int w : space_widths(this->full_spec()))
    score_.emplace_back(static_cast<std::size_t>(w), 0.0);
}

void FluidStrategy::for_each_element(int, Model& sub, const ElementFn& fn) {
  const auto kept = space_widths(sub.spec());
  std::vector<std::vector<int>> channels;
  channels.reserve(score_.size());
  for (std::size_t s = 0; s < score_.size(); ++s) {
    const auto& unit = score_[s];
    std::vector<int> order(unit.size());
    std::iota(order.begin(), order.end(), 0);
    // Keep the most *dynamic* neurons (largest update magnitude); stable
    // sort keeps a deterministic prefix before any updates arrive.
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return unit[static_cast<std::size_t>(a)] >
             unit[static_cast<std::size_t>(b)];
    });
    order.resize(static_cast<std::size_t>(kept[s]));
    std::sort(order.begin(), order.end());
    channels.push_back(std::move(order));
  }
  for_each_channel_element(sub, channels, fn);
}

void FluidStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  SubmodelStrategy::finish_round(ctx, rec);
  update_scores(applied_update());
}

void FluidStrategy::update_scores(const WeightSet& update) {
  Model& g = global();
  auto fidx = param_index(g);
  auto accumulate_unit = [&](Conv2d& conv, std::vector<double>& unit) {
    const Tensor& dw = update[fidx.at(&conv.weight())];
    const Tensor& db = update[fidx.at(&conv.bias())];
    const std::int64_t row =
        static_cast<std::int64_t>(conv.in_channels()) * conv.kernel() *
        conv.kernel();
    for (int j = 0; j < conv.out_channels(); ++j) {
      double s2 = 0.0;
      for (std::int64_t e = 0; e < row; ++e) {
        const double v = dw[static_cast<std::int64_t>(j) * row + e];
        s2 += v * v;
      }
      s2 += static_cast<double>(db[j]) * db[j];
      unit[static_cast<std::size_t>(j)] =
          0.7 * unit[static_cast<std::size_t>(j)] + 0.3 * std::sqrt(s2);
    }
  };
  accumulate_unit(*dynamic_cast<Conv2d*>(&g.stem().layer(0)), score_[0]);
  for (int l = 0; l < g.num_cells(); ++l)
    for (int b = 0; b < g.blocks_in_cell(l); ++b)
      accumulate_unit(*dynamic_cast<Conv2d*>(&g.cell_block(l, b).layer(0)),
                      score_[static_cast<std::size_t>(l) + 1]);
}

}  // namespace fedtrans
