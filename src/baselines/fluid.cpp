#include "baselines/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "model/align.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/scale_shift.hpp"

namespace fedtrans {

namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

int kept_count(int width, double ratio) {
  return std::max(1, static_cast<int>(std::lround(width * ratio)));
}

/// Visit every element pair (full_tensor, fi) <-> (sub_tensor, si) linked by
/// the kept-channel maps. kept[0] = stem channels, kept[1+l] = cell l.
template <typename Fn>
void for_each_mapped_pair(Model& full, Model& sub,
                          const std::vector<std::vector<int>>& kept, Fn&& fn) {
  auto map_conv = [&](Conv2d& fc, Conv2d& sc, const std::vector<int>& om,
                      const std::vector<int>& im) {
    const int so = sc.out_channels(), si = sc.in_channels(), k = sc.kernel();
    const int fin = fc.in_channels();
    for (int jo = 0; jo < so; ++jo)
      for (int ji = 0; ji < si; ++ji)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx) {
            const std::int64_t f =
                ((static_cast<std::int64_t>(om[static_cast<std::size_t>(jo)]) *
                      fin +
                  im[static_cast<std::size_t>(ji)]) *
                     k +
                 ky) *
                    k +
                kx;
            const std::int64_t s =
                ((static_cast<std::int64_t>(jo) * si + ji) * k + ky) * k + kx;
            fn(fc.weight(), sc.weight(), f, s);
          }
    for (int jo = 0; jo < so; ++jo)
      fn(fc.bias(), sc.bias(), om[static_cast<std::size_t>(jo)], jo);
  };
  auto map_ss = [&](ScaleShift& fs, ScaleShift& ss,
                    const std::vector<int>& om) {
    for (int jo = 0; jo < ss.channels(); ++jo) {
      fn(fs.scale(), ss.scale(), om[static_cast<std::size_t>(jo)], jo);
      fn(fs.shift(), ss.shift(), om[static_cast<std::size_t>(jo)], jo);
    }
  };

  // Stem: out channels subset, input channels identity.
  {
    auto* fc = dynamic_cast<Conv2d*>(&full.stem().layer(0));
    auto* sc = dynamic_cast<Conv2d*>(&sub.stem().layer(0));
    auto* fs = dynamic_cast<ScaleShift*>(&full.stem().layer(1));
    auto* ss = dynamic_cast<ScaleShift*>(&sub.stem().layer(1));
    FT_CHECK_MSG(fc && sc && fs && ss, "FLuID requires Conv-cell models");
    map_conv(*fc, *sc, kept[0], iota_vec(fc->in_channels()));
    map_ss(*fs, *ss, kept[0]);
  }
  for (int l = 0; l < full.num_cells(); ++l) {
    const auto& out_map = kept[static_cast<std::size_t>(l) + 1];
    for (int b = 0; b < full.blocks_in_cell(l); ++b) {
      const auto& in_map =
          b == 0 ? kept[static_cast<std::size_t>(l)] : out_map;
      auto* fc = dynamic_cast<Conv2d*>(&full.cell_block(l, b).layer(0));
      auto* sc = dynamic_cast<Conv2d*>(&sub.cell_block(l, b).layer(0));
      auto* fs = dynamic_cast<ScaleShift*>(&full.cell_block(l, b).layer(1));
      auto* ss = dynamic_cast<ScaleShift*>(&sub.cell_block(l, b).layer(1));
      FT_CHECK(fc && sc && fs && ss);
      map_conv(*fc, *sc, out_map, in_map);
      map_ss(*fs, *ss, out_map);
    }
  }
  {
    auto* fcls = dynamic_cast<Linear*>(&full.classifier());
    auto* scls = dynamic_cast<Linear*>(&sub.classifier());
    FT_CHECK(fcls && scls);
    const auto& in_map = kept.back();
    for (int o = 0; o < scls->out_features(); ++o) {
      for (int ji = 0; ji < scls->in_features(); ++ji) {
        const std::int64_t f =
            static_cast<std::int64_t>(o) * fcls->in_features() +
            in_map[static_cast<std::size_t>(ji)];
        const std::int64_t s =
            static_cast<std::int64_t>(o) * scls->in_features() + ji;
        fn(fcls->weight(), scls->weight(), f, s);
      }
      fn(fcls->bias(), scls->bias(), o, o);
    }
  }
}

}  // namespace

FluidStrategy::FluidStrategy(ModelSpec full_spec)
    : full_spec_(std::move(full_spec)) {
  FT_CHECK_MSG(full_spec_.kind == CellKind::Conv,
               "FLuID runner supports Conv-cell models");
}

void FluidStrategy::attach(RoundContext& ctx, Rng& rng) {
  fleet_ = &ctx.fleet;
  global_ = std::make_unique<Model>(full_spec_, rng);

  score_.emplace_back(static_cast<std::size_t>(full_spec_.stem_width), 0.0);
  for (const auto& c : full_spec_.cells)
    score_.emplace_back(static_cast<std::size_t>(c.width), 0.0);

  for (double r = 1.0; r > 0.05; r -= 0.1) ratio_grid_.push_back(r);
  for (double r : ratio_grid_) {
    Rng tmp(17);
    Model probe(scale_widths(full_spec_, r), tmp);
    ratio_macs_.push_back(static_cast<double>(probe.macs()));
    ratio_bytes_.push_back(static_cast<double>(probe.param_bytes()));
  }
}

std::size_t FluidStrategy::ratio_index_for(int client) const {
  const double cap =
      (*fleet_)[static_cast<std::size_t>(client)].capacity_macs;
  for (std::size_t i = 0; i < ratio_grid_.size(); ++i)
    if (ratio_macs_[i] <= cap) return i;
  return ratio_grid_.size() - 1;
}

double FluidStrategy::ratio_for(int client) const {
  return ratio_grid_[ratio_index_for(client)];
}

std::vector<std::vector<int>> FluidStrategy::kept_for_ratio(
    double ratio) const {
  std::vector<std::vector<int>> kept;
  kept.reserve(score_.size());
  for (const auto& unit : score_) {
    const int width = static_cast<int>(unit.size());
    const int count = kept_count(width, ratio);
    auto order = iota_vec(width);
    // Keep the most *dynamic* neurons (largest update magnitude); stable
    // sort keeps a deterministic prefix before any updates arrive.
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return unit[static_cast<std::size_t>(a)] >
             unit[static_cast<std::size_t>(b)];
    });
    order.resize(static_cast<std::size_t>(count));
    std::sort(order.begin(), order.end());
    kept.push_back(std::move(order));
  }
  return kept;
}

Model FluidStrategy::extract(const std::vector<std::vector<int>>& kept) {
  ModelSpec sub_spec = global_->spec();
  sub_spec.stem_width = static_cast<int>(kept[0].size());
  for (std::size_t l = 0; l < sub_spec.cells.size(); ++l)
    sub_spec.cells[l].width = static_cast<int>(kept[l + 1].size());
  Rng tmp(23);
  Model sub(sub_spec, tmp);
  for_each_mapped_pair(*global_, sub, kept,
                       [](Tensor& ft, Tensor& st, std::int64_t fi,
                          std::int64_t si) { st[si] = ft[fi]; });
  return sub;
}

void FluidStrategy::update_scores(const WeightSet& agg_delta) {
  auto fidx = param_index(*global_);
  auto accumulate_unit = [&](Conv2d& conv, std::vector<double>& unit) {
    const Tensor& dw = agg_delta[fidx.at(&conv.weight())];
    const Tensor& db = agg_delta[fidx.at(&conv.bias())];
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
  accumulate_unit(*dynamic_cast<Conv2d*>(&global_->stem().layer(0)),
                  score_[0]);
  for (int l = 0; l < global_->num_cells(); ++l)
    for (int b = 0; b < global_->blocks_in_cell(l); ++b)
      accumulate_unit(
          *dynamic_cast<Conv2d*>(&global_->cell_block(l, b).layer(0)),
          score_[static_cast<std::size_t>(l) + 1]);
}

std::vector<ClientTask> FluidStrategy::plan_round(RoundContext& ctx,
                                                  Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);
  WeightSet global_w = global_->weights();
  acc_ = ws_zeros_like(global_w);
  wsum_ = ws_zeros_like(global_w);
  fidx_ = param_index(*global_);  // global_ is stable until finish_round
  loss_sum_ = 0.0;
  slowest_ = 0.0;
  round_tasks_ = tasks.size();
  return tasks;
}

Model FluidStrategy::client_payload(const ClientTask& task) {
  return extract(kept_for_ratio(ratio_for(task.client)));
}

void FluidStrategy::absorb_update(const ClientTask& task, Model* trained,
                                  LocalTrainResult& res, RoundContext& ctx) {
  FT_CHECK_MSG(trained != nullptr,
               "FLuID absorb requires the task's payload model");
  Model& sub = *trained;
  loss_sum_ += res.avg_loss;

  // Scores are round-stable, so the kept maps recompute identically to the
  // ones the payload was extracted with.
  const auto kept = kept_for_ratio(ratio_for(task.client));
  auto sidx = param_index(sub);
  const float n = static_cast<float>(res.num_samples);
  for_each_mapped_pair(
      *global_, sub, kept,
      [&](Tensor& ft, Tensor& st, std::int64_t fi, std::int64_t si) {
        const std::size_t ai = fidx_.at(&ft);
        acc_[ai][fi] += n * res.delta[sidx.at(&st)][si];
        wsum_[ai][fi] += n;
      });

  bill_trained_update(ctx, task.client,
                      static_cast<double>(sub.param_bytes()),
                      static_cast<double>(sub.macs()), res, slowest_);
}

void FluidStrategy::lost_update(const ClientTask& task,
                                ClientOutcome outcome, RoundContext& ctx) {
  const std::size_t i = ratio_index_for(task.client);
  bill_lost_update(ctx, outcome, ratio_bytes_[i], ratio_macs_[i]);
}

void FluidStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  (void)ctx;
  // Positional merge, then refresh the invariance scores.
  WeightSet global_w = global_->weights();
  WeightSet update = ws_zeros_like(global_w);
  for (std::size_t p = 0; p < global_w.size(); ++p)
    for (std::int64_t e = 0; e < global_w[p].numel(); ++e)
      if (wsum_[p][e] > 0.0f) update[p][e] = acc_[p][e] / wsum_[p][e];
  ws_sub(global_w, update);
  global_->set_weights(global_w);
  update_scores(update);

  rec.avg_loss = round_tasks_ == 0
                     ? 0.0
                     : loss_sum_ / static_cast<double>(round_tasks_);
  rec.round_time_s = slowest_;
}

double FluidStrategy::probe_accuracy(const std::vector<int>& ids,
                                     RoundContext& ctx) {
  double s = 0.0;
  for (int c : ids) {
    Model sub = extract(kept_for_ratio(ratio_for(c)));
    s += evaluate_accuracy(sub, ctx.data.client(c));
  }
  return s / static_cast<double>(ids.size());
}

}  // namespace fedtrans
