#include "baselines/robust.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace fedtrans {

namespace {

/// ⌈fraction·n⌉ with a tolerance against binary-fraction dust (0.2·5 must
/// trim 1, not 2), clamped so at least one update survives per side.
int trim_count(double fraction, int n) {
  const int k = static_cast<int>(
      std::ceil(fraction * static_cast<double>(n) - 1e-9));
  return std::clamp(k, 0, (n - 1) / 2);
}

void check_same_shapes(const std::vector<WeightSet>& deltas) {
  FT_CHECK_MSG(!deltas.empty(), "robust reducer needs at least one update");
  for (const WeightSet& d : deltas) {
    FT_CHECK_MSG(d.size() == deltas.front().size(),
                 "robust reducer: mismatched update structure");
    for (std::size_t p = 0; p < d.size(); ++p)
      FT_CHECK(d[p].numel() == deltas.front()[p].numel());
  }
}

/// Unweighted linear fold — the trim=0 fast path, arithmetic-identical to
/// FedAvg's reduction with unit weights (ws_axpy per update, one scale).
WeightSet unweighted_mean(const std::vector<WeightSet>& deltas) {
  WeightSet acc = ws_zeros_like(deltas.front());
  for (const WeightSet& d : deltas) ws_axpy(acc, 1.0f, d);
  ws_scale(acc, static_cast<float>(1.0 / static_cast<double>(deltas.size())));
  return acc;
}

}  // namespace

WeightSet robust_coordinate_median(const std::vector<WeightSet>& deltas) {
  check_same_shapes(deltas);
  const std::size_t n = deltas.size();
  WeightSet out = ws_zeros_like(deltas.front());
  std::vector<float> vals(n);
  for (std::size_t p = 0; p < out.size(); ++p) {
    for (std::int64_t e = 0; e < out[p].numel(); ++e) {
      for (std::size_t i = 0; i < n; ++i) vals[i] = deltas[i][p][e];
      std::sort(vals.begin(), vals.end());
      out[p][e] = (n % 2 == 1)
                      ? vals[n / 2]
                      : 0.5f * (vals[n / 2 - 1] + vals[n / 2]);
    }
  }
  return out;
}

WeightSet robust_trimmed_mean(const std::vector<WeightSet>& deltas,
                              double trim_fraction) {
  check_same_shapes(deltas);
  const int n = static_cast<int>(deltas.size());
  const int k = trim_count(trim_fraction, n);
  if (k == 0) return unweighted_mean(deltas);

  WeightSet out = ws_zeros_like(deltas.front());
  std::vector<float> vals(static_cast<std::size_t>(n));
  const float inv = static_cast<float>(1.0 / static_cast<double>(n - 2 * k));
  for (std::size_t p = 0; p < out.size(); ++p) {
    for (std::int64_t e = 0; e < out[p].numel(); ++e) {
      for (int i = 0; i < n; ++i)
        vals[static_cast<std::size_t>(i)] = deltas[static_cast<std::size_t>(i)][p][e];
      std::sort(vals.begin(), vals.end());
      float sum = 0.0f;  // sorted-order summation: permutation-invariant
      for (int i = k; i < n - k; ++i) sum += vals[static_cast<std::size_t>(i)];
      out[p][e] = sum * inv;
    }
  }
  return out;
}

WeightSet robust_norm_clip(const std::vector<WeightSet>& deltas,
                           double trim_fraction, double clip_multiplier) {
  check_same_shapes(deltas);
  const int n = static_cast<int>(deltas.size());
  const int f = std::clamp(
      static_cast<int>(std::ceil(trim_fraction * static_cast<double>(n) -
                                 1e-9)),
      0, n - 1);

  // Krum-style outlier scoring: summed squared distance to the q closest
  // neighbors (q = n − f − 2, the honest-cluster size under f attackers).
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  if (f > 0 && n > 1) {
    std::vector<std::vector<double>> d2(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(n), 0.0));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double s = 0.0;
        const WeightSet& a = deltas[static_cast<std::size_t>(i)];
        const WeightSet& b = deltas[static_cast<std::size_t>(j)];
        for (std::size_t p = 0; p < a.size(); ++p)
          for (std::int64_t e = 0; e < a[p].numel(); ++e) {
            const double diff = static_cast<double>(a[p][e]) -
                                static_cast<double>(b[p][e]);
            s += diff * diff;
          }
        d2[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = s;
        d2[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = s;
      }
    }
    const int q = std::clamp(n - f - 2, 1, n - 1);
    std::vector<double> score(static_cast<std::size_t>(n), 0.0);
    std::vector<double> row;
    for (int i = 0; i < n; ++i) {
      row.clear();
      for (int j = 0; j < n; ++j)
        if (j != i)
          row.push_back(d2[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)]);
      std::sort(row.begin(), row.end());
      for (int j = 0; j < q; ++j)
        score[static_cast<std::size_t>(i)] += row[static_cast<std::size_t>(j)];
    }
    // Ascending score, index as the deterministic tie-break; the f highest
    // scorers (most outlying) are dropped.
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const double sa = score[static_cast<std::size_t>(a)];
      const double sb = score[static_cast<std::size_t>(b)];
      if (sa != sb) return sa < sb;
      return a < b;
    });
    order.resize(static_cast<std::size_t>(n - f));
    std::sort(order.begin(), order.end());
  }

  // Norm clipping over the survivors: clip to multiplier × median norm.
  std::vector<double> norms;
  norms.reserve(order.size());
  for (int i : order)
    norms.push_back(ws_l2_norm(deltas[static_cast<std::size_t>(i)]));
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t m = sorted.size();
  const double median_norm = (m % 2 == 1)
                                 ? sorted[m / 2]
                                 : 0.5 * (sorted[m / 2 - 1] + sorted[m / 2]);
  const double radius = clip_multiplier * median_norm;

  WeightSet acc = ws_zeros_like(deltas.front());
  for (std::size_t s = 0; s < order.size(); ++s) {
    const double norm = norms[s];
    const double factor = (norm > radius && norm > 0.0) ? radius / norm : 1.0;
    ws_axpy(acc, static_cast<float>(factor),
            deltas[static_cast<std::size_t>(order[s])]);
  }
  ws_scale(acc,
           static_cast<float>(1.0 / static_cast<double>(order.size())));
  return acc;
}

RobustStrategy::RobustStrategy(Model init, RobustConfig cfg)
    : model_(std::move(init)), cfg_(cfg) {
  FT_CHECK_MSG(cfg_.trim_fraction >= 0.0 && cfg_.trim_fraction < 0.5,
               "RobustConfig.trim_fraction must be in [0, 0.5) — trimming "
               "half or more per side leaves no survivors");
  FT_CHECK_MSG(cfg_.clip_multiplier > 0.0,
               "RobustConfig.clip_multiplier must be positive");
}

std::string RobustStrategy::name() const {
  switch (cfg_.aggregator) {
    case RobustAggregator::TrimmedMean:
      return "trimmed-mean";
    case RobustAggregator::NormClip:
      return "norm-clip";
    case RobustAggregator::CoordinateMedian:
      break;
  }
  return "robust-median";
}

std::vector<ClientTask> RobustStrategy::plan_round(RoundContext& ctx,
                                                   Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);  // uniform selection
  global_ = model_.weights();
  deltas_.clear();
  loss_sum_ = 0.0;
  return tasks;
}

Model RobustStrategy::client_payload(const ClientTask&) { return model_; }

void RobustStrategy::absorb_update(const ClientTask&, Model*,
                                   LocalTrainResult& res, RoundContext&) {
  if (!ws_all_finite(res.delta) || !std::isfinite(res.avg_loss)) {
    // NaN/Inf-poisoned update: keep it out of the aggregate and the round
    // loss — a single NaN would otherwise propagate through every
    // coordinate of the global model.
    ++total_rejected_;
    static Counter rejected("fedtrans_robust_rejected_total");
    rejected.inc();
    return;
  }
  loss_sum_ += res.avg_loss;
  deltas_.push_back(std::move(res.delta));
}

void RobustStrategy::finish_round(RoundContext&, RoundRecord& rec) {
  if (!deltas_.empty()) {
    WeightSet agg;
    switch (cfg_.aggregator) {
      case RobustAggregator::TrimmedMean:
        agg = robust_trimmed_mean(deltas_, cfg_.trim_fraction);
        break;
      case RobustAggregator::NormClip:
        agg = robust_norm_clip(deltas_, cfg_.trim_fraction,
                               cfg_.clip_multiplier);
        break;
      case RobustAggregator::CoordinateMedian:
        agg = robust_coordinate_median(deltas_);
        break;
    }
    if (!server_opt_) server_opt_ = make_server_opt(ServerOptKind::FedAvg);
    server_opt_->apply(global_, agg);
    model_.set_weights(global_);
  }
  rec.avg_loss = deltas_.empty()
                     ? 0.0
                     : loss_sum_ / static_cast<double>(deltas_.size());
  deltas_.clear();
}

}  // namespace fedtrans
