#include "fl/runner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "net/server.hpp"

namespace fedtrans {

FedAvgStrategy::FedAvgStrategy(Model init, FedAvgOptions opts)
    : model_(std::move(init)), opts_(opts) {
  compressor_ = make_compressor(opts_.compression, opts_.topk_ratio);
}

void FedAvgStrategy::attach(RoundContext& ctx, Rng&) {
  if (ctx.session.mode != SessionMode::Async) return;
  FT_CHECK_MSG(opts_.compression == CompressionKind::None &&
                   opts_.overcommit == 0.0 && opts_.deadline_quantile == 1.0 &&
                   !opts_.respect_capacity,
               "FedAvgOptions: compression, overcommit, deadline_quantile and "
               "respect_capacity apply only to synchronous rounds; an async "
               "(FedBuff) session cannot honour them");
  acc_ = ws_zeros_like(model_.weights());
}

std::vector<ClientTask> FedAvgStrategy::plan_round(RoundContext& ctx,
                                                   Rng& rng) {
  const SessionConfig& s = ctx.session;
  const int want =
      opts_.overcommit > 0.0
          ? static_cast<int>(std::ceil((1.0 + opts_.overcommit) *
                                       s.clients_per_round))
          : s.clients_per_round;
  auto selected = ctx.selector.select(ctx.data.num_clients(), want, rng);
  if (opts_.respect_capacity) {
    const double macs = static_cast<double>(model_.macs());
    std::erase_if(selected, [&](int c) {
      return ctx.fleet[static_cast<std::size_t>(c)].capacity_macs < macs;
    });
  }

  // Over-selection deadline: predict completion times with the ledger's
  // time function, close the round at the configured quantile, keep the k
  // fastest on-time clients in selection order (ties go to the earlier
  // pick; the fastest is kept even if every prediction missed), and drop
  // (but still bill) the rest.
  dropped_.clear();
  deadline_ = 0.0;
  if (!selected.empty() &&
      (opts_.overcommit > 0.0 || opts_.deadline_quantile < 1.0)) {
    std::vector<double> times;
    times.reserve(selected.size());
    for (int c : selected)
      times.push_back(
          task_round_time_s(s, ctx.fleet[static_cast<std::size_t>(c)], model_));
    deadline_ = percentile(times, 100.0 * opts_.deadline_quantile);
    std::vector<std::size_t> order(selected.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return times[a] < times[b];
                     });
    std::vector<bool> keep(selected.size(), false);
    for (std::size_t r = 0; r < order.size(); ++r)
      keep[order[r]] = r == 0 || (static_cast<int>(r) < s.clients_per_round &&
                                  times[order[r]] <= deadline_);
    std::vector<int> on_time;
    for (std::size_t i = 0; i < selected.size(); ++i)
      (keep[i] ? on_time : dropped_).push_back(selected[i]);
    selected = std::move(on_time);
  }

  global_ = model_.weights();
  acc_ = ws_zeros_like(global_);
  weight_sum_ = 0.0;

  std::vector<ClientTask> tasks;
  tasks.reserve(selected.size());
  for (int c : selected) tasks.push_back(ClientTask{c, 0});
  return tasks;
}

Model FedAvgStrategy::client_payload(const ClientTask&) {
  return model_;  // download the global weights
}

void FedAvgStrategy::absorb_update(const ClientTask& task, Model* trained,
                                   LocalTrainResult& res, RoundContext& ctx) {
  // Uplink compression (EF-SGD: fold in this client's residual, compress,
  // remember what was dropped for its next participation). The ledger
  // bills the compressed size.
  if (opts_.compression != CompressionKind::None) {
    if (opts_.error_feedback) ef_.add_residual(task.client, res.delta);
    const WeightSet pre = res.delta;
    compressor_->compress(res.delta);
    if (opts_.error_feedback) ef_.store_residual(task.client, pre, res.delta);
    res.uplink_bytes = compressor_->compressed_bytes(res.delta);
  }
  Strategy::absorb_update(task, trained, res, ctx);
}

void FedAvgStrategy::fold(const ClientTask&, Model*, const WeightSet& delta,
                          double delta_scale, double weight, RoundContext&) {
  ws_axpy(acc_, static_cast<float>(delta_scale), delta);
  weight_sum_ += weight;
}

void FedAvgStrategy::apply_mean() {
  ws_scale(acc_, static_cast<float>(1.0 / weight_sum_));
  if (!server_opt_) server_opt_ = make_server_opt(opts_.server_opt);
  server_opt_->apply(global_, acc_);
  model_.set_weights(global_);
}

void FedAvgStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  // Late clients trained and downloaded but never uploaded: their device
  // compute and downlink are real costs; their updates are wasted — the
  // same bill as a mid-round dropout on the fabric.
  for (std::size_t i = 0; i < dropped_.size(); ++i)
    bill_lost_update(ctx, ClientOutcome::Dropout, model_);
  if (deadline_ > 0.0)
    rec.round_time_s = std::min(rec.round_time_s, deadline_);

  if (weight_sum_ > 0.0) apply_mean();

  rec.lost_updates = static_cast<int>(dropped_.size());  // engine adds wire losses
}

std::optional<double> FedAvgStrategy::absorb_async(int client,
                                                   LocalTrainResult& res,
                                                   double discount,
                                                   RoundContext& ctx) {
  fold(ClientTask{client, 0}, nullptr, res.delta, discount, discount, ctx);
  buffer_loss_ += res.avg_loss;
  if (++buffered_ < ctx.session.async.buffer_size) return std::nullopt;

  global_ = model_.weights();
  apply_mean();
  const double avg = buffer_loss_ / buffered_;
  acc_ = ws_zeros_like(global_);
  weight_sum_ = 0.0;
  buffered_ = 0;
  buffer_loss_ = 0.0;
  return avg;
}

}  // namespace fedtrans
