#include "baselines/hetero_fl.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "model/align.hpp"

namespace fedtrans {

HeteroFLStrategy::HeteroFLStrategy(ModelSpec full_spec,
                                   std::vector<double> width_ratios)
    : full_spec_(std::move(full_spec)),
      width_ratios_(std::move(width_ratios)) {
  FT_CHECK_MSG(!width_ratios_.empty() && width_ratios_.front() == 1.0,
               "width ratios must start at 1.0");
}

void HeteroFLStrategy::attach(RoundContext& ctx, Rng& rng) {
  fleet_ = &ctx.fleet;
  global_ = std::make_unique<Model>(full_spec_, rng);
  for (double r : width_ratios_) {
    level_specs_.push_back(scale_widths(full_spec_, r));
    Rng tmp = rng.fork();
    Model probe(level_specs_.back(), tmp);
    level_macs_.push_back(static_cast<double>(probe.macs()));
    level_bytes_.push_back(static_cast<double>(probe.param_bytes()));
  }
}

int HeteroFLStrategy::level_for(int client) const {
  const double cap =
      (*fleet_)[static_cast<std::size_t>(client)].capacity_macs;
  for (std::size_t lvl = 0; lvl < level_macs_.size(); ++lvl)
    if (level_macs_[lvl] <= cap) return static_cast<int>(lvl);
  return static_cast<int>(level_macs_.size()) - 1;  // weakest level
}

Model HeteroFLStrategy::submodel(int level) {
  Rng tmp(0xfeedULL + static_cast<std::uint64_t>(level));
  Model sub(level_specs_[static_cast<std::size_t>(level)], tmp);
  copy_overlap(sub, *global_);
  return sub;
}

std::vector<ClientTask> HeteroFLStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);
  for (ClientTask& t : tasks) t.tag = level_for(t.client);

  WeightSet global_w = global_->weights();
  acc_ = ws_zeros_like(global_w);
  wsum_ = ws_zeros_like(global_w);
  gidx_ = param_index(*global_);
  loss_sum_ = 0.0;
  slowest_ = 0.0;
  round_tasks_ = tasks.size();
  return tasks;
}

Model HeteroFLStrategy::client_payload(const ClientTask& task) {
  return submodel(task.tag);
}

void HeteroFLStrategy::absorb_update(const ClientTask& task, Model* trained,
                                     LocalTrainResult& res,
                                     RoundContext& ctx) {
  FT_CHECK_MSG(trained != nullptr,
               "HeteroFL absorb requires the task's payload model");
  Model& sub = *trained;
  loss_sum_ += res.avg_loss;

  // Element-wise coverage-weighted accumulation into the global model.
  auto sidx = param_index(sub);
  const float n = static_cast<float>(res.num_samples);
  for (auto& pair : align_params(*global_, sub)) {
    Tensor& a = acc_[gidx_.at(pair.dst)];
    Tensor& w = wsum_[gidx_.at(pair.dst)];
    const Tensor& d = res.delta[sidx.at(pair.src)];
    for_each_overlap(*pair.dst, *pair.src,
                     [&](std::int64_t gi, std::int64_t si) {
                       a[gi] += n * d[si];
                       w[gi] += n;
                     });
  }

  bill_trained_update(ctx, task.client,
                      static_cast<double>(sub.param_bytes()),
                      static_cast<double>(sub.macs()), res, slowest_);
}

void HeteroFLStrategy::absorb_metrics(const ClientTask& task,
                                      const LocalTrainResult& res,
                                      RoundContext& ctx) {
  const auto lvl = static_cast<std::size_t>(task.tag);
  loss_sum_ += res.avg_loss;
  bill_trained_update(ctx, task.client, level_bytes_[lvl], level_macs_[lvl],
                      res, slowest_);
}

void HeteroFLStrategy::absorb_reduced(const ClientTask&, Model* payload,
                                      WeightSet& sum, double weight, int,
                                      RoundContext&) {
  // One overlap walk per capacity level: the group's submodels are
  // structurally identical, so the pre-summed delta and weight total fold
  // into the global crop exactly where each member's update would have.
  FT_CHECK_MSG(payload != nullptr,
               "HeteroFL absorb_reduced requires the level's payload model");
  Model& sub = *payload;
  auto sidx = param_index(sub);
  const float w = static_cast<float>(weight);
  for (auto& pair : align_params(*global_, sub)) {
    Tensor& a = acc_[gidx_.at(pair.dst)];
    Tensor& ws = wsum_[gidx_.at(pair.dst)];
    const Tensor& d = sum[sidx.at(pair.src)];
    for_each_overlap(*pair.dst, *pair.src,
                     [&](std::int64_t gi, std::int64_t si) {
                       a[gi] += d[si];
                       ws[gi] += w;
                     });
  }
}

void HeteroFLStrategy::lost_update(const ClientTask& task,
                                   ClientOutcome outcome, RoundContext& ctx) {
  const auto lvl = static_cast<std::size_t>(task.tag);
  bill_lost_update(ctx, outcome, level_bytes_[lvl], level_macs_[lvl]);
}

void HeteroFLStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  (void)ctx;
  WeightSet global_w = global_->weights();
  for (std::size_t p = 0; p < global_w.size(); ++p)
    for (std::int64_t e = 0; e < global_w[p].numel(); ++e)
      if (wsum_[p][e] > 0.0f) global_w[p][e] -= acc_[p][e] / wsum_[p][e];
  global_->set_weights(global_w);

  rec.avg_loss = round_tasks_ == 0
                     ? 0.0
                     : loss_sum_ / static_cast<double>(round_tasks_);
  rec.round_time_s = slowest_;
}

double HeteroFLStrategy::probe_accuracy(const std::vector<int>& ids,
                                        RoundContext& ctx) {
  double s = 0.0;
  for (int c : ids) {
    Model sub = submodel(level_for(c));
    s += evaluate_accuracy(sub, ctx.data.client(c));
  }
  return s / static_cast<double>(ids.size());
}

}  // namespace fedtrans
