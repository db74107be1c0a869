#include "baselines/split_mix.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "model/align.hpp"
#include "nn/loss.hpp"

namespace fedtrans {

SplitMixStrategy::SplitMixStrategy(ModelSpec full_spec, int num_bases)
    : full_spec_(std::move(full_spec)), requested_bases_(num_bases) {
  FT_CHECK(requested_bases_ >= 1);
}

void SplitMixStrategy::attach(RoundContext& ctx, Rng& rng) {
  fleet_ = &ctx.fleet;
  const ModelSpec base_spec =
      scale_widths(full_spec_, 1.0 / static_cast<double>(requested_bases_));
  for (int i = 0; i < requested_bases_; ++i)
    bases_.push_back(std::make_unique<Model>(base_spec, rng));
  base_macs_ = static_cast<double>(bases_.front()->macs());
}

int SplitMixStrategy::budget_for(int client) const {
  const double cap =
      (*fleet_)[static_cast<std::size_t>(client)].capacity_macs;
  const int m = static_cast<int>(cap / base_macs_);
  return std::clamp(m, 1, num_bases());
}

std::vector<ClientTask> SplitMixStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  auto selected = ctx.selector.select(ctx.data.num_clients(),
                                      ctx.session.clients_per_round, rng);

  // One task per (client, base) pair, client-major — the same order the
  // legacy nested loop trained (and forked Rngs) in. The client's t-th
  // base rotates with the round so every base sees diverse clients.
  std::vector<ClientTask> tasks;
  for (int c : selected) {
    const int m = budget_for(c);
    for (int t = 0; t < m; ++t)
      tasks.push_back(ClientTask{c, (c + ctx.round + t) % num_bases()});
  }

  acc_.assign(static_cast<std::size_t>(num_bases()), WeightSet{});
  wsum_.assign(static_cast<std::size_t>(num_bases()), 0.0);
  return tasks;
}

Model SplitMixStrategy::client_payload(const ClientTask& task) {
  return *bases_[static_cast<std::size_t>(task.tag)];
}

void SplitMixStrategy::fold(const ClientTask& task, Model*,
                            const WeightSet& delta, double delta_scale,
                            double weight, RoundContext&) {
  const auto b = static_cast<std::size_t>(task.tag);
  if (acc_[b].empty()) acc_[b] = ws_zeros_like(delta);
  ws_axpy(acc_[b], static_cast<float>(delta_scale), delta);
  wsum_[b] += weight;
}

void SplitMixStrategy::finish_round(RoundContext&, RoundRecord&) {
  for (int b = 0; b < num_bases(); ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (wsum_[bi] <= 0.0) continue;
    ws_scale(acc_[bi], static_cast<float>(1.0 / wsum_[bi]));
    Model& base = *bases_[bi];
    WeightSet w = base.weights();
    ws_sub(w, acc_[bi]);
    base.set_weights(w);
  }
}

double SplitMixStrategy::deployed_accuracy(int client,
                                           const ClientData& data) {
  const int n = data.eval_size();
  if (n == 0) return 0.0;
  Tensor sum_logits;
  for (int t = 0; t < budget_for(client); ++t) {
    Model base = *bases_[static_cast<std::size_t>((client + t) % num_bases())];
    Tensor logits = base.forward(data.x_eval, false);
    if (t == 0)
      sum_logits = std::move(logits);
    else
      sum_logits.add_(logits);
  }
  return static_cast<double>(count_correct(sum_logits, data.y_eval)) / n;
}

}  // namespace fedtrans
