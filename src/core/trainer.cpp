#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "model/serialize.hpp"

namespace fedtrans {

FedTransStrategy::FedTransStrategy(ModelSpec initial, FedTransConfig cfg)
    : initial_spec_(std::move(initial)),
      cfg_(cfg),
      aggregator_({cfg.eta, cfg.enable_soft_agg, cfg.enable_decay,
                   cfg.enable_l2s}),
      doc_(cfg.gamma, cfg.doc_delta) {}

void FedTransStrategy::attach(RoundContext& ctx, Rng& rng) {
  data_ = &ctx.data;
  fleet_ = &ctx.fleet;

  ModelEntry entry;
  entry.model = std::make_unique<Model>(std::move(initial_spec_), rng);
  entry.id = 0;
  entry.created_round = 0;
  entry.opt = make_server_opt(cfg_.server_opt);
  models_.push_back(std::move(entry));

  std::vector<double> caps;
  caps.reserve(fleet_->size());
  for (const auto& d : *fleet_) {
    caps.push_back(d.capacity_macs);
    max_capacity_ = std::max(max_capacity_, d.capacity_macs);
  }
  cm_ = std::make_unique<ClientManager>(std::move(caps));
  cm_->add_model(models_[0].model->spec(),
                 static_cast<double>(models_[0].model->macs()), -1);
  act_ = std::make_unique<ActivenessTracker>(models_[0].model->num_cells(),
                                             cfg_.act_window);
}

std::vector<Model*> FedTransStrategy::model_ptrs() {
  std::vector<Model*> ptrs;
  ptrs.reserve(models_.size());
  for (auto& e : models_) ptrs.push_back(e.model.get());
  return ptrs;
}

std::vector<ClientTask> FedTransStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);
  const auto n_models = static_cast<std::size_t>(num_models());
  acc_.assign(n_models, WeightSet{});
  wsum_.assign(n_models, 0.0);
  loss_sum_.assign(n_models, 0.0);
  loss_cnt_.assign(n_models, 0);
  parts_.clear();
  parts_.reserve(tasks.size());
  return tasks;
}

void FedTransStrategy::prepare_task(ClientTask& task, Rng& rng,
                                    RoundContext&) {
  // Model assignment consumes the coordinator Rng in task order — the same
  // sequential pre-pass (assign, fork, assign, fork, …) the legacy trainer
  // ran, so draws stay bit-identical.
  task.tag = cm_->assign(task.client, rng);
}

Model FedTransStrategy::client_payload(const ClientTask& task) {
  return *models_[static_cast<std::size_t>(task.tag)].model;
}

void FedTransStrategy::absorb_metrics(const ClientTask& task,
                                      const LocalTrainResult& res,
                                      RoundContext&) {
  // Utility learning reads only per-client losses, which a numeric tree
  // delivers verbatim: it runs the same in every exchange mode.
  const auto k = static_cast<std::size_t>(task.tag);
  loss_sum_[k] += res.avg_loss;
  ++loss_cnt_[k];
  parts_.push_back({task.client, task.tag, res.avg_loss});
}

void FedTransStrategy::fold(const ClientTask& task, Model*,
                            const WeightSet& delta, double delta_scale,
                            double weight, RoundContext&) {
  const auto k = static_cast<std::size_t>(task.tag);
  if (acc_[k].empty()) acc_[k] = ws_zeros_like(delta);
  ws_axpy(acc_[k], static_cast<float>(delta_scale), delta);
  wsum_[k] += weight;
}

void FedTransStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  const int n_models = num_models();

  // Joint utility learning (Eq. 4) with per-round standardized losses.
  {
    std::vector<double> losses;
    losses.reserve(parts_.size());
    // Guard against diverged local runs: a non-finite loss is treated as
    // the worst finite loss of the round so it cannot poison utilities.
    double worst = 0.0;
    for (const auto& p : parts_)
      if (std::isfinite(p.loss)) worst = std::max(worst, p.loss);
    for (const auto& p : parts_)
      losses.push_back(std::isfinite(p.loss) ? p.loss : worst + 1.0);
    const auto std_losses = standardize(losses);
    for (std::size_t i = 0; i < parts_.size(); ++i)
      cm_->update_utilities(parts_[i].client, parts_[i].model, std_losses[i]);
  }

  // Per-model FedAvg.
  const int newest = n_models - 1;
  for (int k = 0; k < n_models; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    if (wsum_[ki] <= 0.0) continue;
    ws_scale(acc_[ki], static_cast<float>(1.0 / wsum_[ki]));
    Model& m = *models_[ki].model;
    WeightSet w = m.weights();
    models_[ki].opt->apply(w, acc_[ki]);
    m.set_weights(w);
    if (k == newest) act_->add_round(m, acc_[ki]);
  }

  // Soft aggregation across the family (Eq. 5).
  {
    std::vector<std::vector<double>> sim(
        static_cast<std::size_t>(n_models),
        std::vector<double>(static_cast<std::size_t>(n_models), 0.0));
    for (int i = 0; i < n_models; ++i)
      for (int j = 0; j < n_models; ++j)
        sim[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            cm_->similarity(i, j);
    auto ptrs = model_ptrs();
    aggregator_.aggregate(ptrs, sim, ctx.round);
  }

  // DoC bookkeeping on the newest model, then maybe transform.
  double round_loss = 0.0;
  int loss_models = 0;
  for (int k = 0; k < n_models; ++k)
    if (loss_cnt_[static_cast<std::size_t>(k)] > 0) {
      round_loss += loss_sum_[static_cast<std::size_t>(k)] /
                    loss_cnt_[static_cast<std::size_t>(k)];
      ++loss_models;
    }
  const double mean_round_loss =
      loss_models > 0 ? round_loss / loss_models : 0.0;
  if (loss_cnt_[static_cast<std::size_t>(newest)] > 0)
    doc_.add_loss(loss_sum_[static_cast<std::size_t>(newest)] /
                  loss_cnt_[static_cast<std::size_t>(newest)]);
  maybe_transform(ctx);

  rec.avg_loss = mean_round_loss;
}

void FedTransStrategy::maybe_transform(RoundContext& ctx) {
  if (!cfg_.enable_transform || exhausted_ || num_models() >= cfg_.max_models)
    return;
  if (!doc_.ready() || doc_.doc() > cfg_.beta) return;

  ModelEntry& parent = models_.back();
  const auto activeness = act_->activeness();
  Rng trng = ctx.rng.fork();
  const TransformerOptions topts{cfg_.alpha, cfg_.widen_factor,
                                 cfg_.deepen_blocks,
                                 cfg_.enable_layer_selection,
                                 cfg_.scaling_policy};
  const auto plan =
      build_transform_plan(parent.model->spec(), activeness, topts, trng);
  const bool any = std::any_of(plan.begin(), plan.end(), [](const CellOp& op) {
    return op.kind != CellOp::Kind::Keep;
  });
  if (!any) return;

  const int child_id = next_model_id_++;
  std::string child_name = "M";
  child_name += std::to_string(child_id);
  Model child = transform_model(*parent.model, plan, child_id, child_name,
                                trng, cfg_.enable_warmup);
  if (static_cast<double>(child.macs()) > max_capacity_) {
    // No participant can run it: the family has reached the fleet's ceiling.
    exhausted_ = true;
    return;
  }

  const int parent_index = num_models() - 1;
  ModelEntry entry;
  entry.model = std::make_unique<Model>(std::move(child));
  entry.id = child_id;
  entry.created_round = ctx.round;
  entry.opt = make_server_opt(cfg_.server_opt);
  cm_->add_model(entry.model->spec(),
                 static_cast<double>(entry.model->macs()), parent_index);
  act_ = std::make_unique<ActivenessTracker>(entry.model->num_cells(),
                                             cfg_.act_window);
  doc_.reset();  // the newest model needs fresh γ+δ history
  models_.push_back(std::move(entry));
  ++transforms_;

  double storage = 0.0;
  for (const auto& e : models_)
    storage += static_cast<double>(e.model->param_bytes());
  ctx.costs.note_storage(storage);
}

int FedTransStrategy::deployed_model(int client,
                                     const ClientData& data) const {
  if (cfg_.final_assignment == FedTransConfig::FinalAssignment::Utility)
    return cm_->best_model(client);
  // Client-side probe: among compatible models, the one with the lowest
  // loss on the client's own training shard (its data never leaves the
  // device; only the choice does).
  const auto compat = cm_->compatible_models(client);
  int best = compat.front();
  double best_loss = 1e300;
  for (int k : compat) {
    Model probe = *models_[static_cast<std::size_t>(k)].model;
    const double l = evaluate_loss(probe, data);
    if (l < best_loss) {
      best_loss = l;
      best = k;
    }
  }
  return best;
}

double FedTransStrategy::deployed_accuracy(int client,
                                           const ClientData& data) {
  Model deploy = model(deployed_model(client, data));
  return evaluate_accuracy(deploy, data);
}

FinalEval FedTransStrategy::evaluate_final() {
  FinalEval ev;
  const auto n = static_cast<std::size_t>(data_->num_clients());
  ev.client_accuracy.assign(n, 0.0);
  ev.client_model.assign(n, 0);
  // Per-client slots keep the result order (and thus mean/IQR)
  // deterministic.
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(n), 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const int c = static_cast<int>(i);
          const ClientData& d = data_->client(c);
          const int k = deployed_model(c, d);
          ev.client_model[static_cast<std::size_t>(i)] = k;
          Model deploy = model(k);
          ev.client_accuracy[static_cast<std::size_t>(i)] =
              evaluate_accuracy(deploy, d);
        }
      });
  ev.mean_accuracy = mean(ev.client_accuracy);
  ev.accuracy_iqr = iqr(ev.client_accuracy);
  return ev;
}

void FedTransStrategy::save_state(std::ostream& os) const {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(models_.size()));
  for (const auto& e : models_) {
    write_pod<std::int32_t>(os, e.id);
    write_pod<std::int32_t>(os, e.created_round);
    save_model(*e.model, os);
    e.opt->save_state(os);
  }
  cm_->save(os);
  doc_.save(os);
  act_->save(os);
  write_pod<std::int32_t>(os, transforms_);
  write_pod<std::int32_t>(os, next_model_id_);
  write_pod<std::uint8_t>(os, exhausted_ ? 1 : 0);
}

void FedTransStrategy::load_state(std::istream& is) {
  const auto n_models = read_pod<std::uint32_t>(is);
  FT_CHECK_MSG(n_models >= 1, "checkpoint holds no models");
  models_.clear();
  for (std::uint32_t i = 0; i < n_models; ++i) {
    ModelEntry e;
    e.id = read_pod<std::int32_t>(is);
    e.created_round = read_pod<std::int32_t>(is);
    e.model = std::make_unique<Model>(load_model(is));
    e.opt = make_server_opt(cfg_.server_opt);
    e.opt->load_state(is);
    models_.push_back(std::move(e));
  }
  cm_->load(is);
  FT_CHECK_MSG(cm_->num_models() == static_cast<int>(n_models),
               "checkpoint client-manager/model count mismatch");
  doc_.load(is);
  act_ = std::make_unique<ActivenessTracker>(
      models_.back().model->num_cells(), cfg_.act_window);
  act_->load(is);
  transforms_ = read_pod<std::int32_t>(is);
  next_model_id_ = read_pod<std::int32_t>(is);
  exhausted_ = read_pod<std::uint8_t>(is) != 0;
}

}  // namespace fedtrans
