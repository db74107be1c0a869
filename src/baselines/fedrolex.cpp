#include "baselines/fedrolex.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "model/align.hpp"

namespace fedtrans {

namespace {

/// Which width space a parameter's rows/columns live in. Space −1 is fixed
/// (input channels / class count — identical in every submodel); space 0 is
/// the stem; space 1+l is Cell l.
struct ParamSpaces {
  int row_space = -1;
  int col_space = -1;
};

/// One (row_space, col_space) entry per Model::params() tensor, derived
/// from the spec's structure. Valid for the global model and for every
/// width-scaled submodel (scale_widths preserves the structure).
std::vector<ParamSpaces> build_layout(const ModelSpec& spec, Model& probe) {
  FT_CHECK_MSG(spec.kind == CellKind::Conv || spec.kind == CellKind::Mlp,
               "FedRolex supports Conv and Mlp cell models");
  std::vector<ParamSpaces> layout;
  // Stem: rows in space 0, columns fixed (raw input).
  for (const auto& p : probe.stem().params()) {
    (void)p;
    layout.push_back({0, -1});
  }
  for (int l = 0; l < probe.num_cells(); ++l) {
    for (int b = 0; b < probe.blocks_in_cell(l); ++b) {
      for (const auto& p : probe.cell_block(l, b).params()) {
        ParamSpaces ps;
        ps.row_space = l + 1;
        // Rank ≥ 2 weights consume the previous space's channels in their
        // second dimension; the first block of a cell reads the preceding
        // cell (or stem), later blocks read the cell itself.
        ps.col_space = p.value->ndim() >= 2 ? (b == 0 ? l : l + 1) : -1;
        layout.push_back(ps);
      }
    }
  }
  // Classifier: rows are classes (fixed), columns read the last cell.
  for (const auto& p : probe.classifier().params()) {
    ParamSpaces ps;
    ps.row_space = -1;
    ps.col_space = p.value->ndim() >= 2 ? probe.num_cells() : -1;
    layout.push_back(ps);
  }
  return layout;
}

int space_width(const ModelSpec& spec, int space) {
  if (space < 0) return -1;  // identity
  if (space == 0) return spec.stem_width;
  return spec.cells[static_cast<std::size_t>(space - 1)].width;
}

}  // namespace

FedRolexStrategy::FedRolexStrategy(ModelSpec full_spec,
                                   std::vector<double> width_ratios)
    : full_spec_(std::move(full_spec)),
      width_ratios_(std::move(width_ratios)) {
  FT_CHECK_MSG(!width_ratios_.empty() && width_ratios_.front() == 1.0,
               "width ratios must start at 1.0");
}

void FedRolexStrategy::attach(RoundContext& ctx, Rng& rng) {
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

int FedRolexStrategy::level_for(int client) const {
  const double cap =
      (*fleet_)[static_cast<std::size_t>(client)].capacity_macs;
  for (std::size_t lvl = 0; lvl < level_macs_.size(); ++lvl)
    if (level_macs_[lvl] <= cap) return static_cast<int>(lvl);
  return static_cast<int>(level_macs_.size()) - 1;  // weakest level
}

int FedRolexStrategy::offset_for_space(int space, int round) const {
  const int w = space_width(global_->spec(), space);
  return w > 0 ? round % w : 0;
}

void FedRolexStrategy::for_each_mapped_element(
    Model& sub, int round,
    const std::function<void(Tensor&, const Tensor&, std::int64_t,
                             std::int64_t)>& fn) {
  const auto layout = build_layout(global_->spec(), *global_);
  auto gp = global_->params();
  auto sp = sub.params();
  FT_CHECK_MSG(gp.size() == sp.size() && gp.size() == layout.size(),
               "submodel structure must match the global model");

  for (std::size_t i = 0; i < layout.size(); ++i) {
    const Tensor& g = *gp[i].value;
    Tensor& s = *sp[i].value;
    const int rs = layout[i].row_space, cs = layout[i].col_space;
    const int g_rows = g.dim(0), s_rows = s.dim(0);
    const int ro = rs < 0 ? 0 : offset_for_space(rs, round);
    auto rmap = [&](int j) { return rs < 0 ? j : (ro + j) % g_rows; };

    if (s.ndim() == 1) {
      for (int j = 0; j < s_rows; ++j) fn(s, g, j, rmap(j));
      continue;
    }
    const int g_cols = g.dim(1), s_cols = s.dim(1);
    const int co = cs < 0 ? 0 : offset_for_space(cs, round);
    auto cmap = [&](int j) { return cs < 0 ? j : (co + j) % g_cols; };
    // Trailing dims (k×k for conv weights) are never width-scaled.
    std::int64_t tail = 1;
    for (int d = 2; d < s.ndim(); ++d) tail *= s.dim(d);
    for (int r = 0; r < s_rows; ++r)
      for (int c = 0; c < s_cols; ++c) {
        const std::int64_t sbase =
            (static_cast<std::int64_t>(r) * s_cols + c) * tail;
        const std::int64_t gbase =
            (static_cast<std::int64_t>(rmap(r)) * g_cols + cmap(c)) * tail;
        for (std::int64_t t = 0; t < tail; ++t)
          fn(s, g, sbase + t, gbase + t);
      }
  }
}

Model FedRolexStrategy::submodel(int level, int round) {
  Rng tmp(0xf01eULL + static_cast<std::uint64_t>(level));
  Model sub(level_specs_[static_cast<std::size_t>(level)], tmp);
  for_each_mapped_element(sub, round,
                          [&](Tensor& s, const Tensor& g, std::int64_t si,
                              std::int64_t gi) {
                            s[si] = g[gi];  // copy the rolled window
                          });
  return sub;
}

std::vector<ClientTask> FedRolexStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);
  for (ClientTask& t : tasks) t.tag = level_for(t.client);
  cur_round_ = ctx.round;

  WeightSet global_w = global_->weights();
  acc_ = ws_zeros_like(global_w);
  wsum_ = ws_zeros_like(global_w);
  loss_sum_ = 0.0;
  slowest_ = 0.0;
  round_tasks_ = tasks.size();
  return tasks;
}

Model FedRolexStrategy::client_payload(const ClientTask& task) {
  return submodel(task.tag, cur_round_);
}

void FedRolexStrategy::absorb_update(const ClientTask& task, Model* trained,
                                     LocalTrainResult& res,
                                     RoundContext& ctx) {
  FT_CHECK_MSG(trained != nullptr,
               "FedRolex absorb requires the task's payload model");
  Model& sub = *trained;
  loss_sum_ += res.avg_loss;

  // Scatter the client's delta through the same rolled maps. Parameter
  // order matches params(), so track the index alongside the walk.
  auto sp = sub.params();
  std::size_t param_i = 0;
  const Tensor* current = nullptr;
  const float n = static_cast<float>(res.num_samples);
  for_each_mapped_element(
      sub, cur_round_,
      [&](Tensor& s, const Tensor&, std::int64_t si, std::int64_t gi) {
        if (current != &s) {
          // Advance to this tensor's index in params() order.
          while (sp[param_i].value != &s) {
            ++param_i;
            FT_CHECK(param_i < sp.size());
          }
          current = &s;
        }
        acc_[param_i][gi] += n * res.delta[param_i][si];
        wsum_[param_i][gi] += n;
      });

  bill_trained_update(ctx, task.client,
                      static_cast<double>(sub.param_bytes()),
                      static_cast<double>(sub.macs()), res, slowest_);
}

void FedRolexStrategy::lost_update(const ClientTask& task,
                                   ClientOutcome outcome, RoundContext& ctx) {
  const auto lvl = static_cast<std::size_t>(task.tag);
  bill_lost_update(ctx, outcome, level_bytes_[lvl], level_macs_[lvl]);
}

void FedRolexStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
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

double FedRolexStrategy::probe_accuracy(const std::vector<int>& ids,
                                        RoundContext& ctx) {
  double s = 0.0;
  for (int c : ids) {
    Model sub = submodel(level_for(c), cur_round_);
    s += evaluate_accuracy(sub, ctx.data.client(c));
  }
  return s / static_cast<double>(ids.size());
}

}  // namespace fedtrans
