#include "baselines/submodel.hpp"

#include "common/check.hpp"
#include "model/align.hpp"

namespace fedtrans {

SubmodelStrategy::SubmodelStrategy(ModelSpec full_spec,
                                   std::vector<double> width_ratios,
                                   bool scaled_ladder)
    : full_spec_(std::move(full_spec)),
      width_ratios_(std::move(width_ratios)),
      scaled_ladder_(scaled_ladder) {
  FT_CHECK_MSG(!width_ratios_.empty() && width_ratios_.front() == 1.0,
               "width ratios must start at 1.0");
  for (std::size_t i = 1; i < width_ratios_.size(); ++i)
    FT_CHECK_MSG(width_ratios_[i] < width_ratios_[i - 1],
                 "width ratios must be strictly descending (level_for takes "
                 "the first level that fits)");
  for (double r : width_ratios_) {
    level_specs_.push_back(scale_widths(full_spec_, r));
    if (!scaled_ladder_) level_specs_.back().name = full_spec_.name;
  }
}

void SubmodelStrategy::attach(RoundContext& ctx, Rng& rng) {
  fleet_ = &ctx.fleet;
  global_ = std::make_unique<Model>(full_spec_, rng);
  for (const ModelSpec& spec : level_specs_) {
    // Only the MACs are read; the Rng choice keeps attach's draws from the
    // engine Rng as they are (see the constructor).
    Rng tmp = scaled_ladder_ ? rng.fork() : Rng(17);
    level_macs_.push_back(static_cast<double>(Model(spec, tmp).macs()));
  }
}

int SubmodelStrategy::level_for(int client) const {
  const double cap =
      (*fleet_)[static_cast<std::size_t>(client)].capacity_macs;
  for (std::size_t lvl = 0; lvl < level_macs_.size(); ++lvl)
    if (level_macs_[lvl] <= cap) return static_cast<int>(lvl);
  return static_cast<int>(level_macs_.size()) - 1;  // weakest level
}

Model SubmodelStrategy::submodel(int level) {
  // The element map overwrites every parameter, so the init Rng is moot.
  Rng init(0xfeedULL + static_cast<std::uint64_t>(level));
  Model sub(level_specs_[static_cast<std::size_t>(level)], init);
  auto gp = global_->params();
  auto sp = sub.params();
  for_each_element(level, sub,
                   [&](std::size_t p, std::int64_t gi, std::int64_t si) {
                     (*sp[p].value)[si] = (*gp[p].value)[gi];
                   });
  return sub;
}

void SubmodelStrategy::for_each_channel_element(
    Model& sub, const std::vector<std::vector<int>>& channels,
    const ElementFn& fn) {
  auto gp = global_->params();
  auto sp = sub.params();
  FT_CHECK_MSG(gp.size() == sp.size(),
               "submodel structure must match the global model");
  std::size_t p = 0;
  // Parameter p's rows live in width space `rows` and its columns (rank
  // ≥ 2) in `cols`; space −1 is fixed and maps every index to itself.
  auto walk = [&](int rows, int cols) {
    const Tensor& g = *gp[p].value;
    const Tensor& s = *sp[p].value;
    auto map = [&](int space, int j) {
      return space < 0 ? j
                       : channels[static_cast<std::size_t>(space)]
                                 [static_cast<std::size_t>(j)];
    };
    if (s.ndim() == 1) {
      for (int j = 0; j < s.dim(0); ++j) fn(p, map(rows, j), j);
    } else {
      // Trailing dims (k×k for conv weights) are never width-scaled.
      std::int64_t tail = 1;
      for (int d = 2; d < s.ndim(); ++d) tail *= s.dim(d);
      for (int r = 0; r < s.dim(0); ++r)
        for (int c = 0; c < s.dim(1); ++c) {
          const std::int64_t sbase =
              (static_cast<std::int64_t>(r) * s.dim(1) + c) * tail;
          const std::int64_t gbase =
              (static_cast<std::int64_t>(map(rows, r)) * g.dim(1) +
               map(cols, c)) *
              tail;
          for (std::int64_t t = 0; t < tail; ++t)
            fn(p, gbase + t, sbase + t);
        }
    }
    ++p;
  };
  // The stem's rows are space 0 and it reads the raw input. A Cell's
  // weights read the preceding space in their first block and the Cell's
  // own space after that; the classifier's rows are classes.
  for (std::size_t i = 0; i < sub.stem().params().size(); ++i) walk(0, -1);
  for (int l = 0; l < sub.num_cells(); ++l)
    for (int b = 0; b < sub.blocks_in_cell(l); ++b)
      for (const auto& prm : sub.cell_block(l, b).params())
        walk(l + 1, prm.value->ndim() >= 2 ? (b == 0 ? l : l + 1) : -1);
  for (const auto& prm : sub.classifier().params())
    walk(-1, prm.value->ndim() >= 2 ? sub.num_cells() : -1);
}

std::vector<int> SubmodelStrategy::space_widths(const ModelSpec& spec) {
  std::vector<int> widths{spec.stem_width};
  for (const CellSpec& c : spec.cells) widths.push_back(c.width);
  return widths;
}

std::vector<ClientTask> SubmodelStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  auto tasks = Strategy::plan_round(ctx, rng);
  for (ClientTask& t : tasks) t.tag = level_for(t.client);

  WeightSet global_w = global_->weights();
  acc_ = ws_zeros_like(global_w);
  wsum_ = ws_zeros_like(global_w);
  return tasks;
}

void SubmodelStrategy::fold(const ClientTask& task, Model* payload,
                            const WeightSet& delta, double delta_scale,
                            double weight, RoundContext&) {
  FT_CHECK_MSG(payload != nullptr,
               name() << " needs the task's payload model to fold an update");
  const auto scale = static_cast<float>(delta_scale);
  const auto w = static_cast<float>(weight);
  for_each_element(task.tag, *payload,
                   [&](std::size_t p, std::int64_t gi, std::int64_t si) {
                     acc_[p][gi] += scale * delta[p][si];
                     wsum_[p][gi] += w;
                   });
}

void SubmodelStrategy::finish_round(RoundContext&, RoundRecord&) {
  WeightSet global_w = global_->weights();
  for (std::size_t p = 0; p < global_w.size(); ++p)
    for (std::int64_t e = 0; e < global_w[p].numel(); ++e) {
      float& update = acc_[p][e];
      if (wsum_[p][e] > 0.0f) {
        update /= wsum_[p][e];
        global_w[p][e] -= update;
      } else {
        update = 0.0f;
      }
    }
  global_->set_weights(global_w);
}

double SubmodelStrategy::deployed_accuracy(int client,
                                           const ClientData& data) {
  Model sub = submodel(level_for(client));
  return evaluate_accuracy(sub, data);
}

}  // namespace fedtrans
