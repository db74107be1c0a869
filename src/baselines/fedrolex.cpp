#include "baselines/fedrolex.hpp"

#include "common/check.hpp"

namespace fedtrans {

FedRolexStrategy::FedRolexStrategy(ModelSpec full_spec,
                                   std::vector<double> width_ratios)
    : SubmodelStrategy(std::move(full_spec), std::move(width_ratios)) {
  const CellKind kind = this->full_spec().kind;
  FT_CHECK_MSG(kind == CellKind::Conv || kind == CellKind::Mlp,
               "FedRolex supports Conv and Mlp cell models");
}

std::vector<ClientTask> FedRolexStrategy::plan_round(RoundContext& ctx,
                                                     Rng& rng) {
  window_ = ctx.round;
  return SubmodelStrategy::plan_round(ctx, rng);
}

void FedRolexStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  SubmodelStrategy::finish_round(ctx, rec);
  window_ = ctx.round + 1;
}

int FedRolexStrategy::offset_for_space(int space) const {
  return window_ % space_widths(full_spec())[static_cast<std::size_t>(space)];
}

void FedRolexStrategy::for_each_element(int, Model& sub,
                                        const ElementFn& fn) {
  const auto full = space_widths(full_spec());
  const auto kept = space_widths(sub.spec());
  std::vector<std::vector<int>> channels(full.size());
  for (std::size_t s = 0; s < full.size(); ++s)
    for (int j = 0; j < kept[s]; ++j)
      channels[s].push_back((window_ + j) % full[s]);
  for_each_channel_element(sub, channels, fn);
}

}  // namespace fedtrans
