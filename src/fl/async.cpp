#include "fl/async.hpp"

#include "common/check.hpp"

namespace fedtrans {

FedBuffStrategy::FedBuffStrategy(Model init, ServerOptKind server_opt)
    : model_(std::move(init)), opt_kind_(server_opt) {}

void FedBuffStrategy::attach(RoundContext&, Rng&) {
  server_opt_ = make_server_opt(opt_kind_);
  buffer_ = ws_zeros_like(model_.weights());
}

Model FedBuffStrategy::client_payload(const ClientTask&) {
  return model_;  // download the current server weights
}

std::optional<double> FedBuffStrategy::absorb_async(int, LocalTrainResult& res,
                                                    double discount,
                                                    RoundContext& ctx) {
  ws_axpy(buffer_, static_cast<float>(discount), res.delta);
  buffer_weight_ += discount;
  ++buffered_;
  loss_accum_ += res.avg_loss;
  ++loss_count_;
  if (buffered_ < ctx.session.async.buffer_size) return std::nullopt;

  WeightSet global = model_.weights();
  ws_scale(buffer_, static_cast<float>(1.0 / buffer_weight_));
  server_opt_->apply(global, buffer_);
  model_.set_weights(global);
  const double avg = loss_count_ > 0 ? loss_accum_ / loss_count_ : 0.0;

  buffer_ = ws_zeros_like(global);
  buffer_weight_ = 0.0;
  buffered_ = 0;
  loss_accum_ = 0.0;
  loss_count_ = 0;
  return avg;
}

void FedBuffStrategy::absorb_update(const ClientTask&, Model*,
                                    LocalTrainResult&, RoundContext&) {
  FT_CHECK_MSG(false, "FedBuff is an async strategy — run it in "
                      "SessionMode::Async");
}

void FedBuffStrategy::finish_round(RoundContext&, RoundRecord&) {
  FT_CHECK_MSG(false, "FedBuff is an async strategy — run it in "
                      "SessionMode::Async");
}

}  // namespace fedtrans
