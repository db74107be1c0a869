#include "fl/server_opt.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "net/wire.hpp"

namespace fedtrans {

void FedAvgServerOpt::apply(WeightSet& global, const WeightSet& avg_delta) {
  ws_axpy(global, static_cast<float>(-lr_), avg_delta);
}

void FedAvgMServerOpt::apply(WeightSet& global, const WeightSet& avg_delta) {
  if (m_.empty()) m_ = ws_zeros_like(global);
  FT_CHECK(m_.size() == global.size());
  ws_scale(m_, static_cast<float>(beta_));
  ws_add(m_, avg_delta);
  ws_axpy(global, static_cast<float>(-lr_), m_);
}

void FedAvgMServerOpt::save_state(std::ostream& os) const {
  write_weight_set(os, m_);
}

void FedAvgMServerOpt::load_state(std::istream& is) {
  m_ = read_weight_set(is);
}

void FedYogiServerOpt::apply(WeightSet& global, const WeightSet& avg_delta) {
  if (m_.empty()) {
    m_ = ws_zeros_like(global);
    v_ = ws_zeros_like(global);
  }
  FT_CHECK(m_.size() == global.size());
  // The server "gradient" is the average delta (w_global − w_client).
  for (std::size_t i = 0; i < global.size(); ++i) {
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    Tensor& w = global[i];
    const Tensor& g = avg_delta[i];
    for (std::int64_t j = 0; j < w.numel(); ++j) {
      const float gj = g[j];
      m[j] = static_cast<float>(beta1_) * m[j] +
             static_cast<float>(1.0 - beta1_) * gj;
      const float g2 = gj * gj;
      const float sign = v[j] > g2 ? 1.0f : (v[j] < g2 ? -1.0f : 0.0f);
      v[j] = v[j] - static_cast<float>(1.0 - beta2_) * g2 * sign;
      w[j] -= static_cast<float>(eta_) * m[j] /
              (std::sqrt(std::max(v[j], 0.0f)) + static_cast<float>(tau_));
    }
  }
}

void FedYogiServerOpt::save_state(std::ostream& os) const {
  write_weight_set(os, m_);
  write_weight_set(os, v_);
}

void FedYogiServerOpt::load_state(std::istream& is) {
  m_ = read_weight_set(is);
  v_ = read_weight_set(is);
}

void FedAdamServerOpt::apply(WeightSet& global, const WeightSet& avg_delta) {
  if (m_.empty()) {
    m_ = ws_zeros_like(global);
    v_ = ws_zeros_like(global);
  }
  FT_CHECK(m_.size() == global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    Tensor& w = global[i];
    const Tensor& g = avg_delta[i];
    for (std::int64_t j = 0; j < w.numel(); ++j) {
      const float gj = g[j];
      m[j] = static_cast<float>(beta1_) * m[j] +
             static_cast<float>(1.0 - beta1_) * gj;
      v[j] = static_cast<float>(beta2_) * v[j] +
             static_cast<float>(1.0 - beta2_) * gj * gj;
      w[j] -= static_cast<float>(eta_) * m[j] /
              (std::sqrt(std::max(v[j], 0.0f)) + static_cast<float>(tau_));
    }
  }
}

void FedAdamServerOpt::save_state(std::ostream& os) const {
  write_weight_set(os, m_);
  write_weight_set(os, v_);
}

void FedAdamServerOpt::load_state(std::istream& is) {
  m_ = read_weight_set(is);
  v_ = read_weight_set(is);
}

void FedAdagradServerOpt::apply(WeightSet& global,
                                const WeightSet& avg_delta) {
  if (v_.empty()) v_ = ws_zeros_like(global);
  FT_CHECK(v_.size() == global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    Tensor& v = v_[i];
    Tensor& w = global[i];
    const Tensor& g = avg_delta[i];
    for (std::int64_t j = 0; j < w.numel(); ++j) {
      const float gj = g[j];
      v[j] += gj * gj;
      w[j] -= static_cast<float>(eta_) * gj /
              (std::sqrt(v[j]) + static_cast<float>(tau_));
    }
  }
}

void FedAdagradServerOpt::save_state(std::ostream& os) const {
  write_weight_set(os, v_);
}

void FedAdagradServerOpt::load_state(std::istream& is) {
  v_ = read_weight_set(is);
}

std::unique_ptr<ServerOptimizer> make_server_opt(ServerOptKind kind) {
  switch (kind) {
    case ServerOptKind::FedAvg: return std::make_unique<FedAvgServerOpt>();
    case ServerOptKind::FedAvgM: return std::make_unique<FedAvgMServerOpt>();
    case ServerOptKind::FedYogi: return std::make_unique<FedYogiServerOpt>();
    case ServerOptKind::FedAdam: return std::make_unique<FedAdamServerOpt>();
    case ServerOptKind::FedAdagrad:
      return std::make_unique<FedAdagradServerOpt>();
  }
  return std::make_unique<FedAvgServerOpt>();
}

const char* server_opt_name(ServerOptKind kind) {
  switch (kind) {
    case ServerOptKind::FedAvg: return "FedAvg";
    case ServerOptKind::FedAvgM: return "FedAvgM";
    case ServerOptKind::FedYogi: return "FedYogi";
    case ServerOptKind::FedAdam: return "FedAdam";
    case ServerOptKind::FedAdagrad: return "FedAdagrad";
  }
  return "FedAvg";
}

}  // namespace fedtrans
