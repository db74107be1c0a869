#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "nn/layer.hpp"

namespace fedtrans::testing {

/// Scalarize a layer's output with a fixed random projection and verify the
/// analytic input/parameter gradients against central finite differences.
/// loss(x) = sum(forward(x) * proj).
inline void check_gradients(Layer& layer, const std::vector<int>& in_shape,
                            Rng& rng, double tol = 2e-2, float eps = 1e-2f) {
  Tensor x(in_shape);
  x.randn(rng, 0.8f);

  Tensor out = layer.forward(x, true);
  Tensor proj(out.shape());
  proj.randn(rng, 1.0f);

  // Analytic gradients.
  layer.zero_grad();
  out = layer.forward(x, true);
  Tensor dx = layer.backward(proj);

  auto loss_at = [&](const Tensor& input) {
    Tensor y = layer.forward(input, true);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
      s += static_cast<double>(y[i]) * proj[i];
    return s;
  };

  // Input gradient (subsample indices for speed on big tensors).
  const std::int64_t stride_x = std::max<std::int64_t>(1, x.numel() / 24);
  for (std::int64_t i = 0; i < x.numel(); i += stride_x) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, tol * std::max(1.0, std::fabs(num)))
        << "input grad mismatch at " << i;
  }

  // Parameter gradients.
  for (auto& p : layer.params()) {
    Tensor& w = *p.value;
    Tensor& g = *p.grad;
    const std::int64_t stride_w = std::max<std::int64_t>(1, w.numel() / 24);
    for (std::int64_t i = 0; i < w.numel(); i += stride_w) {
      const float keep = w[i];
      w[i] = keep + eps;
      const double lp = loss_at(x);
      w[i] = keep - eps;
      const double lm = loss_at(x);
      w[i] = keep;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(g[i], num, tol * std::max(1.0, std::fabs(num)))
          << p.name << " grad mismatch at " << i;
    }
  }
}

/// Max absolute difference between two same-shaped tensors.
inline double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
  return m;
}

/// FedAvg over a copy of `init` — the strategy most tests run.
inline std::unique_ptr<FedAvgStrategy> fedavg(const Model& init,
                                              const FedAvgOptions& opts = {}) {
  return std::make_unique<FedAvgStrategy>(init, opts);
}

/// A session over `data`/`fleet` running a strategy S built from `args`.
template <typename S, typename... Args>
std::unique_ptr<FederationEngine> make_engine(const ClientDataProvider& data,
                                              std::vector<DeviceProfile> fleet,
                                              const SessionConfig& cfg,
                                              Args&&... args) {
  return std::make_unique<FederationEngine>(
      std::make_unique<S>(std::forward<Args>(args)...), data, std::move(fleet),
      cfg);
}

}  // namespace fedtrans::testing
