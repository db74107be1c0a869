#include "fl/compression.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "obs/log.hpp"

namespace fedtrans {

TopKCompression::TopKCompression(double ratio) : ratio_(ratio) {
  FT_CHECK_MSG(ratio > 0.0 && ratio <= 1.0, "top-k ratio must be in (0, 1]");
}

void TopKCompression::compress(WeightSet& delta) {
  const std::int64_t total = ws_numel(delta);
  if (total == 0) return;
  const auto k = static_cast<std::int64_t>(
      std::max<double>(1.0, std::floor(ratio_ * static_cast<double>(total))));
  if (k >= total) return;

  // Threshold = k-th largest |value| across the whole set.
  std::vector<float> mags;
  mags.reserve(static_cast<std::size_t>(total));
  for (const Tensor& t : delta)
    for (std::int64_t i = 0; i < t.numel(); ++i)
      mags.push_back(std::fabs(t[i]));
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   mags.end(), std::greater<float>());
  const float thresh = mags[static_cast<std::size_t>(k - 1)];

  // Keep everything strictly above the threshold plus enough
  // threshold-equal entries (first-in-scan-order) to reach exactly k.
  std::int64_t strictly_greater = 0;
  for (const Tensor& t : delta)
    for (std::int64_t i = 0; i < t.numel(); ++i)
      if (std::fabs(t[i]) > thresh) ++strictly_greater;
  std::int64_t tie_budget = k - strictly_greater;

  for (Tensor& t : delta)
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const float m = std::fabs(t[i]);
      if (m > thresh) continue;
      if (m == thresh && tie_budget > 0) {
        --tie_budget;
        continue;
      }
      t[i] = 0.0f;
    }
}

double TopKCompression::compressed_bytes(const WeightSet& delta) const {
  const std::int64_t dense_params = ws_numel(delta);
  const auto k = static_cast<std::int64_t>(std::max<double>(
      1.0, std::floor(ratio_ * static_cast<double>(dense_params))));
  // Which tensors the survivors fall in depends on the values, not the
  // shape, so a delta mixing storage widths bills its widest.
  int value_bytes = 0;
  for (const Tensor& t : delta)
    value_bytes = std::max(value_bytes, dtype_bytes(t.dtype()));
  return static_cast<double>(4 + value_bytes) *
         static_cast<double>(std::min(k, dense_params));
}

UniformQuantization::UniformQuantization(int bits) : bits_(bits) {
  FT_CHECK_MSG(bits >= 1 && bits <= 16, "quantization bits must be in [1,16]");
}

void UniformQuantization::compress(WeightSet& delta) {
  const float levels =
      static_cast<float>((1 << (bits_ - 1)) - 1);  // symmetric range
  for (Tensor& t : delta) {
    float mx = 0.0f;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      mx = std::max(mx, std::fabs(t[i]));
    if (mx == 0.0f) continue;
    const float scale = levels > 0.0f ? mx / levels : mx;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      t[i] = std::round(t[i] / scale) * scale;
  }
}

double UniformQuantization::compressed_bytes(const WeightSet& delta) const {
  return static_cast<double>(ws_numel(delta)) * bits_ / 8.0 +
         4.0 * static_cast<double>(delta.size());
}

std::unique_ptr<DeltaCompressor> make_compressor(CompressionKind kind,
                                                 double topk_ratio) {
  switch (kind) {
    case CompressionKind::None: return std::make_unique<NoCompression>();
    case CompressionKind::TopK:
      return std::make_unique<TopKCompression>(topk_ratio);
    case CompressionKind::Quant8:
      return std::make_unique<UniformQuantization>(8);
    case CompressionKind::Quant4:
      return std::make_unique<UniformQuantization>(4);
  }
  return std::make_unique<NoCompression>();
}

const char* compression_name(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::None: return "none";
    case CompressionKind::TopK: return "top-k";
    case CompressionKind::Quant8: return "quant-8bit";
    case CompressionKind::Quant4: return "quant-4bit";
  }
  return "none";
}

namespace {

/// Per-tensor shape equality — a tensor-count match alone is not enough:
/// FedTrans transforms can hand a returning client a same-depth model with
/// different layer widths, and element-wise folds across that would be
/// garbage (or an out-of-bounds walk).
bool ws_same_shapes(const WeightSet& a, const WeightSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].shape() != b[i].shape()) return false;
  return true;
}

}  // namespace

void ErrorFeedback::add_residual(int client, WeightSet& delta) {
  auto it = residuals_.find(client);
  if (it == residuals_.end()) return;
  if (!ws_same_shapes(it->second, delta)) {
    FT_LOG_WARN("error-feedback residual for client "
                << client << " no longer matches its delta shapes (model "
                << "spec changed between participations) — resetting the "
                << "residual instead of folding garbage");
    residuals_.erase(it);
    return;
  }
  ws_add(delta, it->second);
}

void ErrorFeedback::store_residual(int client, const WeightSet& pre,
                                   const WeightSet& post) {
  if (!ws_same_shapes(pre, post)) {
    FT_LOG_WARN("error-feedback store for client "
                << client << " got mismatched pre/post shapes — resetting "
                << "the residual instead of storing a garbage difference");
    residuals_.erase(client);
    return;
  }
  WeightSet residual = pre;
  ws_sub(residual, post);
  residuals_[client] = std::move(residual);
}

bool ErrorFeedback::has_residual(int client) const {
  return residuals_.count(client) > 0;
}

}  // namespace fedtrans
