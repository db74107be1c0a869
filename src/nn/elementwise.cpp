#include "nn/elementwise.hpp"

namespace fedtrans {

namespace {

// Floats per fixed-width chunk: two 8-float vectors at GCC's preferred
// 256-bit width on x86.
constexpr int kChunk = 16;
// Planes whose sums run at once: enough independent chains to cover the
// latency of a double add.
constexpr int kChains = 8;

}  // namespace

void relu_forward(const float* __restrict x, float* __restrict y,
                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kChunk <= n; i += kChunk)
    for (int j = 0; j < kChunk; ++j)
      y[i + j] = x[i + j] < 0.0f ? 0.0f : x[i + j];
  for (; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void relu_backward(const float* __restrict x, const float* __restrict g,
                   float* __restrict dx, std::int64_t n) {
  std::int64_t i = 0;
  // g is read unconditionally: a load only one arm performs could trap, so
  // GCC would not turn the select into a vector blend.
  for (; i + kChunk <= n; i += kChunk)
    for (int j = 0; j < kChunk; ++j) {
      const float gv = g[i + j];
      dx[i + j] = x[i + j] <= 0.0f ? 0.0f : gv;
    }
  for (; i < n; ++i) {
    const float gv = g[i];
    dx[i] = x[i] <= 0.0f ? 0.0f : gv;
  }
}

void scale_shift_forward(const float* __restrict x, float s, float t,
                         float* __restrict y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kChunk <= n; i += kChunk)
    for (int j = 0; j < kChunk; ++j) y[i + j] = x[i + j] * s + t;
  for (; i < n; ++i) y[i] = x[i] * s + t;
}

void mul_scalar(const float* __restrict x, float s, float* __restrict y,
                std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kChunk <= n; i += kChunk)
    for (int j = 0; j < kChunk; ++j) y[i + j] = x[i + j] * s;
  for (; i < n; ++i) y[i] = x[i] * s;
}

void add_scalar(float* __restrict x, float v, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kChunk <= n; i += kChunk)
    for (int j = 0; j < kChunk; ++j) x[i + j] += v;
  for (; i < n; ++i) x[i] += v;
}

void plane_sums(const float* __restrict x, std::int64_t plane,
                std::int64_t count, double* __restrict sums) {
  std::int64_t q = 0;
  for (; q + kChains <= count; q += kChains) {
    const float* xq = x + q * plane;
    double s[kChains] = {};
    for (std::int64_t i = 0; i < plane; ++i)
      for (int c = 0; c < kChains; ++c) s[c] += xq[c * plane + i];
    for (int c = 0; c < kChains; ++c) sums[q + c] = s[c];
  }
  for (; q < count; ++q) {
    const float* xq = x + q * plane;
    double s = 0.0;
    for (std::int64_t i = 0; i < plane; ++i) s += xq[i];
    sums[q] = s;
  }
}

void plane_dot_sums(const float* __restrict g, const float* __restrict x,
                    std::int64_t plane, std::int64_t count,
                    double* __restrict dots, double* __restrict sums) {
  std::int64_t q = 0;
  for (; q + kChains <= count; q += kChains) {
    const float* gq = g + q * plane;
    const float* xq = x + q * plane;
    double d[kChains] = {}, s[kChains] = {};
    for (std::int64_t i = 0; i < plane; ++i)
      for (int c = 0; c < kChains; ++c) {
        const float gv = gq[c * plane + i];
        d[c] += static_cast<double>(gv) * xq[c * plane + i];
        s[c] += gv;
      }
    for (int c = 0; c < kChains; ++c) {
      dots[q + c] = d[c];
      sums[q + c] = s[c];
    }
  }
  for (; q < count; ++q) {
    const float* gq = g + q * plane;
    const float* xq = x + q * plane;
    double d = 0.0, s = 0.0;
    for (std::int64_t i = 0; i < plane; ++i) {
      d += static_cast<double>(gq[i]) * xq[i];
      s += gq[i];
    }
    dots[q] = d;
    sums[q] = s;
  }
}

}  // namespace fedtrans
