#include "nn/attention.hpp"

#include <cmath>

#include "common/check.hpp"
#include "nn/linear.hpp"

namespace fedtrans {

Attention::Attention(int dim, int heads)
    : d_(dim),
      h_(heads),
      wq_({dim, dim}), gwq_({dim, dim}), bq_({dim}), gbq_({dim}),
      wk_({dim, dim}), gwk_({dim, dim}), bk_({dim}), gbk_({dim}),
      wv_({dim, dim}), gwv_({dim, dim}), bv_({dim}), gbv_({dim}),
      wo_({dim, dim}), gwo_({dim, dim}), bo_({dim}), gbo_({dim}) {
  FT_CHECK_MSG(dim > 0 && heads > 0 && dim % heads == 0,
               "heads (" << heads << ") must divide dim (" << dim << ")");
}

void Attention::init(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(d_));
  for (Tensor* w : {&wq_, &wk_, &wv_, &wo_}) w->rand_uniform(rng, -bound, bound);
  for (Tensor* b : {&bq_, &bk_, &bv_, &bo_}) b->zero();
}

void Attention::zero_output_projection() {
  wo_.zero();
  bo_.zero();
}

Tensor Attention::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 3 && x.dim(2) == d_,
               "Attention expects [N,T," << d_ << "]");
  x_ = x;
  const int n = x.dim(0), t = x.dim(1), dh = head_dim();
  const Tensor x2d = x.reshape({n * t, d_});
  q_ = dense_forward(x2d, wq_, bq_);
  k_ = dense_forward(x2d, wk_, bk_);
  v_ = dense_forward(x2d, wv_, bv_);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t tt = static_cast<std::int64_t>(t) * t;
  attn_ = Tensor({n * h_, t, t});
  o_ = Tensor({n * t, d_});
  for (int b = 0; b < n; ++b) {
    const std::int64_t row0 = static_cast<std::int64_t>(b) * t;
    for (int h = 0; h < h_; ++h) {
      const int off = h * dh;
      const float* qh = q_.data() + row0 * d_ + off;
      const float* kh = k_.data() + row0 * d_ + off;
      const float* vh = v_.data() + row0 * d_ + off;
      float* a = attn_.data() + (static_cast<std::int64_t>(b) * h_ + h) * tt;
      // scores = Q_h K_h^T / sqrt(d_h); per-head slices live inside the
      // packed [T, D] activations, hence lda = D.
      gemm(false, true, t, t, dh, inv_sqrt, qh, d_, kh, d_, 0.0f, a, t);
      for (int i = 0; i < t; ++i) {
        float* row = a + static_cast<std::int64_t>(i) * t;
        float mx = row[0];
        for (int j = 1; j < t; ++j) mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (int j = 0; j < t; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int j = 0; j < t; ++j) row[j] *= inv;
      }
      // O_h = A V_h written straight into the concat slice.
      gemm(false, false, t, dh, t, 1.0f, a, t, vh, d_, 0.0f,
           o_.data() + row0 * d_ + off, d_);
    }
  }
  Tensor y2d = dense_forward(o_, wo_, bo_);
  return y2d.reshape({n, t, d_});
}

Tensor Attention::backward(const Tensor& grad_out) {
  const int n = x_.dim(0), t = x_.dim(1), dh = head_dim();
  FT_CHECK(grad_out.ndim() == 3 && grad_out.dim(0) == n &&
           grad_out.dim(1) == t && grad_out.dim(2) == d_);
  const Tensor g2d = grad_out.reshape({n * t, d_});
  Tensor d_o = dense_backward(g2d, o_, wo_, gwo_, gbo_);

  Tensor d_q({n * t, d_}), d_k({n * t, d_}), d_v({n * t, d_});
  Tensor d_s({t, t});
  const std::int64_t tt = static_cast<std::int64_t>(t) * t;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int b = 0; b < n; ++b) {
    const std::int64_t row0 = static_cast<std::int64_t>(b) * t;
    for (int h = 0; h < h_; ++h) {
      const int off = h * dh;
      const float* doh = d_o.data() + row0 * d_ + off;
      const float* qh = q_.data() + row0 * d_ + off;
      const float* kh = k_.data() + row0 * d_ + off;
      const float* vh = v_.data() + row0 * d_ + off;
      const float* a =
          attn_.data() + (static_cast<std::int64_t>(b) * h_ + h) * tt;

      // dA = dO_h V_h^T ; dV_h = A^T dO_h.
      gemm(false, true, t, t, dh, 1.0f, doh, d_, vh, d_, 0.0f, d_s.data(), t);
      gemm(true, false, t, dh, t, 1.0f, a, t, doh, d_, 0.0f,
           d_v.data() + row0 * d_ + off, d_);

      // Softmax backward per row, in place: dS = A ∘ (dA − Σ_j dA∘A).
      for (int i = 0; i < t; ++i) {
        const float* arow = a + static_cast<std::int64_t>(i) * t;
        float* drow = d_s.data() + static_cast<std::int64_t>(i) * t;
        double dot = 0.0;
        for (int j = 0; j < t; ++j)
          dot += static_cast<double>(drow[j]) * arow[j];
        for (int j = 0; j < t; ++j)
          drow[j] = arow[j] * (drow[j] - static_cast<float>(dot));
      }

      // dQ_h = dS K_h / sqrt(d_h) ; dK_h = dS^T Q_h / sqrt(d_h).
      gemm(false, false, t, dh, t, inv_sqrt, d_s.data(), t, kh, d_, 0.0f,
           d_q.data() + row0 * d_ + off, d_);
      gemm(true, false, t, dh, t, inv_sqrt, d_s.data(), t, qh, d_, 0.0f,
           d_k.data() + row0 * d_ + off, d_);
    }
  }

  const Tensor x2d = x_.reshape({n * t, d_});
  Tensor dx = dense_backward(d_q, x2d, wq_, gwq_, gbq_);
  dx.add_(dense_backward(d_k, x2d, wk_, gwk_, gbk_));
  dx.add_(dense_backward(d_v, x2d, wv_, gwv_, gbv_));
  return dx.reshape({n, t, d_});
}

std::vector<ParamRef> Attention::params() {
  return {{&wq_, &gwq_, "wq"}, {&bq_, &gbq_, "bq"}, {&wk_, &gwk_, "wk"},
          {&bk_, &gbk_, "bk"}, {&wv_, &gwv_, "wv"}, {&bv_, &gbv_, "bv"},
          {&wo_, &gwo_, "wo"}, {&bo_, &gbo_, "bo"}};
}

std::int64_t Attention::macs(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 2 && in_shape[1] == d_);
  const std::int64_t t = in_shape[0];
  // Four D×D projections per token; the heads' T×T×d_h score and mix
  // products sum to 2·T²·D for any head count.
  return 4 * t * d_ * d_ + 2 * t * t * d_;
}

std::unique_ptr<Layer> Attention::clone() const {
  auto copy = std::make_unique<Attention>(d_, h_);
  copy->wq_ = wq_; copy->bq_ = bq_;
  copy->wk_ = wk_; copy->bk_ = bk_;
  copy->wv_ = wv_; copy->bv_ = bv_;
  copy->wo_ = wo_; copy->bo_ = bo_;
  return copy;
}

TokenMlp::TokenMlp(int dim, int hidden)
    : d_(dim), h_(hidden), w1_({hidden, dim}), gw1_({hidden, dim}),
      b1_({hidden}), gb1_({hidden}), w2_({dim, hidden}), gw2_({dim, hidden}),
      b2_({dim}), gb2_({dim}) {
  FT_CHECK(dim > 0 && hidden > 0);
}

void TokenMlp::init(Rng& rng) {
  const float bound1 = std::sqrt(6.0f / static_cast<float>(d_));
  const float bound2 = std::sqrt(6.0f / static_cast<float>(h_));
  w1_.rand_uniform(rng, -bound1, bound1);
  w2_.rand_uniform(rng, -bound2, bound2);
  b1_.zero();
  b2_.zero();
}

void TokenMlp::zero_output_projection() {
  w2_.zero();
  b2_.zero();
}

Tensor TokenMlp::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 3 && x.dim(2) == d_,
               "TokenMlp expects [N,T," << d_ << "]");
  x_ = x;
  const int n = x.dim(0), t = x.dim(1);
  const Tensor x2d = x.reshape({n * t, d_});
  hpre_ = dense_forward(x2d, w1_, b1_);
  hact_ = hpre_;
  for (std::int64_t i = 0; i < hact_.numel(); ++i)
    if (hact_[i] < 0.0f) hact_[i] = 0.0f;
  Tensor y = dense_forward(hact_, w2_, b2_);
  return y.reshape({n, t, d_});
}

Tensor TokenMlp::backward(const Tensor& grad_out) {
  const int n = x_.dim(0), t = x_.dim(1);
  const Tensor g2d = grad_out.reshape({n * t, d_});
  Tensor dh = dense_backward(g2d, hact_, w2_, gw2_, gb2_);
  for (std::int64_t i = 0; i < dh.numel(); ++i)
    if (hpre_[i] <= 0.0f) dh[i] = 0.0f;
  const Tensor x2d = x_.reshape({n * t, d_});
  Tensor dx = dense_backward(dh, x2d, w1_, gw1_, gb1_);
  return dx.reshape({n, t, d_});
}

std::vector<ParamRef> TokenMlp::params() {
  return {{&w1_, &gw1_, "w1"}, {&b1_, &gb1_, "b1"},
          {&w2_, &gw2_, "w2"}, {&b2_, &gb2_, "b2"}};
}

std::int64_t TokenMlp::macs(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 2 && in_shape[1] == d_);
  const std::int64_t t = in_shape[0];
  return 2 * t * d_ * h_;
}

std::unique_ptr<Layer> TokenMlp::clone() const {
  auto copy = std::make_unique<TokenMlp>(d_, h_);
  copy->w1_ = w1_; copy->b1_ = b1_;
  copy->w2_ = w2_; copy->b2_ = b2_;
  return copy;
}

Tensor PatchToTokens::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 4, "PatchToTokens expects NCHW");
  cached_shape_ = x.shape();
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int t = h * w;
  Tensor y({n, t, c});
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int i = 0; i < t; ++i)
        y.at(b, i, ch) = x[((static_cast<std::int64_t>(b) * c + ch) * t) + i];
  return y;
}

Tensor PatchToTokens::backward(const Tensor& grad_out) {
  const int n = cached_shape_[0], c = cached_shape_[1], h = cached_shape_[2],
            w = cached_shape_[3];
  const int t = h * w;
  Tensor dx({n, c, h, w});
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int i = 0; i < t; ++i)
        dx[((static_cast<std::int64_t>(b) * c + ch) * t) + i] =
            grad_out.at(b, i, ch);
  return dx;
}

std::vector<int> PatchToTokens::out_shape(const std::vector<int>& in) const {
  FT_CHECK(in.size() == 3);
  return {in[1] * in[2], in[0]};
}

Tensor MeanTokens::forward(const Tensor& x, bool /*train*/) {
  FT_CHECK_MSG(x.ndim() == 3, "MeanTokens expects [N,T,D]");
  cached_shape_ = x.shape();
  const int n = x.dim(0), t = x.dim(1), d = x.dim(2);
  Tensor y({n, d});
  const float inv = 1.0f / static_cast<float>(t);
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < d; ++j) y.at(b, j) += x.at(b, i, j) * inv;
  return y;
}

Tensor MeanTokens::backward(const Tensor& grad_out) {
  const int n = cached_shape_[0], t = cached_shape_[1], d = cached_shape_[2];
  FT_CHECK(grad_out.ndim() == 2 && grad_out.dim(0) == n && grad_out.dim(1) == d);
  Tensor dx({n, t, d});
  const float inv = 1.0f / static_cast<float>(t);
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < t; ++i)
      for (int j = 0; j < d; ++j) dx.at(b, i, j) = grad_out.at(b, j) * inv;
  return dx;
}

std::vector<int> MeanTokens::out_shape(const std::vector<int>& in) const {
  FT_CHECK(in.size() == 2);
  return {in[1]};
}

}  // namespace fedtrans
