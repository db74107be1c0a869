#include "nn/im2col.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.hpp"

namespace fedtrans {

namespace {

ConvBackend initial_backend() {
  if (const char* env = std::getenv("FEDTRANS_CONV_BACKEND")) {
    if (std::strcmp(env, "direct") == 0) return ConvBackend::Direct;
  }
  return ConvBackend::Im2col;
}

std::atomic<ConvBackend> g_backend{initial_backend()};

inline int conv_out(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

// Column-buffer budget for the batched lowering: images are tiled so one
// group's [ckk, bt·oh·ow] panel stays within this many bytes.
constexpr std::int64_t kColBudgetBytes = 8 << 20;

}  // namespace

ConvBackend conv_backend() { return g_backend.load(std::memory_order_relaxed); }
void set_conv_backend(ConvBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

void im2col(const float* im, int channels, int h, int w, int kernel,
            int stride, int pad, float* col, std::int64_t ld) {
  const int oh = conv_out(h, kernel, stride, pad);
  const int ow = conv_out(w, kernel, stride, pad);
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  if (ld < 0) ld = out_plane;
  float* row_base = col;
  for (int c = 0; c < channels; ++c) {
    const float* imc = im + static_cast<std::int64_t>(c) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        float* out = row_base;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            std::memset(out, 0, static_cast<std::size_t>(ow) * sizeof(float));
            out += ow;
            continue;
          }
          const float* row = imc + static_cast<std::int64_t>(iy) * w;
          if (pad == 0 && stride == 1) {
            // Fully in-bounds fast path: a contiguous copy.
            std::memcpy(out, row + kx,
                        static_cast<std::size_t>(ow) * sizeof(float));
          } else {
            for (int ox = 0; ox < ow; ++ox) {
              const int ix = ox * stride - pad + kx;
              out[ox] = (ix >= 0 && ix < w) ? row[ix] : 0.0f;
            }
          }
          out += ow;
        }
        row_base += ld;
      }
    }
  }
}

void col2im(const float* col, int channels, int h, int w, int kernel,
            int stride, int pad, float* im, std::int64_t ld) {
  const int oh = conv_out(h, kernel, stride, pad);
  const int ow = conv_out(w, kernel, stride, pad);
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  if (ld < 0) ld = out_plane;
  const float* row_base = col;
  for (int c = 0; c < channels; ++c) {
    float* imc = im + static_cast<std::int64_t>(c) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const float* in = row_base;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            in += ow;
            continue;
          }
          float* row = imc + static_cast<std::int64_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            if (ix >= 0 && ix < w) row[ix] += in[ox];
          }
          in += ow;
        }
        row_base += ld;
      }
    }
  }
}

void conv_forward_direct(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const int icg = d.in_c / d.groups;  // in channels per group
  const int ocg = d.out_c / d.groups;
  const int k = d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + b * d.in_c * in_plane;
    float* yb = y.data() + b * d.out_c * out_plane;
    for (int oc = 0; oc < d.out_c; ++oc) {
      const int g = oc / ocg;
      const float bv = bias ? (*bias)[oc] : 0.0f;
      float* yo = yb + oc * out_plane;
      for (std::int64_t i = 0; i < out_plane; ++i) yo[i] = bv;
      for (int icl = 0; icl < icg; ++icl) {  // channel index within group
        const float* xi = xb + (g * icg + icl) * in_plane;
        const float* wk =
            w.data() + (static_cast<std::int64_t>(oc) * icg + icl) * k * k;
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx) {
            const float wv = wk[ky * k + kx];
            if (wv == 0.0f) continue;
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * d.stride - d.pad + ky;
              if (iy < 0 || iy >= h) continue;
              float* yrow = yo + oy * ow;
              const float* xrow = xi + iy * wdt;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * d.stride - d.pad + kx;
                if (ix < 0 || ix >= wdt) continue;
                yrow[ox] += wv * xrow[ix];
              }
            }
          }
      }
    }
  }
}

Tensor conv_backward_direct(const Tensor& x, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int k = d.kernel;
  Tensor dx({n, d.in_c, h, wdt});
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + b * d.in_c * in_plane;
    const float* gbatch = grad_out.data() + b * d.out_c * out_plane;
    float* dxb = dx.data() + b * d.in_c * in_plane;
    for (int oc = 0; oc < d.out_c; ++oc) {
      const int g = oc / ocg;
      const float* go = gbatch + oc * out_plane;
      if (gb) {
        double s = 0.0;
        for (std::int64_t i = 0; i < out_plane; ++i) s += go[i];
        (*gb)[oc] += static_cast<float>(s);
      }
      for (int icl = 0; icl < icg; ++icl) {
        const int ic = g * icg + icl;
        const float* xi = xb + ic * in_plane;
        float* dxi = dxb + ic * in_plane;
        const std::int64_t wbase =
            (static_cast<std::int64_t>(oc) * icg + icl) * k * k;
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx) {
            const float wv = w[wbase + ky * k + kx];
            double gw_acc = 0.0;
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * d.stride - d.pad + ky;
              if (iy < 0 || iy >= h) continue;
              const float* grow = go + oy * ow;
              const float* xrow = xi + iy * wdt;
              float* dxrow = dxi + iy * wdt;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * d.stride - d.pad + kx;
                if (ix < 0 || ix >= wdt) continue;
                const float gval = grow[ox];
                gw_acc += static_cast<double>(gval) * xrow[ix];
                dxrow[ix] += wv * gval;
              }
            }
            gw[wbase + ky * k + kx] += static_cast<float>(gw_acc);
          }
      }
    }
  }
  return dx;
}

// Both lowerings batch the whole image tile into ONE [ckk, bt·oh·ow] column
// panel per group before calling gemm. Per-(image, group) GEMMs — the
// historical shape — have N = oh·ow, which for FedTrans's narrow grouped
// models is far too small to amortize panel packing (most fell through to
// the plain-loop path entirely); concatenating the batch along N restores a
// dense-sized GEMM per group. Each output element's K-dot runs in the same
// ascending order as before, so forward results are unchanged and backward
// only reassociates the gW batch sum (covered by tolerance parity tests).

void conv_forward_im2col(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  const int bt_max = std::max<int>(
      1, static_cast<int>(kColBudgetBytes /
                          (static_cast<std::int64_t>(sizeof(float)) *
                           std::max(ckk, 1) * std::max<std::int64_t>(out_plane, 1))));
  thread_local std::vector<float> col;
  thread_local std::vector<float> ybuf;

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    col.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      for (int bi = 0; bi < bt; ++bi)
        im2col(x.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               icg, h, wdt, d.kernel, d.stride, d.pad,
               col.data() + static_cast<std::int64_t>(bi) * out_plane, ncols);
      const float* w_g = w.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      if (bt == 1) {
        // Single image: gemm writes straight into y's [oc, oh·ow] rows.
        gemm(false, false, ocg, static_cast<int>(out_plane), ckk, 1.0f, w_g,
             ckk, col.data(), static_cast<int>(out_plane), 0.0f,
             y.data() + (static_cast<std::int64_t>(b0) * d.out_c + g * ocg) *
                            out_plane,
             static_cast<int>(out_plane));
      } else {
        ybuf.resize(static_cast<std::size_t>(ocg) * ncols);
        gemm(false, false, ocg, static_cast<int>(ncols), ckk, 1.0f, w_g, ckk,
             col.data(), static_cast<int>(ncols), 0.0f, ybuf.data(),
             static_cast<int>(ncols));
        // Scatter the [ocg, bt·oh·ow] panel back to NCHW.
        for (int bi = 0; bi < bt; ++bi) {
          float* yb =
              y.data() +
              (static_cast<std::int64_t>(b0 + bi) * d.out_c + g * ocg) *
                  out_plane;
          for (int oc = 0; oc < ocg; ++oc)
            std::memcpy(yb + static_cast<std::int64_t>(oc) * out_plane,
                        ybuf.data() + static_cast<std::int64_t>(oc) * ncols +
                            static_cast<std::int64_t>(bi) * out_plane,
                        static_cast<std::size_t>(out_plane) * sizeof(float));
        }
      }
    }
  }

  if (bias) {
    for (int b = 0; b < n; ++b) {
      float* yb = y.data() + static_cast<std::int64_t>(b) * d.out_c * out_plane;
      for (int oc = 0; oc < d.out_c; ++oc) {
        const float bv = (*bias)[oc];
        float* row = yb + static_cast<std::int64_t>(oc) * out_plane;
        for (std::int64_t i = 0; i < out_plane; ++i) row[i] += bv;
      }
    }
  }
}

Tensor conv_backward_im2col(const Tensor& x, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  Tensor dx({n, d.in_c, h, wdt});

  if (gb) {
    for (int b = 0; b < n; ++b) {
      const float* gob =
          grad_out.data() + static_cast<std::int64_t>(b) * d.out_c * out_plane;
      for (int oc = 0; oc < d.out_c; ++oc) {
        const float* go = gob + static_cast<std::int64_t>(oc) * out_plane;
        double s = 0.0;
        for (std::int64_t i = 0; i < out_plane; ++i) s += go[i];
        (*gb)[oc] += static_cast<float>(s);
      }
    }
  }

  const int bt_max = std::max<int>(
      1, static_cast<int>(kColBudgetBytes /
                          (static_cast<std::int64_t>(sizeof(float)) *
                           std::max(ckk, 1) * std::max<std::int64_t>(out_plane, 1))));
  thread_local std::vector<float> col;
  thread_local std::vector<float> dcol;
  thread_local std::vector<float> gobuf;

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    col.resize(static_cast<std::size_t>(ckk) * ncols);
    dcol.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      for (int bi = 0; bi < bt; ++bi)
        im2col(x.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               icg, h, wdt, d.kernel, d.stride, d.pad,
               col.data() + static_cast<std::int64_t>(bi) * out_plane, ncols);
      // Gather dY_g for the tile into a [ocg, bt·oh·ow] panel (for bt == 1
      // grad_out's own rows already have that layout).
      const float* go_g;
      if (bt == 1) {
        go_g = grad_out.data() +
               (static_cast<std::int64_t>(b0) * d.out_c + g * ocg) * out_plane;
      } else {
        gobuf.resize(static_cast<std::size_t>(ocg) * ncols);
        for (int bi = 0; bi < bt; ++bi) {
          const float* gob =
              grad_out.data() +
              (static_cast<std::int64_t>(b0 + bi) * d.out_c + g * ocg) *
                  out_plane;
          for (int oc = 0; oc < ocg; ++oc)
            std::memcpy(gobuf.data() + static_cast<std::int64_t>(oc) * ncols +
                            static_cast<std::int64_t>(bi) * out_plane,
                        gob + static_cast<std::int64_t>(oc) * out_plane,
                        static_cast<std::size_t>(out_plane) * sizeof(float));
        }
        go_g = gobuf.data();
      }
      const float* w_g = w.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      float* gw_g = gw.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      // gW_g += dY_g · colᵀ (one batch-wide K reduction per tile)
      gemm(false, true, ocg, ckk, static_cast<int>(ncols), 1.0f, go_g,
           static_cast<int>(ncols), col.data(), static_cast<int>(ncols), 1.0f,
           gw_g, ckk);
      // dcol = W_gᵀ · dY_g, then scatter each image back into dx.
      gemm(true, false, ckk, static_cast<int>(ncols), ocg, 1.0f, w_g, ckk,
           go_g, static_cast<int>(ncols), 0.0f, dcol.data(),
           static_cast<int>(ncols));
      for (int bi = 0; bi < bt; ++bi)
        col2im(dcol.data() + static_cast<std::int64_t>(bi) * out_plane, icg, h,
               wdt, d.kernel, d.stride, d.pad,
               dx.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               ncols);
    }
  }
  return dx;
}

}  // namespace fedtrans
