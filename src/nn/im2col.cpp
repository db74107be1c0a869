#include "nn/im2col.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "nn/elementwise.hpp"

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
// group's [ckk, bt·oh·ow] panel stays within this many bytes, and a training
// forward keeps its panels for backward only if all groups' fit together.
constexpr std::int64_t kColBudgetBytes = 8 << 20;

// Images per tile: one group's [ckk, bt·oh·ow] panel stays within budget.
int tile_images(int ckk, std::int64_t out_plane) {
  return std::max<int>(
      1, static_cast<int>(kColBudgetBytes /
                          (static_cast<std::int64_t>(sizeof(float)) *
                           std::max(ckk, 1) *
                           std::max<std::int64_t>(out_plane, 1))));
}

// Valid output range [lo, hi) of a stride-1 tap with offset `off` along one
// axis: output index o reads input o + off, which must lie in [0, in).
struct TapSpan {
  int lo, hi;
};
inline TapSpan tap_span(int off, int in, int out) {
  const int lo = std::clamp(-off, 0, out);
  return {lo, std::clamp(in - off, lo, out)};
}

// Stride-1 unfold of one tap (dy, dx) = (ky − pad, kx − pad) into its
// [oh·ow] column row: output (oy, ox) reads input (oy + dy, ox + dx), so the
// valid rows and columns copy without a per-element bounds test, and the
// rest is zeroed. Every source pointer is a row start plus a non-negative
// column.
void unfold_tap_stride1(const float* im, int h, int w, int dy, int dx, int oh,
                        int ow, float* out) {
  const TapSpan ys = tap_span(dy, h, oh), xs = tap_span(dx, w, ow);
  const auto rows_lo = static_cast<std::int64_t>(ys.lo) * ow;
  const auto rows_hi = static_cast<std::int64_t>(ys.hi) * ow;
  const auto plane = static_cast<std::int64_t>(oh) * ow;
  if (rows_lo > 0)
    std::memset(out, 0, static_cast<std::size_t>(rows_lo) * sizeof(float));
  if (rows_hi > rows_lo && xs.hi > xs.lo) {
    if (ow == w) {
      // "Same" convolution: input and output rows share one stride, so the
      // valid rows are one shifted block. It also copies wrapped
      // neighbours into each row's edge columns, zeroed below.
      const auto first = rows_lo + xs.lo;
      const auto last = rows_hi - ow + xs.hi;
      const auto src = static_cast<std::int64_t>(ys.lo + dy) * w + (xs.lo + dx);
      std::memcpy(out + first, im + src,
                  static_cast<std::size_t>(last - first) * sizeof(float));
    } else {
      for (int oy = ys.lo; oy < ys.hi; ++oy) {
        const auto src = static_cast<std::int64_t>(oy + dy) * w + (xs.lo + dx);
        std::memcpy(out + static_cast<std::int64_t>(oy) * ow + xs.lo, im + src,
                    static_cast<std::size_t>(xs.hi - xs.lo) * sizeof(float));
      }
    }
  }
  // Edge columns of the valid rows, one column at a time: a kernel's
  // half-width is a column or two, so this beats a fill per row.
  auto zero_column = [&](int ox) {
    for (auto i = rows_lo + ox; i < rows_hi; i += ow) out[i] = 0.0f;
  };
  for (int ox = 0; ox < xs.lo; ++ox) zero_column(ox);
  for (int ox = xs.hi; ox < ow; ++ox) zero_column(ox);
  if (plane > rows_hi)
    std::memset(out + rows_hi, 0,
                static_cast<std::size_t>(plane - rows_hi) * sizeof(float));
}

// The adjoint of unfold_tap_stride1: add the tap's valid block back into the
// image, row by row, without a per-element bounds test. Each image element
// receives the same additions in the same order as the bounds-checked loop.
void fold_tap_stride1(const float* __restrict in, int h, int w, int dy,
                      int dx, int oh, int ow, float* __restrict im) {
  const TapSpan ys = tap_span(dy, h, oh), xs = tap_span(dx, w, ow);
  for (int oy = ys.lo; oy < ys.hi; ++oy) {
    const float* src = in + (static_cast<std::int64_t>(oy) * ow + xs.lo);
    float* dst = im + (static_cast<std::int64_t>(oy + dy) * w + (xs.lo + dx));
    const int len = xs.hi - xs.lo;
    // Fixed 8-wide chunks: at -O2, GCC vectorizes a loop only when its trip
    // count is known.
    int i = 0;
    for (; i + 8 <= len; i += 8)
      for (int j = 0; j < 8; ++j) dst[i + j] += src[i + j];
    for (; i < len; ++i) dst[i] += src[i];
  }
}

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
        if (stride == 1) {
          unfold_tap_stride1(imc, h, w, ky - pad, kx - pad, oh, ow, row_base);
          row_base += ld;
          continue;
        }
        float* out = row_base;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            std::memset(out, 0, static_cast<std::size_t>(ow) * sizeof(float));
            out += ow;
            continue;
          }
          const float* row = imc + static_cast<std::int64_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            out[ox] = (ix >= 0 && ix < w) ? row[ix] : 0.0f;
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
        if (stride == 1) {
          fold_tap_stride1(row_base, h, w, ky - pad, kx - pad, oh, ow, imc);
          row_base += ld;
          continue;
        }
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
//
// A training forward whose whole batch fits the budget with every group's
// panel at once (conv_panel_fits) unfolds into the caller's panel instead of
// a scratch buffer, and backward reads it back rather than unfolding the
// input a second time. Such a batch is one tile either way, so both passes
// run exactly the GEMMs of the recomputing path.

bool conv_panel_fits(const ConvDims& d, int n, int h, int w) {
  const std::int64_t floats = static_cast<std::int64_t>(d.in_c) * d.kernel *
                              d.kernel * n * d.out_hw(h) * d.out_hw(w);
  return floats * static_cast<std::int64_t>(sizeof(float)) <= kColBudgetBytes;
}

void conv_forward_im2col(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y,
                         std::vector<float>* panel) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  const int bt_max = tile_images(ckk, out_plane);
  if (panel) {
    FT_CHECK(conv_panel_fits(d, n, h, wdt));
    panel->resize(static_cast<std::size_t>(d.groups) * ckk * n * out_plane);
  }
  // A panel that is not kept is freed at return: a thread-lifetime buffer
  // would pin the largest eval batch's columns, and kept panels could not
  // reuse that memory.
  std::vector<float> scratch;
  thread_local std::vector<float> ybuf;

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    if (!panel) scratch.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      float* col = panel ? panel->data() + static_cast<std::int64_t>(g) * ckk *
                                               ncols
                         : scratch.data();
      for (int bi = 0; bi < bt; ++bi)
        im2col(x.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               icg, h, wdt, d.kernel, d.stride, d.pad,
               col + static_cast<std::int64_t>(bi) * out_plane, ncols);
      const float* w_g = w.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      if (bt == 1) {
        // Single image: gemm writes straight into y's [oc, oh·ow] rows.
        gemm(false, false, ocg, static_cast<int>(out_plane), ckk, 1.0f, w_g,
             ckk, col, static_cast<int>(out_plane), 0.0f,
             y.data() + (static_cast<std::int64_t>(b0) * d.out_c + g * ocg) *
                            out_plane,
             static_cast<int>(out_plane));
      } else {
        ybuf.resize(static_cast<std::size_t>(ocg) * ncols);
        gemm(false, false, ocg, static_cast<int>(ncols), ckk, 1.0f, w_g, ckk,
             col, static_cast<int>(ncols), 0.0f, ybuf.data(),
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
    // Plane q = b·out_c + oc of y takes bias[oc].
    const std::int64_t planes = static_cast<std::int64_t>(n) * d.out_c;
    for (std::int64_t q = 0; q < planes; ++q)
      add_scalar(y.data() + q * out_plane,
                 (*bias)[static_cast<int>(q % d.out_c)], out_plane);
  }
}

Tensor conv_backward_im2col(const std::vector<int>& in_shape, const float* x,
                            const float* panel, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d, bool input_grad) {
  FT_CHECK(in_shape.size() == 4 && (x == nullptr) != (panel == nullptr));
  const int n = in_shape[0], h = in_shape[2], wdt = in_shape[3];
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  Tensor dx = input_grad ? Tensor({n, d.in_c, h, wdt}) : Tensor();

  if (gb) {
    // One double sum per plane q = b·out_c + oc of dY, committed in
    // ascending q so each channel takes its images in order.
    const std::int64_t planes = static_cast<std::int64_t>(n) * d.out_c;
    std::vector<double> sums(static_cast<std::size_t>(planes));
    plane_sums(grad_out.data(), out_plane, planes, sums.data());
    for (std::int64_t q = 0; q < planes; ++q)
      (*gb)[static_cast<int>(q % d.out_c)] +=
          static_cast<float>(sums[static_cast<std::size_t>(q)]);
  }

  // A kept panel holds the whole batch, which is then a single tile.
  const int bt_max = panel ? n : tile_images(ckk, out_plane);
  std::vector<float> scratch;  // freed at return, as in the forward
  thread_local std::vector<float> dcol;
  thread_local std::vector<float> gobuf;

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    if (!panel) scratch.resize(static_cast<std::size_t>(ckk) * ncols);
    if (input_grad) dcol.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      const float* col;
      if (panel) {
        col = panel + static_cast<std::int64_t>(g) * ckk * ncols;
      } else {
        for (int bi = 0; bi < bt; ++bi)
          im2col(x + (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                         in_plane,
                 icg, h, wdt, d.kernel, d.stride, d.pad,
                 scratch.data() + static_cast<std::int64_t>(bi) * out_plane,
                 ncols);
        col = scratch.data();
      }
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
           static_cast<int>(ncols), col, static_cast<int>(ncols), 1.0f, gw_g,
           ckk);
      if (!input_grad) continue;
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
