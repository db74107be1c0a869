#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace fedtrans {

/// Which convolution implementation Conv2d dispatches to.
/// `Im2col` (default) lowers the convolution onto the blocked GEMM; `Direct`
/// keeps the original loop nest as an auditable reference for parity tests.
/// Initial value can be forced with FEDTRANS_CONV_BACKEND=direct|im2col.
enum class ConvBackend { Im2col, Direct };
ConvBackend conv_backend();
void set_conv_backend(ConvBackend backend);

/// Unfold one NCHW image plane-stack (`channels` × h × w) into a
/// [channels·k·k, oh·ow] column matrix (Caffe layout: channel-major rows,
/// spatial-major columns); out-of-bounds taps are zero. `ld` is the row
/// stride of the destination (row r starts at col + r·ld), which lets
/// several images unfold side by side into one wide batch panel; the
/// default -1 means oh·ow (a self-contained single-image matrix).
void im2col(const float* im, int channels, int h, int w, int kernel,
            int stride, int pad, float* col, std::int64_t ld = -1);

/// Scatter-add a [channels·k·k, oh·ow] column matrix back into the image it
/// was unfolded from (the adjoint of im2col). Accumulates into `im`. `ld`
/// strides the source rows exactly as in im2col.
void col2im(const float* col, int channels, int h, int w, int kernel,
            int stride, int pad, float* im, std::int64_t ld = -1);

/// Conv2d's geometry. Weight layout [out_c, in_c/groups, k, k].
struct ConvDims {
  int in_c = 0;
  int out_c = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;
  int groups = 1;

  int out_hw(int in_hw) const {
    return (in_hw + 2 * pad - kernel) / stride + 1;
  }
};

/// The reference loop nest: y[N, out_c, oh, ow] = conv(x) + bias, one
/// multiply-add per (output, tap). `bias` may be null. The im2col lowering
/// below is parity-tested against it.
void conv_forward_direct(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y);

/// Backward pass of the reference loop nest: accumulates into `gw` (and
/// `gb` if non-null) and returns dL/dx. `grad_out` is [N, out_c, oh, ow].
Tensor conv_backward_direct(const Tensor& x, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d);

/// True when the column panels of every group for a whole [n, in_c, h, w]
/// batch fit the column budget (8 MB) at once: in_c·k·k rows of n·oh·ow
/// floats. Then conv_forward_im2col can keep them for the backward pass.
bool conv_panel_fits(const ConvDims& d, int n, int h, int w);

/// y[N, out_c, oh, ow] = conv(x) + bias, lowered per group onto
/// gemm(W_g [ocg, icg·k·k] × col_g [icg·k·k, bt·oh·ow]) where the column
/// panel concatenates a tile of `bt` batch images along N — so grouped
/// models get dense-sized GEMMs instead of one sliver per (image, group).
/// `bias` may be null. With `panel` non-null the batch must fit
/// (conv_panel_fits): every group's columns are unfolded into *panel, group
/// g's [icg·k·k, N·oh·ow] block at offset g·icg·k·k·N·oh·ow, and left there
/// for conv_backward_im2col.
void conv_forward_im2col(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y,
                         std::vector<float>* panel = nullptr);

/// Backward pass of the same lowering over an input of shape `in_shape`
/// ([N, in_c, H, W]). It reads the forward's columns from `panel` when
/// non-null (as conv_forward_im2col left them) and otherwise unfolds the
/// input `x` again, tile by tile. Accumulates into `gw` (and `gb` if
/// non-null) and returns dL/dx. With `input_grad` false it skips the
/// column-gradient GEMM, col2im and the dx allocation, and returns an empty
/// tensor. `grad_out` is [N, out_c, oh, ow].
Tensor conv_backward_im2col(const std::vector<int>& in_shape, const float* x,
                            const float* panel, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d, bool input_grad = true);

}  // namespace fedtrans
