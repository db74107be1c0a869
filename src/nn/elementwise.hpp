#pragma once

#include <cstdint>

namespace fedtrans {

// Branch-free elementwise passes of the conv block (Conv2d's bias,
// ScaleShift, ReLU). At the Release flags (-O2), GCC 12 vectorizes a loop
// only when its trip count is fixed and its pointers cannot alias, so each
// pass runs fixed-width chunks over __restrict pointers and finishes the
// tail one element at a time with the same expression: where the tail
// starts cannot change a result. Every pass keeps the NaN, ±0 and ±inf
// results of the plain scalar loop it replaces.

/// y[i] = x[i] < 0 ? 0 : x[i]. NaN and −0 pass through.
void relu_forward(const float* __restrict x, float* __restrict y,
                  std::int64_t n);

/// dx[i] = x[i] <= 0 ? 0 : g[i]. Where x is NaN, g passes through.
void relu_backward(const float* __restrict x, const float* __restrict g,
                   float* __restrict dx, std::int64_t n);

/// y[i] = x[i] · s + t.
void scale_shift_forward(const float* __restrict x, float s, float t,
                         float* __restrict y, std::int64_t n);

/// y[i] = x[i] · s.
void mul_scalar(const float* __restrict x, float s, float* __restrict y,
                std::int64_t n);

/// x[i] += v.
void add_scalar(float* __restrict x, float v, std::int64_t n);

// Per-plane double sums over `count` consecutive planes of `plane` floats.
// Each plane is one chain summed in ascending order, exactly as a plain
// loop sums it; several planes run at once so that their adds overlap
// instead of waiting on one another. No addition is reassociated.

/// sums[q] = Σ_i x[q·plane + i].
void plane_sums(const float* __restrict x, std::int64_t plane,
                std::int64_t count, double* __restrict sums);

/// dots[q] = Σ_i double(g[q·plane + i]) · x[q·plane + i] and
/// sums[q] = Σ_i g[q·plane + i].
void plane_dot_sums(const float* __restrict g, const float* __restrict x,
                    std::int64_t plane, std::int64_t count,
                    double* __restrict dots, double* __restrict sums);

}  // namespace fedtrans
