#include "tensor/tensor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/serial.hpp"

namespace fedtrans {

namespace {
std::int64_t shape_numel(std::span<const int> shape) {
  std::int64_t n = 1;
  for (int d : shape) {
    FT_CHECK_MSG(d >= 0, "negative dimension " << d);
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

Tensor Tensor::from(std::vector<int> shape, std::vector<float> values) {
  FT_CHECK_MSG(shape_numel(shape) == static_cast<std::int64_t>(values.size()),
               "shape/value count mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

int Tensor::dim(int i) const {
  FT_CHECK(i >= 0 && i < ndim());
  return shape_[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::flat_index(std::span<const int> idx) const {
  FT_CHECK_MSG(static_cast<int>(idx.size()) == ndim(),
               "indexing " << idx.size() << "-d into " << ndim() << "-d tensor");
  std::int64_t flat = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    FT_CHECK_MSG(idx[d] >= 0 && idx[d] < shape_[d],
                 "index " << idx[d] << " out of bounds for dim " << d
                          << " (size " << shape_[d] << ")");
    flat = flat * shape_[d] + idx[d];
  }
  return flat;
}

float& Tensor::at(int i0) { return (*this)[flat_index(std::array{i0})]; }
float& Tensor::at(int i0, int i1) {
  return (*this)[flat_index(std::array{i0, i1})];
}
float& Tensor::at(int i0, int i1, int i2) {
  return (*this)[flat_index(std::array{i0, i1, i2})];
}
float& Tensor::at(int i0, int i1, int i2, int i3) {
  return (*this)[flat_index(std::array{i0, i1, i2, i3})];
}
float Tensor::at(int i0) const { return (*this)[flat_index(std::array{i0})]; }
float Tensor::at(int i0, int i1) const {
  return (*this)[flat_index(std::array{i0, i1})];
}
float Tensor::at(int i0, int i1, int i2) const {
  return (*this)[flat_index(std::array{i0, i1, i2})];
}
float Tensor::at(int i0, int i1, int i2, int i3) const {
  return (*this)[flat_index(std::array{i0, i1, i2, i3})];
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

Tensor Tensor::reshape(std::vector<int> new_shape) const {
  FT_CHECK_MSG(shape_numel(new_shape) == numel(), "reshape numel mismatch");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

Tensor& Tensor::add_(const Tensor& other) {
  FT_CHECK_MSG(same_shape(other), "add_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  FT_CHECK_MSG(same_shape(other), "sub_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(float s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::axpy_(float s, const Tensor& other) {
  FT_CHECK_MSG(same_shape(other), "axpy_ shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
  return *this;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

double Tensor::l2_norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

double Tensor::abs_max() const {
  double m = 0.0;
  for (float x : data_) m = std::max(m, static_cast<double>(std::fabs(x)));
  return m;
}

void Tensor::randn(Rng& rng, float stddev) {
  for (auto& x : data_)
    x = static_cast<float>(rng.normal(0.0, static_cast<double>(stddev)));
}

void Tensor::rand_uniform(Rng& rng, float lo, float hi) {
  for (auto& x : data_) x = static_cast<float>(rng.uniform(lo, hi));
}

void Tensor::quantize_storage(Dtype d) {
  round_to_dtype(values(), d);
  dtype_ = d;
}

std::int64_t Tensor::serialized_bytes() const {
  return static_cast<std::int64_t>(1 + shape_.size()) * 4 +
         numel() * dtype_bytes(dtype_);
}

void Tensor::save(std::ostream& os) const {
  // Header word: low byte = rank, second byte = storage dtype (wire v5).
  // F32 tensors — dtype bits zero — serialize byte-identically to the
  // historical rank-only header, so old checkpoints load unchanged.
  const std::int32_t nd =
      ndim() | (static_cast<std::int32_t>(dtype_) << 8);
  os.write(reinterpret_cast<const char*>(&nd), sizeof(nd));
  for (int d : shape_) {
    std::int32_t v = d;
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  if (dtype_ == Dtype::F32) {
    os.write(reinterpret_cast<const char*>(data_.data()),
             static_cast<std::streamsize>(data_.size() * sizeof(float)));
  } else {
    // Half-storage payloads ship 2 bytes/element. Values were rounded onto
    // the half grid by quantize_storage, so this narrowing is lossless and
    // the round-trip is exact.
    std::vector<std::uint16_t> half(data_.size());
    f32_to_half(data_.data(), half.data(), numel(), dtype_);
    os.write(reinterpret_cast<const char*>(half.data()),
             static_cast<std::streamsize>(half.size() * sizeof(std::uint16_t)));
  }
}

Tensor Tensor::load(std::istream& is) {
  std::int32_t hdr = 0;
  is.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  const std::int32_t nd = hdr & 0xff;
  const std::int32_t dt = (hdr >> 8) & 0xff;
  FT_CHECK_MSG(is.good() && (hdr >> 16) == 0 && nd <= 8 && dt <= 2,
               "corrupt tensor header");
  std::vector<int> shape(static_cast<std::size_t>(nd));
  // Bound the element count by the bytes left before allocating for it, so
  // a corrupt dim fails as an Error instead of an int64 overflow or a
  // multi-terabyte allocation (a negative dim converts to a huge count and
  // fails the same way). O(1) per tensor: the wire decoder's stream seeks
  // in place.
  constexpr std::uint64_t kSaturated = std::uint64_t{1} << 62;
  std::uint64_t numel = 1;
  for (auto& d : shape) {
    std::int32_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    d = v;
    const auto dim = static_cast<std::uint64_t>(v);
    numel = dim != 0 && numel > kSaturated / dim ? kSaturated : numel * dim;
  }
  const auto dtype = static_cast<Dtype>(dt);
  FT_CHECK_MSG(numel <= stream_remaining(is) /
                            static_cast<std::uint64_t>(dtype_bytes(dtype)),
               "tensor payload exceeds remaining stream");
  Tensor t(shape);
  t.dtype_ = dtype;
  if (t.dtype_ == Dtype::F32) {
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  } else {
    std::vector<std::uint16_t> half(static_cast<std::size_t>(t.numel()));
    is.read(reinterpret_cast<char*>(half.data()),
            static_cast<std::streamsize>(half.size() * sizeof(std::uint16_t)));
    half_to_f32(half.data(), t.data(), t.numel(), t.dtype_);
  }
  FT_CHECK_MSG(is.good(), "corrupt tensor payload");
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.add_(b);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.sub_(b);
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  c.mul_(s);
  return c;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FT_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul expects 2-D tensors");
  FT_CHECK_MSG(a.dim(1) == b.dim(0), "matmul inner dimension mismatch");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
       n);
  return c;
}

double squared_distance(const Tensor& a, const Tensor& b) {
  FT_CHECK_MSG(a.same_shape(b), "squared_distance shape mismatch");
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace fedtrans
