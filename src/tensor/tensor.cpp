#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole {
namespace {

std::size_t shape_size(const Shape& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

void require_same_shape(const Tensor& a, const Tensor& b,
                        const char* op_name) {
  ANOLE_CHECK(a.shape() == b.shape(), op_name, ": shape mismatch ",
              shape_to_string(a.shape()), " vs ",
              shape_to_string(b.shape()));
}

/// Whole-tensor sums add one partial per fixed 4096-element block, in
/// ascending block order: the blocking is part of the numeric result.
constexpr std::size_t kReduceBlock = 4096;

// The shared GEMM driver behind all three matmul entry points: C = A' B
// with A' read as pa[i*ars + kk*acs] (contiguous for matmul, stride-m for
// matmul_transpose_a; matmul_transpose_b materializes B^T once and then
// uses the contiguous strides). The cache-blocked kernel lives in
// tensor/simd.cpp and is dispatched once per call; it produces each C row
// with kk ascending, so its blocking never changes results at a fixed
// dispatch level. A non-null `pbias` is added in the kernel's final store.
void dispatched_gemm(std::size_t m, std::size_t k, std::size_t n,
                     const float* pa, std::size_t ars, std::size_t acs,
                     const float* pb, float* pc,
                     const float* pbias = nullptr) {
  if (k == 0) {
    // The kernel's depth loop never runs, so fill here: the empty sum +0,
    // plus the bias as the kernel would add it.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        pc[i * n + j] = pbias == nullptr ? 0.0f : 0.0f + pbias[j];
      }
    }
    return;
  }
  simd::gemm_rows(simd::active_level(), 0, m, k, n, pa, ars, acs, pb, pbias,
                  pc);
}

}  // namespace

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_size(shape_), fill) {}

Tensor::Tensor(Shape shape, FloatBuffer data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  ANOLE_CHECK_EQ(data_.size(), shape_size(shape_),
                 "Tensor: data size does not match shape ",
                 shape_to_string(shape_));
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  ANOLE_CHECK_EQ(data_.size(), shape_size(shape_),
                 "Tensor: data size does not match shape ",
                 shape_to_string(shape_));
}

Tensor::Tensor(Shape shape, std::initializer_list<float> data)
    : Tensor(std::move(shape), FloatBuffer(data)) {}

Tensor::Tensor(UninitializedTag, Shape shape) : shape_(std::move(shape)) {
  // resize() default-initializes through DefaultInitAllocator: no fill.
  data_.resize(shape_size(shape_));
}

Tensor Tensor::uninitialized(Shape shape) {
  return Tensor(UninitializedTag{}, std::move(shape));
}

Tensor Tensor::matrix(std::size_t rows, std::size_t cols, float fill) {
  return Tensor(Shape{rows, cols}, fill);
}

Tensor Tensor::vector(std::initializer_list<float> values) {
  return Tensor(Shape{values.size()}, FloatBuffer(values));
}

Tensor Tensor::vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Tensor(Shape{n}, FloatBuffer(values.begin(), values.end()));
}

std::size_t Tensor::dim(std::size_t i) const {
  ANOLE_CHECK_LT(i, shape_.size(), "Tensor::dim: axis out of range for ",
                 shape_to_string(shape_));
  return shape_[i];
}

std::size_t Tensor::rows() const {
  ANOLE_CHECK_EQ(rank(), 2u, "Tensor::rows on ", shape_to_string(shape_));
  return shape_[0];
}

std::size_t Tensor::cols() const {
  ANOLE_CHECK_EQ(rank(), 2u, "Tensor::cols on ", shape_to_string(shape_));
  return shape_[1];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  ANOLE_DCHECK(rank() == 2, "Tensor::at on ", shape_to_string(shape_));
  ANOLE_DCHECK_RANGE(r, shape_[0], "Tensor::at row");
  ANOLE_DCHECK_RANGE(c, shape_[1], "Tensor::at col");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  ANOLE_DCHECK(rank() == 2, "Tensor::at on ", shape_to_string(shape_));
  ANOLE_DCHECK_RANGE(r, shape_[0], "Tensor::at row");
  ANOLE_DCHECK_RANGE(c, shape_[1], "Tensor::at col");
  return data_[r * shape_[1] + c];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  ANOLE_CHECK_EQ(shape_size(new_shape), data_.size(),
                 "Tensor::reshaped: size mismatch for shape ",
                 shape_to_string(new_shape));
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  require_same_shape(*this, other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  require_same_shape(*this, other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  require_same_shape(*this, other, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  require_same_shape(*this, other, "add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

float Tensor::sum() const {
  float total = 0.0f;
  for (std::size_t lo = 0; lo < data_.size(); lo += kReduceBlock) {
    const std::size_t hi = std::min(data_.size(), lo + kReduceBlock);
    float partial = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) partial += data_[i];
    total += partial;
  }
  return total;
}

float Tensor::mean() const {
  if (data_.empty()) return 0.0f;
  return sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  // A max is exact in any order, so it needs no blocking.
  float result = 0.0f;
  for (float v : data_) result = std::max(result, std::abs(v));
  return result;
}

float Tensor::l2_norm() const {
  double sum_sq = 0.0;
  for (std::size_t lo = 0; lo < data_.size(); lo += kReduceBlock) {
    const std::size_t hi = std::min(data_.size(), lo + kReduceBlock);
    double partial = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      partial += static_cast<double>(data_[i]) * data_[i];
    }
    sum_sq += partial;
  }
  return static_cast<float>(std::sqrt(sum_sq));
}

std::span<float> Tensor::row(std::size_t r) {
  ANOLE_CHECK_EQ(rank(), 2u, "Tensor::row on ", shape_to_string(shape_));
  ANOLE_CHECK_LT(r, shape_[0], "Tensor::row out of range");
  return std::span<float>(data_).subspan(r * shape_[1], shape_[1]);
}

std::span<const float> Tensor::row(std::size_t r) const {
  ANOLE_CHECK_EQ(rank(), 2u, "Tensor::row on ", shape_to_string(shape_));
  ANOLE_CHECK_LT(r, shape_[0], "Tensor::row out of range");
  return std::span<const float>(data_).subspan(r * shape_[1], shape_[1]);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  ANOLE_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: rank != 2");
  ANOLE_CHECK_EQ(a.cols(), b.rows(), "matmul: inner dimension mismatch ",
                 shape_to_string(a.shape()), " x ",
                 shape_to_string(b.shape()));
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  Tensor c = Tensor::uninitialized(Shape{m, n});
  dispatched_gemm(m, k, n, a.data().data(), k, 1, b.data().data(),
                  c.data().data());
  return c;
}

Tensor matmul_bias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  ANOLE_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_bias: rank != 2");
  ANOLE_CHECK_EQ(a.cols(), b.rows(), "matmul_bias: inner dimension mismatch ",
                 shape_to_string(a.shape()), " x ",
                 shape_to_string(b.shape()));
  ANOLE_CHECK(bias.rank() == 1 && bias.size() == b.cols(),
              "matmul_bias: bias shape ", shape_to_string(bias.shape()),
              " does not match ", b.cols(), " output columns");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  Tensor c = Tensor::uninitialized(Shape{m, n});
  dispatched_gemm(m, k, n, a.data().data(), k, 1, b.data().data(),
                  c.data().data(), bias.data().data());
  return c;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  ANOLE_CHECK(a.rank() == 2 && b.rank() == 2,
              "matmul_transpose_a: rank != 2");
  ANOLE_CHECK_EQ(a.rows(), b.rows(),
                 "matmul_transpose_a: outer dimension mismatch ",
                 shape_to_string(a.shape()), " x ",
                 shape_to_string(b.shape()));
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  Tensor c = Tensor::uninitialized(Shape{m, n});
  // A is read with column stride m; the kk blocking in the shared kernel
  // keeps the touched A elements and the B panel resident.
  dispatched_gemm(m, k, n, a.data().data(), 1, m, b.data().data(),
                  c.data().data());
  return c;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  ANOLE_CHECK(a.rank() == 2 && b.rank() == 2,
              "matmul_transpose_b: rank != 2");
  ANOLE_CHECK_EQ(a.cols(), b.cols(),
                 "matmul_transpose_b: inner dimension mismatch ",
                 shape_to_string(a.shape()), " x ",
                 shape_to_string(b.shape()));
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  Tensor c = Tensor::uninitialized(Shape{m, n});
  // Materialize B^T once (k*n work, negligible against the m*k*n kernel)
  // so the shared blocked kernel's inner loop stays contiguous in both
  // operands. Accumulation is kk-ascending per output element, exactly as
  // in the other entry points.
  const Tensor bt = transpose(b);
  dispatched_gemm(m, k, n, a.data().data(), k, 1, bt.data().data(),
                  c.data().data());
  return c;
}

Tensor operator+(Tensor a, const Tensor& b) {
  a += b;
  return a;
}

Tensor operator-(Tensor a, const Tensor& b) {
  a -= b;
  return a;
}

Tensor operator*(Tensor a, const Tensor& b) {
  a *= b;
  return a;
}

Tensor operator*(Tensor a, float scalar) {
  a *= scalar;
  return a;
}

Tensor sum_rows(const Tensor& matrix) {
  ANOLE_CHECK_EQ(matrix.rank(), 2u, "sum_rows: rank != 2");
  Tensor out = Tensor::uninitialized(Shape{matrix.cols()});
  simd::column_sums(simd::active_level(), matrix.data().data(), matrix.rows(),
                    matrix.cols(), out.data().data());
  return out;
}

Tensor transpose(const Tensor& matrix) {
  ANOLE_CHECK_EQ(matrix.rank(), 2u, "transpose: rank != 2");
  Tensor out = Tensor::uninitialized(Shape{matrix.cols(), matrix.rows()});
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      out.at(c, r) = matrix.at(r, c);
    }
  }
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

}  // namespace anole
