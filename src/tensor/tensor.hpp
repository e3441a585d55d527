// Dense row-major float tensor. This is the numerical substrate for the
// neural-network library (src/nn): it provides exactly the operations the
// training stack needs (matmul, transposed matmuls, elementwise arithmetic,
// row reductions) with shape checking on every operation.
//
// Threading: every operation runs on its calling thread (kernels never
// use the util/parallel.hpp pool; callers fan out over whole tasks), so
// each is bitwise reproducible at any thread count.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace anole {

/// Shape of a tensor; rank is shape.size().
using Shape = std::vector<std::size_t>;

std::string shape_to_string(const Shape& shape);

namespace detail {

/// std::allocator whose value-less construct() default-initializes (i.e.
/// leaves floats uninitialized) instead of value-initializing. Lets
/// Tensor::uninitialized skip the zero-fill of buffers that are about to
/// be overwritten entirely (matmul outputs write every element).
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    ::new (static_cast<void*>(ptr)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Backing storage of a Tensor. Element access behaves exactly like
/// std::vector<float>; only resize() without a value differs (default-
/// rather than value-initialization).
using FloatBuffer = std::vector<float, detail::DefaultInitAllocator<float>>;

/// Dense row-major float tensor with value semantics.
///
/// Rank 0 tensors are not supported; scalars are rank-1 tensors of size 1.
/// All binary operations check shapes and throw anole::ContractViolation
/// (a std::invalid_argument) on
/// mismatch — silent broadcasting bugs are the classic failure mode of
/// hand-rolled NN code, so there is no implicit broadcasting except the
/// explicitly named row-wise helpers.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor adopting `data`, which must have exactly shape-many elements.
  Tensor(Shape shape, FloatBuffer data);

  /// Same, copying from a plain std::vector<float> or a braced list.
  Tensor(Shape shape, const std::vector<float>& data);
  Tensor(Shape shape, std::initializer_list<float> data);

  /// Tensor whose elements are NOT initialized. For kernel outputs that
  /// overwrite every element; never hand one to code that reads before
  /// writing.
  static Tensor uninitialized(Shape shape);

  /// 2-D convenience factory.
  static Tensor matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  /// 1-D factory from values.
  static Tensor vector(std::initializer_list<float> values);
  static Tensor vector(std::vector<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Dimension i; throws on out-of-range.
  std::size_t dim(std::size_t i) const;

  /// Rows/cols of a rank-2 tensor; throws if rank != 2.
  std::size_t rows() const;
  std::size_t cols() const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  /// Flat element access (bounds checked in debug builds only).
  float& operator[](std::size_t i) {
    ANOLE_DCHECK_RANGE(i, data_.size(), "Tensor::operator[]");
    return data_[i];
  }
  float operator[](std::size_t i) const {
    ANOLE_DCHECK_RANGE(i, data_.size(), "Tensor::operator[]");
    return data_[i];
  }

  /// 2-D element access (rank-2 only; bounds checked in debug builds only).
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// Returns a tensor with the same data and a new shape of equal size.
  Tensor reshaped(Shape new_shape) const;

  /// Fills with a constant.
  void fill(float value);

  /// In-place elementwise operations (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);
  Tensor& operator*=(float scalar);

  /// this += scale * other (axpy).
  void add_scaled(const Tensor& other, float scale);

  /// Sum of all elements: one float partial per 4096-element block, added
  /// in ascending block order.
  float sum() const;

  /// Mean of all elements (0 if empty).
  float mean() const;

  /// Largest absolute element (0 if empty).
  float abs_max() const;

  /// L2 norm of all elements: squares summed in double over the same
  /// 4096-element blocks as sum().
  float l2_norm() const;

  /// Row r of a rank-2 tensor as a span.
  std::span<float> row(std::size_t r);
  std::span<const float> row(std::size_t r) const;

 private:
  struct UninitializedTag {};
  Tensor(UninitializedTag, Shape shape);

  Shape shape_;
  FloatBuffer data_;
};

/// C = A * B for rank-2 tensors, [m,k] x [k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B, [k,m] x [k,n] -> [m,n]. Used for weight gradients.
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C = A * B^T, [m,k] x [n,k] -> [m,n]. Used for input gradients.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// Elementwise binary operators (shape-checked).
Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float scalar);

/// Adds a [cols]-shaped bias to every row of a [rows, cols] tensor.
void add_row_broadcast(Tensor& matrix, const Tensor& row_vector);

/// Sums the rows of a [rows, cols] tensor into a [cols] tensor.
Tensor sum_rows(const Tensor& matrix);

/// Transposes a rank-2 tensor.
Tensor transpose(const Tensor& matrix);

/// True when shapes and all elements are within `tol`.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace anole
