#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "simd_levels.hpp"
#include "util/rng.hpp"

namespace anole {
namespace {

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t = Tensor::matrix(rows, cols);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t(Shape{4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, DataConstructorChecksSize) {
  EXPECT_THROW(Tensor(Shape{2, 2}, FloatBuffer{1.0f}),
               std::invalid_argument);
}

TEST(Tensor, VectorFactory) {
  const Tensor v = Tensor::vector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(v.rank(), 1u);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3.0f);
}

TEST(Tensor, RowsColsRequireRank2) {
  const Tensor v = Tensor::vector({1.0f});
  EXPECT_THROW((void)v.rows(), std::invalid_argument);
  const Tensor m = Tensor::matrix(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Tensor, At2D) {
  Tensor m = Tensor::matrix(2, 3);
  m.at(1, 2) = 7.0f;
  EXPECT_EQ(m[5], 7.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor m(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = m.reshaped(Shape{3, 2});
  EXPECT_EQ(r.rows(), 3u);
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW((void)m.reshaped(Shape{5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a(Shape{3}, std::vector<float>{1, 2, 3});
  Tensor b(Shape{3}, std::vector<float>{4, 5, 6});
  const Tensor sum = a + b;
  EXPECT_EQ(sum[0], 5.0f);
  const Tensor diff = b - a;
  EXPECT_EQ(diff[2], 3.0f);
  const Tensor prod = a * b;
  EXPECT_EQ(prod[1], 10.0f);
  const Tensor scaled = a * 2.0f;
  EXPECT_EQ(scaled[2], 6.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a *= b, std::invalid_argument);
}

TEST(Tensor, AddScaled) {
  Tensor a(Shape{2}, std::vector<float>{1, 1});
  const Tensor b(Shape{2}, std::vector<float>{2, 4});
  a.add_scaled(b, 0.5f);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(a[1], 3.0f);
}

TEST(Tensor, Reductions) {
  const Tensor t(Shape{4}, std::vector<float>{1, -5, 3, 1});
  EXPECT_EQ(t.sum(), 0.0f);
  EXPECT_EQ(t.mean(), 0.0f);
  EXPECT_EQ(t.abs_max(), 5.0f);
  EXPECT_NEAR(t.l2_norm(), 6.0f, 1e-5f);
}

TEST(Tensor, MatmulKnownValues) {
  const Tensor a(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(Tensor, MatmulShapeChecks) {
  const Tensor a = Tensor::matrix(2, 3);
  const Tensor b = Tensor::matrix(4, 2);
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

TEST(Tensor, TransposedMatmulsAgreeWithExplicitTranspose) {
  Rng rng(5);
  const Tensor a = random_matrix(4, 3, rng);
  const Tensor b = random_matrix(4, 5, rng);
  // A^T * B
  EXPECT_TRUE(allclose(matmul_transpose_a(a, b), matmul(transpose(a), b)));
  const Tensor c = random_matrix(6, 3, rng);
  const Tensor d = random_matrix(5, 3, rng);
  // C * D^T
  EXPECT_TRUE(allclose(matmul_transpose_b(c, d), matmul(c, transpose(d))));
}

/// The bias added in the GEMM's final store rounds like a separate pass
/// over the product, on the narrow (n <= 64) and blocked (n > 64) paths at
/// every level, and with an empty depth.
TEST(Tensor, MatmulBiasEqualsMatmulThenBiasPass) {
  Rng rng(12);
  for (simd::Level level : available_levels()) {
    const SimdLevelGuard pin(level);
    for (std::size_t n : {std::size_t{3}, std::size_t{16}, std::size_t{42},
                          std::size_t{300}}) {
      for (std::size_t k : {std::size_t{0}, std::size_t{7}, std::size_t{70}}) {
        const Tensor a = random_matrix(13, k, rng);
        const Tensor b = random_matrix(k, n, rng);
        Tensor bias = random_matrix(1, n, rng).reshaped(Shape{n});
        bias[0] = -0.0f;
        Tensor expected = matmul(a, b);
        for (std::size_t r = 0; r < expected.rows(); ++r) {
          for (std::size_t c = 0; c < n; ++c) expected.at(r, c) += bias[c];
        }
        const Tensor fused = matmul_bias(a, b, bias);
        ASSERT_EQ(fused.shape(), expected.shape());
        EXPECT_EQ(std::memcmp(fused.data().data(), expected.data().data(),
                              fused.size() * sizeof(float)),
                  0)
            << simd::level_name(level) << " n=" << n << " k=" << k;
      }
    }
  }
  const Tensor a = Tensor::matrix(2, 3);
  EXPECT_THROW(matmul_bias(a, Tensor::matrix(3, 4), Tensor(Shape{3})),
               std::invalid_argument);
}

TEST(Tensor, SumRows) {
  const Tensor m(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor s = sum_rows(m);
  EXPECT_EQ(s[0], 5.0f);
  EXPECT_EQ(s[1], 7.0f);
  EXPECT_EQ(s[2], 9.0f);
}

TEST(Tensor, TransposeInvolution) {
  Rng rng(9);
  const Tensor m = random_matrix(3, 7, rng);
  EXPECT_TRUE(allclose(transpose(transpose(m)), m));
}

TEST(Tensor, AllcloseDetectsDifference) {
  Tensor a = Tensor::matrix(2, 2, 1.0f);
  Tensor b = a;
  EXPECT_TRUE(allclose(a, b));
  b[3] += 1.0f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_FALSE(allclose(a, Tensor::matrix(2, 3, 1.0f)));
}

TEST(Tensor, RowSpanAccess) {
  Tensor m(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  auto row = m.row(1);
  EXPECT_EQ(row[0], 3.0f);
  row[1] = 9.0f;
  EXPECT_EQ(m.at(1, 1), 9.0f);
  EXPECT_THROW((void)m.row(2), std::invalid_argument);
}

TEST(Tensor, ShapeToString) {
  EXPECT_EQ(shape_to_string(Shape{2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string(Shape{}), "[]");
}

/// Matmul associativity-style property: (A*B)*C == A*(B*C).
class MatmulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatmulPropertyTest, Associativity) {
  Rng rng(GetParam());
  const Tensor a = random_matrix(3, 4, rng);
  const Tensor b = random_matrix(4, 2, rng);
  const Tensor c = random_matrix(2, 5, rng);
  EXPECT_TRUE(
      allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatmulPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace anole
