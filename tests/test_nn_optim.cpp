#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace anole::nn {
namespace {

/// A single scalar parameter module for hand-checkable updates.
struct ScalarParam : Module {
  Parameter p{Tensor(Shape{1}, 1.0f)};
  Tensor forward(Tensor input) override { return input; }
  Tensor infer(const Tensor& input) const override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  std::vector<Parameter*> parameters() override { return {&p}; }
  std::string name() const override { return "scalar"; }
};

TEST(Sgd, PlainStep) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, /*momentum=*/0.0);
  m.p.grad[0] = 2.0f;
  sgd.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.1f * 2.0f, 1e-6f);
  // step() clears the gradient.
  EXPECT_EQ(m.p.grad[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, /*momentum=*/0.5);
  m.p.grad[0] = 1.0f;
  sgd.step();  // v = 1, value = 1 - 0.1
  EXPECT_NEAR(m.p.value[0], 0.9f, 1e-6f);
  m.p.grad[0] = 1.0f;
  sgd.step();  // v = 0.5 + 1 = 1.5, value = 0.9 - 0.15
  EXPECT_NEAR(m.p.value[0], 0.75f, 1e-6f);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1, 0.0, /*weight_decay=*/1.0);
  m.p.grad[0] = 0.0f;
  sgd.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.1f * 1.0f, 1e-6f);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  ScalarParam m;
  Adam adam(m.parameters(), 0.01);
  m.p.grad[0] = 3.7f;  // any gradient: bias-corrected first step = lr
  adam.step();
  EXPECT_NEAR(m.p.value[0], 1.0f - 0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  ScalarParam m;
  Adam adam(m.parameters(), 0.05);
  // Minimize (x - 3)^2 by feeding grad = 2 (x - 3).
  for (int i = 0; i < 500; ++i) {
    m.p.grad[0] = 2.0f * (m.p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(m.p.value[0], 3.0f, 0.05f);
}

bool is_subnormal(float x) {
  return std::fpclassify(x) == FP_SUBNORMAL;
}

std::uint32_t bits_of(float x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// A weight whose gradient is always zero decays under weight decay alone,
/// as a dead hidden unit's weights do. Without the flush this one would
/// sit in the subnormal range from step ~1600 on (with a subnormal first
/// moment beside it); with it, the stored state is never subnormal and
/// settles at exactly +0.
TEST(Adam, DeadParameterFlushesToPositiveZero) {
  ScalarParam m;
  m.p.value[0] = 1e-30f;
  Adam adam(m.parameters(), /*learning_rate=*/0.01, 0.9, 0.999,
            /*epsilon=*/1.0, /*weight_decay=*/1.0);
  int step = 0;
  for (; step < 5000; ++step) {
    adam.step();
    const float value = m.p.value[0];
    const float m1 = adam.first_moment(0)[0];
    const float m2 = adam.second_moment(0)[0];
    ASSERT_FALSE(is_subnormal(value) || is_subnormal(m1) || is_subnormal(m2))
        << "step " << step << ": value " << value << ", moments " << m1
        << ", " << m2;
    if (value == 0.0f && m1 == 0.0f && m2 == 0.0f) break;
  }
  ASSERT_LT(step, 5000) << "the parameter never reached 0";
  // Once there, it stays at +0 with both moments +0.
  for (int extra = 0; extra < 10; ++extra) adam.step();
  EXPECT_EQ(bits_of(m.p.value[0]), 0u);
  EXPECT_EQ(bits_of(adam.first_moment(0)[0]), 0u);
  EXPECT_EQ(bits_of(adam.second_moment(0)[0]), 0u);
}

/// Away from the subnormal range the flush changes nothing: every step
/// matches the textbook update, written out here, bit for bit.
TEST(Adam, NormalRangeFollowsTheUnflushedUpdateBitForBit) {
  ScalarParam m;
  const double lr = 2e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8, wd = 1e-2;
  Adam adam(m.parameters(), lr, beta1, beta2, eps, wd);
  const auto f = [](double x) { return static_cast<float>(x); };
  float value = m.p.value[0];
  float m1 = 0.0f;
  float m2 = 0.0f;
  for (int t = 1; t <= 500; ++t) {
    // The gradient of (x - 3)^2 plus a wobble, so its sign changes.
    const float grad = 2.0f * (value - 3.0f) + std::sin(0.1f * t);
    m.p.grad[0] = grad;
    adam.step();
    const float g = grad + f(wd) * value;
    m1 = f(beta1) * m1 + (1.0f - f(beta1)) * g;
    m2 = f(beta2) * m2 + (1.0f - f(beta2)) * g * g;
    const float bias1 = 1.0f - std::pow(f(beta1), static_cast<float>(t));
    const float bias2 = 1.0f - std::pow(f(beta2), static_cast<float>(t));
    value -= f(lr) * (m1 / bias1) / (std::sqrt(m2 / bias2) + f(eps));
    ASSERT_EQ(bits_of(m.p.value[0]), bits_of(value)) << "step " << t;
    ASSERT_EQ(bits_of(adam.first_moment(0)[0]), bits_of(m1)) << "step " << t;
    ASSERT_EQ(bits_of(adam.second_moment(0)[0]), bits_of(m2)) << "step " << t;
  }
}

TEST(Optimizer, ZeroGradClears) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1);
  m.p.grad[0] = 5.0f;
  sgd.zero_grad();
  EXPECT_EQ(m.p.grad[0], 0.0f);
}

TEST(Optimizer, LearningRateMutable) {
  ScalarParam m;
  Sgd sgd(m.parameters(), 0.1);
  sgd.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.5);
}

/// End-to-end sanity: both optimizers fit a small nonlinear classifier.
class OptimizerFitTest : public ::testing::TestWithParam<bool> {};

TEST_P(OptimizerFitTest, FitsXorLikeProblem) {
  const bool use_adam = GetParam();
  Rng rng(71);
  Sequential net;
  net.emplace<Linear>(2, 16, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(16, 2, rng);

  // XOR-ish dataset.
  Tensor inputs = Tensor::matrix(4, 2);
  inputs.at(1, 1) = 1.0f;
  inputs.at(2, 0) = 1.0f;
  inputs.at(3, 0) = 1.0f;
  inputs.at(3, 1) = 1.0f;
  const std::vector<std::size_t> labels = {0, 1, 1, 0};

  std::unique_ptr<Optimizer> optimizer;
  if (use_adam) {
    optimizer = std::make_unique<Adam>(net.parameters(), 0.02);
  } else {
    optimizer = std::make_unique<Sgd>(net.parameters(), 0.2, 0.9);
  }
  for (int epoch = 0; epoch < 400; ++epoch) {
    Tensor grad;
    const Tensor logits = net.forward(inputs);
    (void)softmax_cross_entropy(logits, labels, grad);
    net.backward(grad);
    optimizer->step();
  }
  EXPECT_EQ(accuracy(net.forward(inputs), labels), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Both, OptimizerFitTest, ::testing::Bool());

}  // namespace
}  // namespace anole::nn
