#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/scene_encoder.hpp"
#include "nn/loss.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "simd_levels.hpp"
#include "world/featurizer.hpp"

namespace anole::nn {
namespace {

/// Scalar objective: 0.5 * sum(output^2). Its gradient wrt the output is
/// the output itself, making finite-difference checks straightforward.
float objective(Module& module, const Tensor& input) {
  const Tensor out = module.forward(input);
  float sum = 0.0f;
  for (float v : out.data()) sum += 0.5f * v * v;
  return sum;
}

/// Checks the analytic input gradient of `module` at `input` against
/// central finite differences.
void check_input_gradient(Module& module, Tensor input, float tol = 2e-2f) {
  const Tensor out = module.forward(input);
  module.zero_grad();
  const Tensor grad_input = module.backward(out);  // dL/dout = out

  const float epsilon = 1e-3f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float saved = input[i];
    input[i] = saved + epsilon;
    const float up = objective(module, input);
    input[i] = saved - epsilon;
    const float down = objective(module, input);
    input[i] = saved;
    const float numeric = (up - down) / (2.0f * epsilon);
    EXPECT_NEAR(grad_input[i], numeric, tol) << "input index " << i;
  }
}

/// Checks analytic parameter gradients against finite differences.
void check_parameter_gradients(Module& module, const Tensor& input,
                               float tol = 2e-2f) {
  const Tensor out = module.forward(input);
  module.zero_grad();
  (void)module.backward(out);
  const float epsilon = 1e-3f;
  for (Parameter* param : module.parameters()) {
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      const float saved = param->value[i];
      param->value[i] = saved + epsilon;
      const float up = objective(module, input);
      param->value[i] = saved - epsilon;
      const float down = objective(module, input);
      param->value[i] = saved;
      const float numeric = (up - down) / (2.0f * epsilon);
      EXPECT_NEAR(param->grad[i], numeric, tol) << "param index " << i;
    }
  }
}

Tensor random_input(std::size_t batch, std::size_t features, Rng& rng) {
  Tensor t = Tensor::matrix(batch, features);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  layer.bias().value[0] = 1.0f;
  layer.bias().value[1] = -1.0f;
  const Tensor zero = Tensor::matrix(2, 3);
  const Tensor out = layer.forward(zero);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_EQ(out.at(0, 0), 1.0f);
  EXPECT_EQ(out.at(1, 1), -1.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  EXPECT_THROW((void)layer.forward(Tensor::matrix(1, 4)),
               std::invalid_argument);
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear layer(4, 3, rng);
  check_input_gradient(layer, random_input(2, 4, rng));
  check_parameter_gradients(layer, random_input(2, 4, rng));
}

TEST(Linear, FlopsAndParameterCount) {
  Rng rng(3);
  Linear layer(10, 5, rng);
  EXPECT_EQ(layer.parameter_count(), 55u);
  EXPECT_EQ(layer.flops_per_sample(), 2u * 10 * 5 + 5);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor in(Shape{1, 4}, std::vector<float>{-1, 0, 2, -3});
  const Tensor out = relu.forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReLU, BackwardMasksNegatives) {
  ReLU relu;
  const Tensor in(Shape{1, 3}, std::vector<float>{-1, 1, 2});
  (void)relu.forward(in);
  const Tensor grad(Shape{1, 3}, std::vector<float>{5, 5, 5});
  const Tensor gin = relu.backward(grad);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);
  EXPECT_EQ(gin[2], 5.0f);
}

std::uint32_t float_bits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// ReLU backward passes the upstream gradient through exactly where the
/// forward input is > 0 or NaN (`NaN <= 0` is false) and writes +0 where
/// it is <= 0, ±0 and -inf included. The upstream values carry a sign
/// and a payload, so a select that rounds, flips a sign or swaps operands
/// shows in the bits. 35 elements: four 8-lane vectors and a tail.
TEST(ReLU, BackwardSelectsUpstreamBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials = {nan,  -nan, 0.0f,  -0.0f, inf,
                                       -inf, 1.0f, -1.0f, 1e-45f, -1e-45f};
  std::vector<float> input(35);
  std::vector<float> upstream(35);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = specials[i % specials.size()];
    upstream[i] = specials[(3 * i + 1) % specials.size()] * 0.75f -
                  static_cast<float>(i);
  }
  upstream[6] = -0.0f;
  upstream[7] = nan;
  ReLU relu;
  (void)relu.forward(Tensor(Shape{5, 7}, input));
  const Tensor grad = relu.backward(Tensor(Shape{5, 7}, upstream));
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float expected = input[i] > 0.0f || std::isnan(input[i])
                               ? upstream[i]
                               : 0.0f;
    EXPECT_EQ(float_bits(grad[i]), float_bits(expected))
        << "input " << input[i] << " upstream " << upstream[i];
  }
}

/// Every elementwise activation reads one cached element per gradient
/// element: a backward before any forward, or with another batch shape
/// than the last forward, must throw instead of reading out of bounds.
TEST(ElementwiseLayers, BackwardRejectsShapeOtherThanForward) {
  std::vector<std::pair<std::string, ModulePtr>> layers;
  layers.emplace_back("ReLU", std::make_unique<ReLU>());
  layers.emplace_back("LeakyReLU", std::make_unique<LeakyReLU>(0.1f));
  layers.emplace_back("Sigmoid", std::make_unique<Sigmoid>());
  layers.emplace_back("Tanh", std::make_unique<Tanh>());
  for (auto& [name, layer] : layers) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)layer->backward(Tensor::matrix(2, 3)),
                 std::invalid_argument);
    (void)layer->forward(Tensor::matrix(2, 3, 0.5f));
    EXPECT_THROW((void)layer->backward(Tensor::matrix(4, 3)),
                 std::invalid_argument);
    EXPECT_THROW((void)layer->backward(Tensor::matrix(3, 2)),
                 std::invalid_argument);
    EXPECT_EQ(layer->backward(Tensor::matrix(2, 3, 1.0f)).size(), 6u);
  }
}

TEST(LeakyReLU, NegativeSlope) {
  LeakyReLU leaky(0.1f);
  const Tensor in(Shape{1, 2}, std::vector<float>{-10, 10});
  const Tensor out = leaky.forward(in);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
  Rng rng(4);
  check_input_gradient(leaky, random_input(2, 3, rng));
}

TEST(Sigmoid, ValuesAndGradient) {
  Sigmoid sigmoid;
  const Tensor in(Shape{1, 1}, std::vector<float>{0.0f});
  EXPECT_FLOAT_EQ(sigmoid.forward(in)[0], 0.5f);
  Rng rng(5);
  check_input_gradient(sigmoid, random_input(2, 3, rng));
}

TEST(Tanh, ValuesAndGradient) {
  Tanh tanh_layer;
  const Tensor in(Shape{1, 1}, std::vector<float>{0.0f});
  EXPECT_FLOAT_EQ(tanh_layer.forward(in)[0], 0.0f);
  Rng rng(6);
  check_input_gradient(tanh_layer, random_input(2, 3, rng));
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout dropout(0.5f, 42);
  dropout.set_training(false);
  Rng rng(7);
  const Tensor in = random_input(3, 5, rng);
  EXPECT_TRUE(allclose(dropout.forward(in), in));
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Dropout dropout(0.5f, 42);
  dropout.set_training(true);
  const Tensor in = Tensor::matrix(10, 100, 1.0f);
  const Tensor out = dropout.forward(in);
  std::size_t zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scale 1/(1-0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / out.size(), 0.5, 0.05);
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(Dropout(1.0f, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f, 1), std::invalid_argument);
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm norm(4);
  const Tensor in(Shape{1, 4}, std::vector<float>{1, 2, 3, 4});
  const Tensor out = norm.forward(in);
  float mean = 0.0f;
  for (float v : out.data()) mean += v;
  EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
  float var = 0.0f;
  for (float v : out.data()) var += v * v;
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
}

TEST(LayerNorm, GradientsMatchFiniteDifferences) {
  LayerNorm norm(5);
  Rng rng(8);
  check_input_gradient(norm, random_input(2, 5, rng), 5e-2f);
  check_parameter_gradients(norm, random_input(2, 5, rng), 5e-2f);
}

TEST(Sequential, ChainsLayers) {
  Rng rng(9);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);
  const Tensor out = net.forward(random_input(5, 3, rng));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);
}

TEST(Sequential, GradientsMatchFiniteDifferences) {
  Rng rng(10);
  Sequential net;
  net.emplace<Linear>(3, 6, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(6, 2, rng);
  check_input_gradient(net, random_input(2, 3, rng));
  check_parameter_gradients(net, random_input(2, 3, rng));
}

TEST(Sequential, FlopsAccumulate) {
  Rng rng(11);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.flops_per_sample(), (2u * 4 * 8 + 8) + (2u * 8 * 2 + 2));
}

TEST(Sequential, SetTrainingPropagates) {
  Rng rng(12);
  Sequential net;
  net.emplace<Dropout>(0.5f, 1);
  net.set_training(false);
  const Tensor in = Tensor::matrix(2, 3, 1.0f);
  EXPECT_TRUE(allclose(net.forward(in), in));
}

TEST(MakeMlp, BuildsExpectedArchitecture) {
  Rng rng(13);
  auto net = make_mlp({5, 8, 3}, rng);
  // Linear, ReLU, Linear.
  EXPECT_EQ(net->size(), 3u);
  const Tensor out = net->forward(Tensor::matrix(1, 5));
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_THROW((void)make_mlp({4}, rng), std::invalid_argument);
}

TEST(MakeMlp, DropoutVariant) {
  Rng rng(14);
  auto net = make_mlp({5, 8, 8, 3}, rng, 0.2f);
  // Linear ReLU Dropout Linear ReLU Dropout Linear.
  EXPECT_EQ(net->size(), 7u);
}

// --- Parameter-only backward ----------------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Builds two identically seeded modules and runs two training steps on
/// each: forward + backward() on one, forward + accumulate_gradients() on
/// the other, with dL/dout = out. The accumulated parameter gradients must
/// be bitwise equal at every SIMD level.
void expect_accumulate_matches_backward(
    const std::function<ModulePtr(Rng&)>& make, std::size_t in_width) {
  for (simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    SimdLevelGuard guard(level);
    Rng init_a(41);
    Rng init_b(41);
    const ModulePtr full = make(init_a);
    const ModulePtr params_only = make(init_b);
    full->set_training(true);
    params_only->set_training(true);
    Rng data(42);
    for (int step = 0; step < 2; ++step) {
      const Tensor x = random_input(6, in_width, data);
      const Tensor out_full = full->forward(x);
      const Tensor out_params = params_only->forward(x);
      ASSERT_TRUE(bitwise_equal(out_full, out_params));
      (void)full->backward(out_full);
      params_only->accumulate_gradients(out_params);
    }
    const auto expected = full->parameters();
    const auto actual = params_only->parameters();
    ASSERT_EQ(expected.size(), actual.size());
    ASSERT_FALSE(expected.empty());
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_TRUE(bitwise_equal(expected[p]->grad, actual[p]->grad))
          << "parameter " << p;
    }
  }
}

TEST(AccumulateGradients, LinearMatchesBackward) {
  expect_accumulate_matches_backward(
      [](Rng& rng) { return std::make_unique<Linear>(7, 5, rng); }, 7);
}

TEST(AccumulateGradients, MlpWithDropoutMatchesBackward) {
  expect_accumulate_matches_backward(
      [](Rng& rng) { return make_mlp({9, 12, 8, 4}, rng, 0.25f); }, 9);
}

TEST(AccumulateGradients, SceneEncoderMatchesBackward) {
  expect_accumulate_matches_backward(
      [](Rng& rng) {
        return std::make_unique<core::SceneEncoder>(
            5, core::SceneEncoderConfig(), rng);
      },
      world::FrameFeaturizer::feature_count());
}

TEST(AccumulateGradients, BeforeForwardThrows) {
  Rng rng(43);
  Linear layer(4, 3, rng);
  EXPECT_THROW(layer.accumulate_gradients(Tensor::matrix(2, 3)),
               std::invalid_argument);
  const auto net = make_mlp({4, 5, 3}, rng);
  EXPECT_THROW(net->accumulate_gradients(Tensor::matrix(2, 3)),
               std::invalid_argument);
  // A forward with the wrong gradient width still throws.
  (void)layer.forward(random_input(2, 4, rng));
  EXPECT_THROW(layer.accumulate_gradients(Tensor::matrix(2, 4)),
               std::invalid_argument);
}

/// The what() of the std::invalid_argument `call` throws, or "" if none.
std::string contract_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(AccumulateGradients, QuantizedLayersThrowAsBackwardDoes) {
  Rng rng(44);
  Linear linear(6, 4, rng);
  QuantizedLinear quantized(linear);
  const Tensor x = random_input(3, 6, rng);
  const Tensor out = quantized.forward(x);
  const std::string from_backward =
      contract_message([&] { (void)quantized.backward(out); });
  EXPECT_NE(from_backward, "");
  EXPECT_EQ(contract_message([&] { quantized.accumulate_gradients(out); }),
            from_backward);

  // A quantized net fails the same way, whichever layer throws first.
  const auto net = make_mlp({6, 5, 4}, rng);
  (void)quantize_linear_layers(*net);
  const Tensor net_out = net->forward(x);
  const std::string net_backward =
      contract_message([&] { (void)net->backward(net_out); });
  EXPECT_NE(net_backward, "");
  EXPECT_EQ(contract_message([&] { net->accumulate_gradients(net_out); }),
            net_backward);
}

}  // namespace
}  // namespace anole::nn
