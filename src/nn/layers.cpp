#include "nn/layers.hpp"

#include <cmath>
#include <utility>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole::nn {
namespace {

/// An elementwise layer's backward reads one cached element per gradient
/// element, so the gradient must have the shape of the tensor the last
/// forward cached (a backward before any forward sees the empty shape).
void check_elementwise_backward(const char* layer, const Tensor& cached,
                                const Tensor& grad_output) {
  ANOLE_CHECK(grad_output.shape() == cached.shape(), layer,
              "::backward: grad shape ", shape_to_string(grad_output.shape()),
              " does not match the forward shape ",
              shape_to_string(cached.shape()),
              " (backward before forward?)");
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::matrix(in_features, out_features)),
      bias_(Tensor(Shape{out_features})) {
  ANOLE_CHECK_GT(in_features, 0u, "Linear: in_features == 0");
  ANOLE_CHECK_GT(out_features, 0u, "Linear: out_features == 0");
  // He initialization: suited to the ReLU-family activations used here.
  const double scale = std::sqrt(2.0 / static_cast<double>(in_features));
  for (auto& w : weight_.value.data()) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
}

Tensor Linear::forward(Tensor input) {
  ANOLE_CHECK(input.rank() == 2 && input.cols() == in_features_,
              "Linear::forward: expected [batch, ", in_features_, "], got ",
              shape_to_string(input.shape()));
  Tensor out = matmul_bias(input, weight_.value, bias_.value);
  cached_input_ = std::move(input);
  return out;
}

Tensor Linear::infer(const Tensor& input) const {
  ANOLE_CHECK(input.rank() == 2 && input.cols() == in_features_,
              "Linear::infer: expected [batch, ", in_features_, "], got ",
              shape_to_string(input.shape()));
  return matmul_bias(input, weight_.value, bias_.value);
}

Tensor Linear::backward(const Tensor& grad_output) {
  Linear::accumulate_gradients(grad_output);
  return matmul_transpose_b(grad_output, weight_.value);
}

void Linear::accumulate_gradients(const Tensor& grad_output) {
  ANOLE_CHECK(!cached_input_.empty(),
              "Linear::backward before forward");
  ANOLE_CHECK(grad_output.rank() == 2 && grad_output.cols() == out_features_,
              "Linear::backward: expected [batch, ", out_features_,
              "], got ", shape_to_string(grad_output.shape()));
  weight_.grad += matmul_transpose_a(cached_input_, grad_output);
  bias_.grad += sum_rows(grad_output);
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

std::uint64_t Linear::flops_per_sample() const {
  // One multiply + one add per weight, plus the bias add.
  return 2ull * in_features_ * out_features_ + out_features_;
}

Tensor ReLU::forward(Tensor input) {
  last_width_ = input.rank() == 2 ? input.cols() : input.size();
  Tensor out = ReLU::infer(input);
  cached_input_ = std::move(input);
  return out;
}

Tensor ReLU::infer(const Tensor& input) const {
  Tensor out = Tensor::uninitialized(input.shape());
  simd::relu_forward(simd::active_level(), input.data().data(), input.size(),
                     out.data().data());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  check_elementwise_backward("ReLU", cached_input_, grad_output);
  Tensor grad = Tensor::uninitialized(grad_output.shape());
  simd::relu_backward(simd::active_level(), cached_input_.data().data(),
                      grad_output.data().data(), grad.size(),
                      grad.data().data());
  return grad;
}

Tensor LeakyReLU::forward(Tensor input) {
  last_width_ = input.rank() == 2 ? input.cols() : input.size();
  Tensor out = input;
  for (auto& v : out.data()) {
    if (v < 0.0f) v *= negative_slope_;
  }
  cached_input_ = std::move(input);
  return out;
}

Tensor LeakyReLU::infer(const Tensor& input) const {
  Tensor out = input;
  for (auto& v : out.data()) {
    if (v < 0.0f) v *= negative_slope_;
  }
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  check_elementwise_backward("LeakyReLU", cached_input_, grad_output);
  Tensor grad = grad_output;
  auto in = cached_input_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (in[i] < 0.0f) g[i] *= negative_slope_;
  }
  return grad;
}

Tensor Sigmoid::forward(Tensor input) {
  last_width_ = input.rank() == 2 ? input.cols() : input.size();
  // σ through the dispatched transcendental kernel (libm at scalar,
  // polynomial at AVX2 — DESIGN.md §13), written straight into an
  // uninitialized output.
  Tensor out = Tensor::uninitialized(input.shape());
  simd::sigmoid_terms(simd::active_level(), input.data().data(), input.size(),
                      out.data().data(), nullptr);
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::infer(const Tensor& input) const {
  Tensor out = Tensor::uninitialized(input.shape());
  simd::sigmoid_terms(simd::active_level(), input.data().data(), input.size(),
                      out.data().data(), nullptr);
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  check_elementwise_backward("Sigmoid", cached_output_, grad_output);
  Tensor grad = grad_output;
  auto y = cached_output_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0f - y[i]);
  return grad;
}

Tensor Tanh::forward(Tensor input) {
  last_width_ = input.rank() == 2 ? input.cols() : input.size();
  Tensor out = std::move(input);
  for (auto& v : out.data()) v = std::tanh(v);
  cached_output_ = out;
  return out;
}

Tensor Tanh::infer(const Tensor& input) const {
  Tensor out = input;
  for (auto& v : out.data()) v = std::tanh(v);
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  check_elementwise_backward("Tanh", cached_output_, grad_output);
  Tensor grad = grad_output;
  auto y = cached_output_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= 1.0f - y[i] * y[i];
  return grad;
}

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  ANOLE_CHECK(rate >= 0.0f && rate < 1.0f,
              "Dropout: rate must be in [0, 1), got ", rate);
}

Tensor Dropout::forward(Tensor input) {
  if (!training() || rate_ == 0.0f) {
    mask_ = Tensor();
    return input;
  }
  mask_ = Tensor(input.shape());
  const float keep = 1.0f - rate_;
  Tensor out = std::move(input);
  auto m = mask_.data();
  auto o = out.data();
  for (std::size_t i = 0; i < o.size(); ++i) {
    // Inverted dropout keeps inference a no-op.
    m[i] = rng_.bernoulli(keep) ? 1.0f / keep : 0.0f;
    o[i] *= m[i];
  }
  return out;
}

Tensor Dropout::infer(const Tensor& input) const {
  // Inverted dropout: inference is a no-op at any rate.
  return input;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  Tensor grad = grad_output;
  grad *= mask_;
  return grad;
}

LayerNorm::LayerNorm(std::size_t features, float epsilon)
    : features_(features),
      epsilon_(epsilon),
      gain_(Tensor(Shape{features}, 1.0f)),
      bias_(Tensor(Shape{features})) {
  ANOLE_CHECK_GT(features, 0u, "LayerNorm: features == 0");
  ANOLE_CHECK_GT(epsilon, 0.0f, "LayerNorm: epsilon must be > 0");
}

Tensor LayerNorm::forward(Tensor input) {
  ANOLE_CHECK(input.rank() == 2 && input.cols() == features_,
              "LayerNorm::forward: expected [batch, ", features_, "], got ",
              shape_to_string(input.shape()));
  const std::size_t batch = input.rows();
  Tensor out = std::move(input);
  cached_normalized_ = Tensor::matrix(batch, features_);
  cached_inv_std_ = Tensor(Shape{batch});
  for (std::size_t r = 0; r < batch; ++r) {
    auto row = out.row(r);
    float m = 0.0f;
    for (float v : row) m += v;
    m /= static_cast<float>(features_);
    float var = 0.0f;
    for (float v : row) var += (v - m) * (v - m);
    var /= static_cast<float>(features_);
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    cached_inv_std_[r] = inv_std;
    auto norm_row = cached_normalized_.row(r);
    for (std::size_t c = 0; c < features_; ++c) {
      norm_row[c] = (row[c] - m) * inv_std;
      row[c] = norm_row[c] * gain_.value[c] + bias_.value[c];
    }
  }
  return out;
}

Tensor LayerNorm::infer(const Tensor& input) const {
  ANOLE_CHECK(input.rank() == 2 && input.cols() == features_,
              "LayerNorm::infer: expected [batch, ", features_, "], got ",
              shape_to_string(input.shape()));
  const std::size_t batch = input.rows();
  Tensor out = input;
  for (std::size_t r = 0; r < batch; ++r) {
    auto row = out.row(r);
    float m = 0.0f;
    for (float v : row) m += v;
    m /= static_cast<float>(features_);
    float var = 0.0f;
    for (float v : row) var += (v - m) * (v - m);
    var /= static_cast<float>(features_);
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    for (std::size_t c = 0; c < features_; ++c) {
      row[c] = (row[c] - m) * inv_std * gain_.value[c] + bias_.value[c];
    }
  }
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  ANOLE_CHECK(!cached_normalized_.empty(),
              "LayerNorm::backward before forward");
  ANOLE_CHECK(grad_output.rank() == 2 && grad_output.cols() == features_ &&
                  grad_output.rows() == cached_normalized_.rows(),
              "LayerNorm::backward: grad shape ",
              shape_to_string(grad_output.shape()), " does not match forward");
  const std::size_t batch = grad_output.rows();
  Tensor grad_input = Tensor::matrix(batch, features_);
  for (std::size_t r = 0; r < batch; ++r) {
    auto g = grad_output.row(r);
    auto xhat = cached_normalized_.row(r);
    const float inv_std = cached_inv_std_[r];
    // Accumulate parameter grads and the two reduction terms.
    float sum_gy = 0.0f;
    float sum_gy_xhat = 0.0f;
    for (std::size_t c = 0; c < features_; ++c) {
      const float gy = g[c] * gain_.value[c];
      gain_.grad[c] += g[c] * xhat[c];
      bias_.grad[c] += g[c];
      sum_gy += gy;
      sum_gy_xhat += gy * xhat[c];
    }
    const float inv_n = 1.0f / static_cast<float>(features_);
    auto gi = grad_input.row(r);
    for (std::size_t c = 0; c < features_; ++c) {
      const float gy = g[c] * gain_.value[c];
      gi[c] = inv_std * (gy - inv_n * sum_gy - xhat[c] * inv_n * sum_gy_xhat);
    }
  }
  return grad_input;
}

std::vector<Parameter*> LayerNorm::parameters() { return {&gain_, &bias_}; }

}  // namespace anole::nn
