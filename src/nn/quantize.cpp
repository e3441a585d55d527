#include "nn/quantize.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace anole::nn {
namespace {

float snap_to_half(float value) {
  return half_to_float(float_to_half(value));
}

Tensor snapped_bias(const Tensor& bias) {
  Tensor out = bias;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = snap_to_half(out[i]);
  return out;
}

}  // namespace

QuantizedLinear::QuantizedLinear(Linear& source)
    : weights_(quantize_weights(source.weight().value)),
      bias_(snapped_bias(source.bias().value)) {}

QuantizedLinear::QuantizedLinear(QuantizedMatrix weights, Tensor bias)
    : weights_(std::move(weights)), bias_(std::move(bias)) {
  ANOLE_CHECK_EQ(weights_.data.size(), weights_.channels * weights_.depth,
                 "QuantizedLinear: weight data size mismatch");
  ANOLE_CHECK_EQ(weights_.scales.size(), weights_.channels,
                 "QuantizedLinear: scales size mismatch");
  ANOLE_CHECK(bias_.rank() == 1 && bias_.size() == weights_.channels,
              "QuantizedLinear: bias shape mismatch");
  weights_.prepare();  // wire data carries no execution copy
}

Tensor QuantizedLinear::forward(Tensor input) {
  return qgemm(input, weights_, bias_.data());
}

Tensor QuantizedLinear::infer(const Tensor& input) const {
  // The layer is stateless at inference; forward() already writes no
  // caches, so the const path is the same call.
  return qgemm(input, weights_, bias_.data());
}

Tensor QuantizedLinear::backward(const Tensor& grad_output) {
  (void)grad_output;
  ANOLE_CHECK(false, "QuantizedLinear::backward: quantized layers are "
              "inference-only; quantize after training");
  return Tensor();
}

std::uint64_t QuantizedLinear::flops_per_sample() const {
  const std::uint64_t in = weights_.depth;
  const std::uint64_t out = weights_.channels;
  return 2 * in * out + out;
}

std::vector<std::pair<std::size_t, ModulePtr>> quantize_linear_layers(
    Sequential& net) {
  std::vector<std::pair<std::size_t, ModulePtr>> displaced;
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto* linear = dynamic_cast<Linear*>(&net.at(i));
    if (linear == nullptr) continue;
    auto quantized = std::make_unique<QuantizedLinear>(*linear);
    displaced.emplace_back(i, net.replace(i, std::move(quantized)));
  }
  return displaced;
}

std::size_t dequantize_linear_layers(Sequential& net) {
  std::size_t converted = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto* quantized = dynamic_cast<QuantizedLinear*>(&net.at(i));
    if (quantized == nullptr) continue;
    // Linear requires an RNG for its He init; the values are overwritten
    // immediately, so the seed is irrelevant.
    Rng rng(0);
    auto linear = std::make_unique<Linear>(quantized->in_features(),
                                           quantized->out_features(), rng);
    linear->weight().value = quantized->dequantized_weight();
    linear->bias().value = quantized->bias();
    net.replace(i, std::move(linear));
    ++converted;
  }
  return converted;
}

bool is_quantized(Sequential& net) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (dynamic_cast<QuantizedLinear*>(&net.at(i)) != nullptr) return true;
  }
  return false;
}

}  // namespace anole::nn
