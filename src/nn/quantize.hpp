// Post-training int8 quantization for the nn stack.
//
// QuantizedLinear is the inference-only int8 counterpart of Linear: the
// weight matrix is per-channel symmetric int8 (tensor/qgemm.hpp) and the
// bias is snapped to fp16-representable values, so a quantized layer's
// in-memory state is exactly what the artifact v3 wire format stores —
// save/load round-trips are bit-identical, and so is every inference
// result before vs after an artifact hop.
//
// The conversion entry point is quantize_linear_layers(): an in-place
// post-training pass over a Sequential that swaps every Linear for a
// QuantizedLinear and hands back the displaced originals, so callers can
// restore them when a model fails its accuracy guard (core/quantize.hpp
// implements the repository-level δ guard on top of this).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "tensor/qgemm.hpp"

namespace anole::nn {

/// Inference-only int8 fully connected layer: y = qgemm(x, Wq) + b.
/// Weights are [out, in] per-channel int8; bias values are exactly
/// fp16-representable. backward() is a contract violation — quantized
/// layers never train.
class QuantizedLinear : public Module {
 public:
  /// Post-training conversion of a trained Linear (weights quantized
  /// per output channel, bias snapped through fp16).
  explicit QuantizedLinear(Linear& source);

  /// From wire data (artifact v3): `weights` is the stored [out, in]
  /// matrix, `bias` a [out] tensor of fp16-representable values.
  QuantizedLinear(QuantizedMatrix weights, Tensor bias);

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "QuantizedLinear"; }
  /// Same MAC count as the fp32 layer: quantization changes the cost per
  /// op, not the op count, and the device model charges by FLOPs.
  std::uint64_t flops_per_sample() const override;

  std::size_t in_features() const { return weights_.depth; }
  std::size_t out_features() const { return weights_.channels; }

  const QuantizedMatrix& quantized_weights() const { return weights_; }
  const Tensor& bias() const { return bias_; }

  /// The fp32 weight matrix [in, out] this layer effectively multiplies
  /// by (dequantized codes; NOT the pre-quantization weights).
  Tensor dequantized_weight() const { return dequantize_weights(weights_); }

 private:
  QuantizedMatrix weights_;
  Tensor bias_;  // [out], fp32 values snapped to fp16 grid
};

/// Replaces every Linear in `net` with a QuantizedLinear, in place.
/// Returns the displaced originals as (layer index, module) pairs so the
/// caller can undo individual swaps via Sequential::replace. Layers that
/// are already quantized (or not Linear) are left untouched.
std::vector<std::pair<std::size_t, ModulePtr>> quantize_linear_layers(
    Sequential& net);

/// Replaces every QuantizedLinear in `net` with an equivalent fp32 Linear
/// carrying the dequantized weights. Returns the number of layers
/// converted.
std::size_t dequantize_linear_layers(Sequential& net);

/// True when any layer of `net` is a QuantizedLinear.
bool is_quantized(Sequential& net);

}  // namespace anole::nn
