// Minimal reverse-mode neural-network layer abstraction.
//
// This plays the role of PyTorch in the paper's stack: the scene encoder
// (M_scene), the decision model (M_decision), and every detector are built
// from these modules and trained with real gradient descent.
//
// The interface is deliberately simple: forward() caches whatever the layer
// needs (taking its input by value, so a layer that keeps its input moves
// the caller's buffer into its cache instead of copying it), backward()
// consumes the upstream gradient and returns the gradient
// with respect to the layer input, accumulating parameter gradients into
// Parameter::grad. accumulate_gradients() is backward() for callers that
// only want the parameter gradients (every trainer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace anole::nn {

/// A learnable tensor and its accumulated gradient.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor initial)
      : value(std::move(initial)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for all layers. Inputs and outputs are [batch, features]
/// matrices; layers that need other shapes document their convention.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output and caches what backward() needs. The
  /// input is a sink: pass an activation that is not used again with
  /// std::move, and a layer that caches its input (Linear, ReLU) keeps
  /// that buffer rather than a copy.
  virtual Tensor forward(Tensor input) = 0;

  /// Inference-only forward: the same arithmetic as forward() in eval
  /// mode (Dropout is a pass-through regardless of the training flag),
  /// but const — no backward caches or statistics are written, so
  /// concurrent infer() calls on one module from multiple threads are
  /// safe as long as no thread mutates the module concurrently.
  virtual Tensor infer(const Tensor& input) const = 0;

  /// Propagates `grad_output` (same shape as the last forward output),
  /// accumulates parameter gradients, and returns the input gradient.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Parameter-only backward, for training loops that discard the input
  /// gradient. Contract: after the same forward(), every Parameter::grad
  /// ends bitwise equal to what backward(grad_output) leaves, and the
  /// same contract violations fire (before forward, shape mismatch,
  /// quantized layers). Overrides may skip only the work behind the input
  /// gradient that backward() would return. The default is backward().
  virtual void accumulate_gradients(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// All learnable parameters of this module (possibly empty).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Training vs inference mode (affects Dropout).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Human-readable layer name for debugging and summaries.
  virtual std::string name() const = 0;

  /// Multiply-accumulate-style FLOPs for one input sample, used by the
  /// device simulator to derive latency/energy (Table II / Table IV).
  virtual std::uint64_t flops_per_sample() const { return 0; }

  /// Number of scalar learnable parameters.
  std::uint64_t parameter_count();

  /// Clears all parameter gradients.
  void zero_grad();

 private:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace anole::nn
