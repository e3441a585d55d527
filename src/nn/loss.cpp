#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole::nn {

Tensor softmax_rows(const Tensor& logits) {
  ANOLE_CHECK_EQ(logits.rank(), 2u, "softmax_rows: rank != 2");
  Tensor out = logits;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    float max_logit = row[0];
    for (float v : row) max_logit = std::max(max_logit, v);
    float sum = 0.0f;
    for (auto& v : row) {
      v = std::exp(v - max_logit);
      sum += v;
    }
    for (auto& v : row) v /= sum;
  }
  return out;
}

float softmax_cross_entropy(const Tensor& logits,
                            std::span<const std::size_t> labels,
                            Tensor& grad) {
  ANOLE_CHECK_EQ(logits.rank(), 2u, "softmax_cross_entropy: rank != 2");
  ANOLE_CHECK_EQ(labels.size(), logits.rows(),
                 "softmax_cross_entropy: batch mismatch");
  ANOLE_CHECK_GT(logits.rows(), 0u, "softmax_cross_entropy: empty batch");
  const std::size_t batch = logits.rows();
  grad = softmax_rows(logits);
  double loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    ANOLE_CHECK_LT(labels[r], logits.cols(),
                   "softmax_cross_entropy: label out of range at row ", r);
    auto g = grad.row(r);
    loss -= std::log(std::max(g[labels[r]], 1e-12f));
    g[labels[r]] -= 1.0f;
    for (auto& v : g) v *= inv_batch;
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

float softmax_cross_entropy_soft(const Tensor& logits, const Tensor& targets,
                                 Tensor& grad) {
  ANOLE_CHECK_EQ(logits.rank(), 2u, "softmax_cross_entropy_soft: rank != 2");
  ANOLE_CHECK(logits.shape() == targets.shape(),
              "softmax_cross_entropy_soft: shape mismatch ",
              shape_to_string(logits.shape()), " vs ",
              shape_to_string(targets.shape()));
  ANOLE_CHECK_GT(logits.rows(), 0u, "softmax_cross_entropy_soft: empty batch");
  const std::size_t batch = logits.rows();
  grad = softmax_rows(logits);
  double loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    auto g = grad.row(r);
    auto t = targets.row(r);
    for (std::size_t c = 0; c < g.size(); ++c) {
      if (t[c] > 0.0f) {
        loss -= static_cast<double>(t[c]) * std::log(std::max(g[c], 1e-12f));
      }
      g[c] = (g[c] - t[c]) * inv_batch;
    }
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

float bce_with_logits(const Tensor& logits, const Tensor& targets,
                      Tensor& grad, float positive_weight) {
  ANOLE_CHECK(logits.shape() == targets.shape(),
              "bce_with_logits: shape mismatch ",
              shape_to_string(logits.shape()), " vs ",
              shape_to_string(targets.shape()));
  ANOLE_CHECK_GT(positive_weight, 0.0f,
                 "bce_with_logits: positive_weight must be > 0");
  // Every element is written below; skip the zero-fill.
  grad = Tensor::uninitialized(logits.shape());
  const std::size_t n = logits.size();
  ANOLE_CHECK_GT(n, 0u, "bce_with_logits: empty input");
  // The transcendental core — σ(z) and log1p(exp(-|z|)) — runs through
  // the dispatched kernel: scalar evaluates the exact libm expressions,
  // AVX2 the documented polynomial path (DESIGN.md §13).
  // σ(z) lands in `grad` and is rescaled to the gradient in place.
  Tensor log_terms = Tensor::uninitialized(logits.shape());
  simd::sigmoid_terms(simd::active_level(), logits.data().data(), n,
                      grad.data().data(), log_terms.data().data());
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float z = logits[i];
    const float t = targets[i];
    const float w = t > 0.5f ? positive_weight : 1.0f;
    // Numerically stable BCE: max(z,0) - z*t + log(1+exp(-|z|)).
    const float stable = std::max(z, 0.0f) - z * t + log_terms[i];
    loss += static_cast<double>(w * stable);
    grad[i] = w * (grad[i] - t) * inv_n;
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float mse_loss(const Tensor& predictions, const Tensor& targets, Tensor& grad,
               const Tensor& element_mask) {
  ANOLE_CHECK(predictions.shape() == targets.shape(),
              "mse_loss: shape mismatch ",
              shape_to_string(predictions.shape()), " vs ",
              shape_to_string(targets.shape()));
  const bool masked = !element_mask.empty();
  if (masked) {
    ANOLE_CHECK(element_mask.shape() == predictions.shape(),
                "mse_loss: mask shape mismatch ",
                shape_to_string(element_mask.shape()));
  }
  grad = Tensor(predictions.shape());
  const std::size_t n = predictions.size();
  ANOLE_CHECK_GT(n, 0u, "mse_loss: empty input");
  double loss = 0.0;
  double active = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float m = masked ? element_mask[i] : 1.0f;
    if (m == 0.0f) continue;
    const float diff = predictions[i] - targets[i];
    loss += static_cast<double>(m) * diff * diff;
    grad[i] = 2.0f * m * diff;
    active += m;
  }
  if (active == 0.0) return 0.0f;
  const float inv_active = static_cast<float>(1.0 / active);
  for (auto& g : grad.data()) g *= inv_active;
  return static_cast<float>(loss / active);
}

double accuracy(const Tensor& logits, std::span<const std::size_t> labels) {
  if (logits.rows() == 0 || labels.size() != logits.rows()) return 0.0;
  const auto predicted = argmax_rows(logits);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < predicted.size(); ++r) {
    if (predicted[r] == labels[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

std::vector<std::size_t> argmax_rows(const Tensor& matrix) {
  std::vector<std::size_t> out(matrix.rows(), 0);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    auto row = matrix.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

}  // namespace anole::nn
