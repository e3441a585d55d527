#include "nn/trainer.hpp"

#include <algorithm>
#include <utility>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace anole::nn {

Tensor gather_rows(const Tensor& matrix,
                   std::span<const std::size_t> indices) {
  ANOLE_CHECK_EQ(matrix.rank(), 2u, "gather_rows: rank != 2");
  Tensor out = Tensor::matrix(indices.size(), matrix.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    auto src = matrix.row(indices[i]);
    auto dst = out.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

TrainResult train_classifier(Module& net, const Tensor& inputs,
                             std::span<const std::size_t> labels,
                             const TrainConfig& config, Rng& rng,
                             const Tensor& val_inputs,
                             std::span<const std::size_t> val_labels) {
  ANOLE_CHECK_EQ(inputs.rank(), 2u, "train_classifier: inputs rank != 2");
  ANOLE_CHECK_EQ(inputs.rows(), labels.size(),
                 "train_classifier: label count mismatch");
  ANOLE_CHECK_GT(inputs.rows(), 0u, "train_classifier: empty training set");
  ANOLE_CHECK_GT(config.batch_size, 0u, "train_classifier: batch_size == 0");
  ANOLE_CHECK_EQ(val_inputs.empty(), val_labels.empty(),
                 "train_classifier: validation inputs/labels disagree");

  TrainResult result;
  Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999, 1e-8,
                 config.weight_decay);
  const std::size_t n = inputs.rows();
  const bool has_val = !val_inputs.empty();
  double best_val = -1.0;
  std::size_t stale_epochs = 0;

  net.set_training(true);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    auto order = random_permutation(n, rng);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, n);
      std::vector<std::size_t> batch_idx(order.begin() + start,
                                         order.begin() + end);
      Tensor x = gather_rows(inputs, batch_idx);
      std::vector<std::size_t> y(batch_idx.size());
      for (std::size_t i = 0; i < batch_idx.size(); ++i) {
        y[i] = labels[batch_idx[i]];
      }
      Tensor logits = net.forward(std::move(x));
      Tensor grad;
      epoch_loss += softmax_cross_entropy(logits, y, grad);
      net.accumulate_gradients(grad);
      optimizer.step();
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(batches, 1));
    result.epoch_losses.push_back(epoch_loss);
    result.epochs_run = epoch + 1;

    if (has_val) {
      net.set_training(false);
      const double val_acc = accuracy(net.forward(val_inputs), val_labels);
      net.set_training(true);
      if (val_acc > best_val) {
        best_val = val_acc;
        stale_epochs = 0;
      } else {
        ++stale_epochs;
      }
      if (config.verbose) {
        log_info("epoch ", epoch, " loss ", epoch_loss, " val_acc ", val_acc);
      }
      if (config.patience > 0 && stale_epochs >= config.patience) break;
    } else if (config.verbose) {
      log_info("epoch ", epoch, " loss ", epoch_loss);
    }
  }

  net.set_training(false);
  result.final_train_accuracy = accuracy(net.forward(inputs), labels);
  result.best_validation_accuracy = best_val < 0.0 ? 0.0 : best_val;
  return result;
}

TrainResult train_soft_classifier(Module& net, const Tensor& inputs,
                                  const Tensor& soft_targets,
                                  const TrainConfig& config, Rng& rng) {
  ANOLE_CHECK_EQ(inputs.rank(), 2u,
                 "train_soft_classifier: inputs rank != 2");
  ANOLE_CHECK_EQ(inputs.rows(), soft_targets.rows(),
                 "train_soft_classifier: target count mismatch");
  ANOLE_CHECK_GT(inputs.rows(), 0u,
                 "train_soft_classifier: empty training set");
  ANOLE_CHECK_GT(config.batch_size, 0u,
                 "train_soft_classifier: batch_size == 0");

  TrainResult result;
  Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999, 1e-8,
                 config.weight_decay);
  const std::size_t n = inputs.rows();

  net.set_training(true);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    auto order = random_permutation(n, rng);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, n);
      std::vector<std::size_t> batch_idx(order.begin() + start,
                                         order.begin() + end);
      Tensor x = gather_rows(inputs, batch_idx);
      Tensor t = gather_rows(soft_targets, batch_idx);
      Tensor logits = net.forward(std::move(x));
      Tensor grad;
      epoch_loss += softmax_cross_entropy_soft(logits, t, grad);
      net.accumulate_gradients(grad);
      optimizer.step();
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(batches, 1));
    result.epoch_losses.push_back(epoch_loss);
    result.epochs_run = epoch + 1;
    if (config.verbose) log_info("epoch ", epoch, " loss ", epoch_loss);
  }

  net.set_training(false);
  // Hard accuracy against the argmax of the soft targets, as a sanity
  // signal rather than the training objective.
  std::vector<std::size_t> hard_labels = argmax_rows(soft_targets);
  result.final_train_accuracy = accuracy(net.forward(inputs), hard_labels);
  return result;
}

}  // namespace anole::nn
