#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "detect/detector_trainer.hpp"
#include "micro_world.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "simd_levels.hpp"
#include "util/hash.hpp"

namespace anole::nn {
namespace {

/// Two well-separated Gaussian blobs per class.
void make_blobs(std::size_t per_class, std::size_t classes, Tensor& inputs,
                std::vector<std::size_t>& labels, Rng& rng) {
  inputs = Tensor::matrix(per_class * classes, 2);
  labels.clear();
  for (std::size_t c = 0; c < classes; ++c) {
    const double cx = 4.0 * static_cast<double>(c);
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      inputs.at(row, 0) = static_cast<float>(rng.normal(cx, 0.5));
      inputs.at(row, 1) = static_cast<float>(rng.normal(-cx, 0.5));
      labels.push_back(c);
    }
  }
}

TEST(Trainer, LearnsSeparableBlobs) {
  Rng rng(21);
  Tensor inputs;
  std::vector<std::size_t> labels;
  make_blobs(40, 3, inputs, labels, rng);
  auto net = make_mlp({2, 16, 3}, rng);
  TrainConfig config;
  config.epochs = 30;
  config.learning_rate = 5e-3;
  const auto result = train_classifier(*net, inputs, labels, config, rng);
  EXPECT_GT(result.final_train_accuracy, 0.95);
  EXPECT_EQ(result.epochs_run, 30u);
  // Losses trend down.
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(Trainer, EarlyStoppingHonorsPatience) {
  Rng rng(22);
  Tensor inputs;
  std::vector<std::size_t> labels;
  make_blobs(40, 2, inputs, labels, rng);
  Tensor val_inputs;
  std::vector<std::size_t> val_labels;
  make_blobs(10, 2, val_inputs, val_labels, rng);
  auto net = make_mlp({2, 16, 2}, rng);
  TrainConfig config;
  config.epochs = 200;
  config.patience = 3;
  config.learning_rate = 5e-3;
  const auto result = train_classifier(*net, inputs, labels, config, rng,
                                       val_inputs, val_labels);
  // Separable blobs saturate quickly; patience must kick in well before 200.
  EXPECT_LT(result.epochs_run, 50u);
  EXPECT_GT(result.best_validation_accuracy, 0.8);
}

TEST(Trainer, RejectsMismatchedLabels) {
  Rng rng(23);
  auto net = make_mlp({2, 4, 2}, rng);
  const Tensor inputs = Tensor::matrix(3, 2);
  const std::vector<std::size_t> labels = {0, 1};
  TrainConfig config;
  EXPECT_THROW((void)train_classifier(*net, inputs, labels, config, rng),
               std::invalid_argument);
}

TEST(Trainer, RejectsEmptyTrainingSet) {
  Rng rng(24);
  auto net = make_mlp({2, 4, 2}, rng);
  const Tensor inputs = Tensor::matrix(0, 2);
  TrainConfig config;
  EXPECT_THROW((void)train_classifier(*net, inputs, {}, config, rng),
               std::invalid_argument);
}

TEST(Trainer, SoftTargetsLearnMixtures) {
  Rng rng(25);
  Tensor inputs;
  std::vector<std::size_t> labels;
  make_blobs(50, 2, inputs, labels, rng);
  Tensor targets = Tensor::matrix(inputs.rows(), 2);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    // Soft label biased 80/20 toward the true class.
    targets.at(i, labels[i]) = 0.8f;
    targets.at(i, 1 - labels[i]) = 0.2f;
  }
  auto net = make_mlp({2, 16, 2}, rng);
  TrainConfig config;
  config.epochs = 40;
  config.learning_rate = 5e-3;
  const auto result = train_soft_classifier(*net, inputs, targets, config,
                                            rng);
  EXPECT_GT(result.final_train_accuracy, 0.95);
  // With 0.8/0.2 targets the optimal CE is the target entropy, not 0.
  EXPECT_GT(result.epoch_losses.back(), 0.3);
}

TEST(GatherRows, SelectsRows) {
  const Tensor m(Shape{3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> idx = {2, 0};
  const Tensor g = gather_rows(m, idx);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
}

/// Bits of a trained detector: every epoch loss and every final weight
/// folded into one digest, and the training Rng's next draw.
struct TrainedBits {
  std::uint64_t digest = 0;
  std::uint64_t next_draw = 0;
};

/// Trains a compressed detector for two epochs on the first `frame_count`
/// micro-world training frames at `level`.
void train_micro_detector(simd::Level level, std::size_t frame_count,
                          TrainedBits& out) {
  SimdLevelGuard guard(level);
  const world::World world = world::make_benchmark_world(micro_world_config());
  const auto train = world.frames_with_role(world::SplitRole::kTrain);
  ASSERT_GE(train.size(), frame_count);
  const std::vector<const world::Frame*> frames(train.begin(),
                                                train.begin() + frame_count);
  Rng rng(11);
  detect::GridDetector detector(detect::GridDetectorConfig::compressed(),
                                rng);
  detect::DetectorTrainConfig config;
  config.epochs = 2;
  const auto result = detect::train_detector(detector, frames, config, rng);
  ASSERT_EQ(result.epoch_losses.size(), 2u);

  Fnv1a digest;
  for (double loss : result.epoch_losses) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &loss, sizeof(bits));
    digest.mix(bits);
  }
  for (Parameter* param : detector.network().parameters()) {
    for (float value : param->value.data()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      digest.mix(bits);
    }
  }
  out.digest = digest.value();
  out.next_draw = rng();
}

/// Algorithm 1's detector step on the micro world: two epochs over 40
/// training frames. The golden values were recorded with the full
/// backward pass in the loop, so the parameter-only backward must leave
/// training bit-for-bit unchanged.
TEST(DetectorTrainerGolden, MicroWorldLossesAndWeightsUnchanged) {
  TrainedBits bits;
  ASSERT_NO_FATAL_FAILURE(
      train_micro_detector(simd::Level::kScalar, 40, bits));
  EXPECT_EQ(bits.digest, 0x561e266b107f333dULL);
  EXPECT_EQ(bits.next_draw, 16482541442581881830ULL);
}

/// The same step at the AVX2 level, on 43 frames: five full batches of
/// eight and a partial batch of three, so the last batch's assembly is
/// pinned too. Recorded before the narrow GEMM dropped its zero test for
/// finite B, ReLU backward was vectorized and batches were assembled with
/// one block copy per frame.
TEST(DetectorTrainerGolden, MicroWorldLossesAndWeightsUnchangedAtAvx2) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  TrainedBits bits;
  ASSERT_NO_FATAL_FAILURE(train_micro_detector(simd::Level::kAVX2, 43, bits));
  EXPECT_EQ(bits.digest, 0x2fefffa371042dfdULL);
  EXPECT_EQ(bits.next_draw, 6908848484478381164ULL);
}

}  // namespace
}  // namespace anole::nn
