#include "detect/detector_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "simd_levels.hpp"
#include "world/world.hpp"

namespace anole::detect {
namespace {

TEST(Iou, IdenticalBoxesGiveOne) {
  EXPECT_NEAR(iou(0.5, 0.5, 0.2, 0.2, 0.5, 0.5, 0.2, 0.2), 1.0, 1e-9);
}

TEST(Iou, DisjointBoxesGiveZero) {
  EXPECT_DOUBLE_EQ(iou(0.2, 0.2, 0.1, 0.1, 0.8, 0.8, 0.1, 0.1), 0.0);
}

TEST(Iou, HalfOverlap) {
  // Two unit-width boxes offset by half a width: intersection 0.5, union 1.5.
  EXPECT_NEAR(iou(0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 1.0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(Iou, ZeroAreaIsZero) {
  EXPECT_DOUBLE_EQ(iou(0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0), 0.0);
}

TEST(Nms, SuppressesOverlaps) {
  std::vector<Detection> dets = {
      {0.5, 0.5, 0.2, 0.2, 0.9},
      {0.51, 0.5, 0.2, 0.2, 0.8},  // heavy overlap with first
      {0.1, 0.1, 0.1, 0.1, 0.7},
  };
  const auto kept = non_maximum_suppression(dets, 0.3);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.9);
  EXPECT_DOUBLE_EQ(kept[1].confidence, 0.7);
}

TEST(Nms, CenterDistanceSuppression) {
  std::vector<Detection> dets = {
      {0.50, 0.50, 0.05, 0.30, 0.9},
      {0.50, 0.56, 0.30, 0.05, 0.8},  // low IoU but nearly same center
  };
  EXPECT_EQ(non_maximum_suppression(dets, 0.3, 0.0).size(), 2u);
  EXPECT_EQ(non_maximum_suppression(dets, 0.3, 0.10).size(), 1u);
}

TEST(Nms, KeepsConfidenceOrder) {
  std::vector<Detection> dets = {
      {0.1, 0.1, 0.05, 0.05, 0.2},
      {0.9, 0.9, 0.05, 0.05, 0.95},
  };
  const auto kept = non_maximum_suppression(dets, 0.3);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.95);
}

TEST(MatchCounts, PrecisionRecallF1) {
  MatchCounts counts;
  counts.true_positives = 6;
  counts.false_positives = 2;
  counts.false_negatives = 4;
  EXPECT_DOUBLE_EQ(counts.precision(), 0.75);
  EXPECT_DOUBLE_EQ(counts.recall(), 0.6);
  EXPECT_NEAR(counts.f1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
}

TEST(MatchCounts, EmptyIsZero) {
  MatchCounts counts;
  EXPECT_DOUBLE_EQ(counts.precision(), 0.0);
  EXPECT_DOUBLE_EQ(counts.recall(), 0.0);
  EXPECT_DOUBLE_EQ(counts.f1(), 0.0);
}

TEST(MatchCounts, Accumulate) {
  MatchCounts a;
  a.true_positives = 1;
  MatchCounts b;
  b.false_negatives = 2;
  a += b;
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_negatives, 2u);
}

TEST(Matching, PerfectDetection) {
  const std::vector<world::ObjectInstance> truth = {{0.5, 0.5, 0.2, 0.2, 1.0}};
  const std::vector<Detection> dets = {{0.5, 0.5, 0.2, 0.2, 0.9}};
  const auto counts = match_detections(dets, truth, 0.5);
  EXPECT_EQ(counts.true_positives, 1u);
  EXPECT_EQ(counts.false_positives, 0u);
  EXPECT_EQ(counts.false_negatives, 0u);
}

TEST(Matching, GreedyPrefersConfident) {
  const std::vector<world::ObjectInstance> truth = {{0.5, 0.5, 0.2, 0.2, 1.0}};
  // Both detections overlap the single truth; only one may match.
  const std::vector<Detection> dets = {{0.5, 0.5, 0.2, 0.2, 0.6},
                                       {0.52, 0.5, 0.2, 0.2, 0.9}};
  const auto counts = match_detections(dets, truth, 0.3);
  EXPECT_EQ(counts.true_positives, 1u);
  EXPECT_EQ(counts.false_positives, 1u);
}

TEST(Matching, MissedObjectsAreFalseNegatives) {
  const std::vector<world::ObjectInstance> truth = {
      {0.2, 0.2, 0.1, 0.1, 1.0}, {0.8, 0.8, 0.1, 0.1, 1.0}};
  const auto counts = match_detections({}, truth);
  EXPECT_EQ(counts.false_negatives, 2u);
}

TEST(GridDetector, PresetCapacityOrdering) {
  Rng rng(1);
  GridDetector tiny(GridDetectorConfig::compressed(), rng);
  GridDetector deep(GridDetectorConfig::large(), rng);
  EXPECT_GT(deep.flops_per_frame(), 8 * tiny.flops_per_frame());
  EXPECT_LT(deep.flops_per_frame(), 30 * tiny.flops_per_frame());
  EXPECT_GT(deep.weight_bytes(), tiny.weight_bytes());
}

TEST(GridDetector, BuildInputsShape) {
  Rng rng(2);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  const auto frame = generator.render(style, attrs, {}, rng);
  const Tensor inputs = GridDetector::build_inputs(frame);
  EXPECT_EQ(inputs.rows(), frame.cell_count());
  EXPECT_EQ(inputs.cols(), GridDetector::input_features());
}

TEST(GridDetector, TargetsMarkCenterCell) {
  Rng rng(3);
  world::FrameGenerator generator(10);
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  world::ObjectInstance obj;
  obj.cx = 0.55;
  obj.cy = 0.35;
  obj.w = 0.1;
  obj.h = 0.12;
  const auto frame = generator.render(style, attrs, {obj}, rng);
  const auto targets = GridDetector::build_targets(frame);
  // Center cell (x=5, y=3) on a 10-grid.
  const std::size_t cell = 3 * 10 + 5;
  EXPECT_EQ(targets.objectness.at(cell, 0), 1.0f);
  EXPECT_NEAR(targets.boxes.at(cell, 0), 0.5f, 1e-5f);  // dx within cell
  EXPECT_NEAR(targets.boxes.at(cell, 2), 0.1f, 1e-5f);  // width
  EXPECT_EQ(targets.box_mask.at(cell, 3), 1.0f);
  // All other cells negative.
  float total = targets.objectness.sum();
  EXPECT_EQ(total, 1.0f);
}

TEST(GridDetector, ConfidenceThresholdControlsOutput) {
  Rng rng(4);
  GridDetectorConfig config = GridDetectorConfig::compressed();
  config.confidence_threshold = 1.1;  // impossible
  GridDetector detector(config, rng);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto frame =
      generator.render(world::SceneStyle::from_attributes(attrs), attrs, {},
                       rng);
  EXPECT_TRUE(detector.detect(frame).empty());
}

/// GridDetector::infer's decode without the logit prefilter: every cell's
/// confidence through exp, then the exact threshold test and NMS.
std::vector<Detection> reference_decode(GridDetector& detector,
                                        const world::Frame& frame) {
  const Tensor outputs =
      detector.network().infer(GridDetector::build_inputs(frame));
  const std::size_t g = frame.grid_size;
  std::vector<Detection> detections;
  for (std::size_t i = 0; i < frame.cell_count(); ++i) {
    auto row = outputs.row(i);
    const double confidence = 1.0 / (1.0 + std::exp(-row[0]));
    if (confidence < detector.config().confidence_threshold) continue;
    Detection det;
    det.confidence = confidence;
    det.cx = (static_cast<double>(i % g) +
              std::clamp(static_cast<double>(row[1]), 0.0, 1.0)) /
             static_cast<double>(g);
    det.cy = (static_cast<double>(i / g) +
              std::clamp(static_cast<double>(row[2]), 0.0, 1.0)) /
             static_cast<double>(g);
    det.w = std::clamp(static_cast<double>(row[3]), 0.02, 0.5);
    det.h = std::clamp(static_cast<double>(row[4]), 0.02, 0.5);
    detections.push_back(det);
  }
  return non_maximum_suppression(std::move(detections),
                                 detector.config().nms_threshold,
                                 detector.config().nms_center_distance);
}

bool same_bits(const std::vector<Detection>& a,
               const std::vector<Detection>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Detection)) == 0);
}

TEST(GridDetector, LogitPrefilterMatchesExactDecodeAtTheBoundary) {
  // Zeroed last-layer weights make every cell's objectness logit equal
  // the bias, which is placed at and just around logit(t); thresholds
  // outside (0, 1) take the exact test for every cell.
  Rng rng(5);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  nn::Sequential& net = detector.network();
  auto& last = dynamic_cast<nn::Linear&>(net.at(net.size() - 1));
  last.weight().value.fill(0.0f);
  last.bias().value.fill(0.0f);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto frame = generator.render(
      world::SceneStyle::from_attributes(attrs), attrs, {}, rng);
  const double thresholds[] = {0.0, 1e-9, 0.05, 0.5, 1.0 - 1e-9,
                               1.0 - std::ldexp(1.0, -52), 1.0, 1.5};
  const double offsets[] = {-2e-3, -1e-3, -1e-12, 0.0, 1e-12};
  for (double t : thresholds) {
    const double logit =
        t <= 0.0 ? -20.0 : t >= 1.0 ? 20.0 : std::log(t / (1.0 - t));
    detector.set_confidence_threshold(t);
    for (double offset : offsets) {
      last.bias().value[0] = static_cast<float>(logit + offset);
      const std::vector<Detection> served = detector.infer(frame);
      EXPECT_TRUE(same_bits(served, reference_decode(detector, frame)))
          << "threshold " << t << ", logit offset " << offset << ": "
          << served.size() << " detections";
    }
  }
}

TEST(DetectorTrainConfig, EffectiveEpochsScaling) {
  DetectorTrainConfig config;
  config.epochs = 10;
  config.reference_frames = 0;
  EXPECT_EQ(config.effective_epochs(50), 10u);
  config.reference_frames = 1000;
  EXPECT_EQ(config.effective_epochs(1000), 10u);
  EXPECT_EQ(config.effective_epochs(500), 20u);
  EXPECT_EQ(config.effective_epochs(10), 60u);  // capped at 6x
  EXPECT_EQ(config.effective_epochs(0), 10u);
}

TEST(DetectorTraining, LearnsASingleScene) {
  Rng rng(5);
  world::ClipGenerator generator;
  world::ClipSpec spec;
  spec.attributes = {world::Weather::kClear, world::Location::kUrban,
                     world::TimeOfDay::kDaytime};
  spec.length = 120;
  const auto clip = generator.generate(spec, rng);
  std::vector<const world::Frame*> train;
  std::vector<const world::Frame*> test;
  for (std::size_t i = 0; i < 100; ++i) train.push_back(&clip.frames[i]);
  for (std::size_t i = 100; i < 120; ++i) test.push_back(&clip.frames[i]);

  GridDetector detector(GridDetectorConfig::compressed(), rng);
  const double before = evaluate_f1(detector, test);
  DetectorTrainConfig config;
  config.epochs = 16;
  const auto result = train_detector(detector, train, config, rng);
  const double after = evaluate_f1(detector, test);
  EXPECT_EQ(result.frames_seen, 100u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.35);
}

/// The detector loss as it was composed before the fused pass: split the
/// outputs into objectness and box columns, nn::bce_with_logits and the
/// masked nn::mse_loss on those, then merge the gradients with the box
/// columns scaled by float(box_loss_weight).
struct ComposedLoss {
  float objectness = 0.0f;
  float box = 0.0f;
  Tensor grad;
};

ComposedLoss composed_loss(const Tensor& outputs,
                           const GridDetector::Targets& targets,
                           float positive_weight, double box_loss_weight) {
  const std::size_t cells = outputs.rows();
  Tensor objectness(Shape{cells, 1});
  Tensor boxes(Shape{cells, 4});
  for (std::size_t i = 0; i < cells; ++i) {
    objectness.at(i, 0) = outputs.at(i, 0);
    for (std::size_t c = 0; c < 4; ++c) boxes.at(i, c) = outputs.at(i, c + 1);
  }
  Tensor grad_obj;
  Tensor grad_boxes;
  ComposedLoss loss;
  loss.objectness = nn::bce_with_logits(objectness, targets.objectness,
                                        grad_obj, positive_weight);
  loss.box = nn::mse_loss(boxes, targets.boxes, grad_boxes, targets.box_mask);
  loss.grad = Tensor(Shape{cells, GridDetector::kOutputsPerCell});
  for (std::size_t i = 0; i < cells; ++i) {
    loss.grad.at(i, 0) = grad_obj.at(i, 0);
    for (std::size_t c = 0; c < 4; ++c) {
      loss.grad.at(i, c + 1) =
          static_cast<float>(box_loss_weight) * grad_boxes.at(i, c);
    }
  }
  return loss;
}

std::uint32_t float_bits(float x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// detector_loss against the composition, every bit, at every SIMD level.
void expect_fused_loss_matches(const Tensor& outputs,
                               const GridDetector::Targets& targets,
                               float positive_weight, double box_weight) {
  for (simd::Level level : available_levels()) {
    SimdLevelGuard guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)) + ", positive weight " +
                 std::to_string(positive_weight) + ", box weight " +
                 std::to_string(box_weight));
    const ComposedLoss expected =
        composed_loss(outputs, targets, positive_weight, box_weight);
    Tensor grad;
    const DetectorLoss loss =
        detector_loss(outputs, targets, positive_weight, box_weight, grad);
    EXPECT_EQ(float_bits(loss.objectness), float_bits(expected.objectness));
    EXPECT_EQ(float_bits(loss.box), float_bits(expected.box));
    ASSERT_EQ(grad.shape(), expected.grad.shape());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(float_bits(grad[i]), float_bits(expected.grad[i]))
          << "gradient element " << i << " (cell " << i / 5 << ", column "
          << i % 5 << ")";
    }
  }
}

/// A real 8-frame training batch and a fresh compressed detector's outputs
/// on it.
struct LossCase {
  Tensor outputs;
  GridDetector::Targets targets;
};

LossCase real_batch(std::uint64_t seed) {
  Rng rng(seed);
  world::ClipGenerator generator;
  world::ClipSpec spec;
  spec.attributes = {world::Weather::kRainy, world::Location::kHighway,
                     world::TimeOfDay::kDawnDusk};
  spec.length = 8;
  const auto clip = generator.generate(spec, rng);
  std::vector<CompactFrame> frames;
  for (const world::Frame& frame : clip.frames) {
    frames.push_back(compact_frame(frame));
  }
  std::vector<std::size_t> order(frames.size());
  std::iota(order.begin(), order.end(), 0);
  DetectorBatch batch = stack_batch(frames, order);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  LossCase out;
  out.outputs = detector.network().forward(std::move(batch.inputs));
  out.targets = std::move(batch.targets);
  return out;
}

TEST(DetectorLoss, FusedPassMatchesComposedLossesBitForBit) {
  const LossCase batch = real_batch(41);
  double positives = 0.0;
  for (float t : batch.targets.objectness.data()) positives += t;
  ASSERT_GT(positives, 0.0) << "the batch should hold object cells";
  for (const float positive_weight : {6.0f, 1.0f, 0.37f}) {
    for (const double box_weight : {1.0, 2.5, -0.75, 0.0}) {
      expect_fused_loss_matches(batch.outputs, batch.targets,
                                positive_weight, box_weight);
    }
  }
}

/// Wide logits (|z| up to ~20, where the AVX2 polynomial and libm part
/// ways most) and a mask with fractional, negative and -0 weights.
TEST(DetectorLoss, FusedPassMatchesOnSyntheticExtremes) {
  Rng rng(43);
  constexpr std::size_t kCells = 37;  // not a multiple of the vector width
  LossCase batch;
  batch.outputs = Tensor(Shape{kCells, 5});
  batch.targets.objectness = Tensor(Shape{kCells, 1});
  batch.targets.boxes = Tensor(Shape{kCells, 4});
  batch.targets.box_mask = Tensor(Shape{kCells, 4});
  for (float& v : batch.outputs.data()) {
    v = static_cast<float>(rng.normal(0.0, 7.0));
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    const bool object = rng.bernoulli(0.3);
    batch.targets.objectness.at(i, 0) = object ? 1.0f : 0.0f;
    for (std::size_t c = 0; c < 4; ++c) {
      batch.targets.boxes.at(i, c) = static_cast<float>(rng.uniform());
      batch.targets.box_mask.at(i, c) =
          object ? static_cast<float>(rng.uniform(-0.5, 1.5)) : 0.0f;
    }
  }
  batch.targets.box_mask.at(7, 0) = -0.0f;
  for (const double box_weight : {1.0, -3.0}) {
    expect_fused_loss_matches(batch.outputs, batch.targets, 6.0f,
                              box_weight);
  }
}

/// A batch without a single object cell: the mask sums to 0, the box loss
/// is 0 and its gradient is unscaled zeros (-0 under a negative weight).
TEST(DetectorLoss, FusedPassMatchesWithoutObjectCells) {
  LossCase batch = real_batch(47);
  batch.targets.objectness.fill(0.0f);
  batch.targets.box_mask.fill(0.0f);
  for (const double box_weight : {1.0, -0.75}) {
    expect_fused_loss_matches(batch.outputs, batch.targets, 6.0f,
                              box_weight);
  }
  Tensor grad;
  const DetectorLoss loss =
      detector_loss(batch.outputs, batch.targets, 6.0f, -0.75, grad);
  EXPECT_EQ(loss.box, 0.0f);
  EXPECT_TRUE(std::signbit(grad.at(0, 1)));
}

/// A mask whose weights cancel (sum exactly 0) leaves the box gradient
/// unscaled, as nn::mse_loss does.
TEST(DetectorLoss, FusedPassMatchesWhenMaskWeightsCancel) {
  LossCase batch = real_batch(53);
  batch.targets.box_mask.fill(0.0f);
  batch.targets.box_mask.at(3, 1) = 1.0f;
  batch.targets.box_mask.at(9, 2) = -1.0f;
  expect_fused_loss_matches(batch.outputs, batch.targets, 6.0f, 1.0);
}

TEST(DetectorLoss, RejectsBadShapesAndWeights) {
  const LossCase batch = real_batch(59);
  Tensor grad;
  EXPECT_THROW((void)detector_loss(batch.outputs, batch.targets, 0.0f, 1.0,
                                   grad),
               std::invalid_argument);
  EXPECT_THROW((void)detector_loss(batch.outputs, batch.targets,
                                   std::nanf(""), 1.0, grad),
               std::invalid_argument);
  GridDetector::Targets short_targets = batch.targets;
  short_targets.boxes = Tensor(Shape{batch.outputs.rows() - 1, 4});
  EXPECT_THROW((void)detector_loss(batch.outputs, short_targets, 6.0f, 1.0,
                                   grad),
               std::invalid_argument);
  EXPECT_THROW((void)detector_loss(Tensor(Shape{4, 4}), batch.targets, 6.0f,
                                   1.0, grad),
               std::invalid_argument);
}

/// train_detector checks positive_weight at entry, before any frame is
/// featurized (and even when there are none).
TEST(DetectorTraining, RejectsNonPositivePositiveWeight) {
  Rng rng(7);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  DetectorTrainConfig config;
  config.positive_weight = 0.0;
  EXPECT_THROW((void)train_detector(detector, {}, config, rng),
               std::invalid_argument);
  config.positive_weight = -1.0;
  EXPECT_THROW((void)train_detector(detector, {}, config, rng),
               std::invalid_argument);
}

/// Training-batch rows assembled from the compact frame cache are the rows
/// build_inputs writes, bit for bit, in batch order and across two grid
/// sizes; the targets are build_targets' rows.
TEST(DetectorBatch, CompactAssemblyMatchesBuildInputsBitForBit) {
  Rng rng(8);
  world::ClipGenerator generator;
  world::ClipSpec spec;
  spec.attributes = {world::Weather::kFoggy, world::Location::kUrban,
                     world::TimeOfDay::kNight};
  spec.length = 4;
  const auto clip = generator.generate(spec, rng);
  std::vector<world::Frame> frames(clip.frames.begin(), clip.frames.end());
  world::FrameGenerator small_grid(7);
  const world::SceneAttributes attrs{world::Weather::kRainy,
                                     world::Location::kHighway,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  std::vector<world::ObjectInstance> objects;
  for (int i = 0; i < 3; ++i) {
    objects.push_back(small_grid.sample_object(style, rng));
  }
  frames.push_back(small_grid.render(style, attrs, objects, rng));
  ASSERT_NE(frames.back().grid_size, frames.front().grid_size);

  std::vector<CompactFrame> cache;
  for (const world::Frame& frame : frames) {
    cache.push_back(compact_frame(frame));
  }
  const std::vector<std::size_t> order = {2, 4, 0, 3, 1};
  const DetectorBatch batch = stack_batch(cache, order);
  std::vector<float> inputs;
  std::vector<float> objectness;
  std::vector<float> boxes;
  std::vector<float> box_mask;
  const auto append = [](std::vector<float>& to, const Tensor& t) {
    to.insert(to.end(), t.data().begin(), t.data().end());
  };
  for (std::size_t f : order) {
    append(inputs, GridDetector::build_inputs(frames[f]));
    const GridDetector::Targets targets =
        GridDetector::build_targets(frames[f]);
    append(objectness, targets.objectness);
    append(boxes, targets.boxes);
    append(box_mask, targets.box_mask);
  }
  const auto same_bits = [](const Tensor& t, const std::vector<float>& want) {
    return t.size() == want.size() &&
           std::memcmp(t.data().data(), want.data(),
                       want.size() * sizeof(float)) == 0;
  };
  EXPECT_EQ(batch.inputs.cols(), GridDetector::input_features());
  EXPECT_TRUE(same_bits(batch.inputs, inputs));
  EXPECT_TRUE(same_bits(batch.targets.objectness, objectness));
  EXPECT_TRUE(same_bits(batch.targets.boxes, boxes));
  EXPECT_TRUE(same_bits(batch.targets.box_mask, box_mask));

  const std::vector<std::size_t> out_of_range = {5};
  EXPECT_THROW((void)stack_batch(cache, out_of_range), std::invalid_argument);
}

/// A stop predicate that fires after k epochs leaves k epoch losses and
/// the weights a k-epoch run leaves; one that never fires changes nothing.
TEST(DetectorTraining, StopPredicateEndsAtAnEpochBoundary) {
  Rng clip_rng(9);
  world::ClipGenerator generator;
  world::ClipSpec spec;
  spec.attributes = {world::Weather::kClear, world::Location::kUrban,
                     world::TimeOfDay::kDaytime};
  spec.length = 24;
  const auto clip = generator.generate(spec, clip_rng);
  std::vector<const world::Frame*> frames;
  for (const world::Frame& frame : clip.frames) frames.push_back(&frame);

  const auto weights = [](GridDetector& detector) {
    std::vector<float> all;
    for (nn::Parameter* p : detector.network().parameters()) {
      all.insert(all.end(), p->value.data().begin(), p->value.data().end());
    }
    return all;
  };
  const auto train = [&](std::size_t epochs,
                         const std::function<bool()>& stop,
                         std::vector<float>& trained) {
    Rng rng(10);
    GridDetector detector(GridDetectorConfig::compressed(), rng);
    DetectorTrainConfig config;
    config.epochs = epochs;
    const DetectorTrainResult result =
        train_detector(detector, frames, config, rng, stop);
    trained = weights(detector);
    return result;
  };

  std::vector<float> full_weights;
  const DetectorTrainResult full = train(5, {}, full_weights);
  EXPECT_EQ(full.epoch_losses.size(), 5u);
  EXPECT_FALSE(full.stopped);
  std::vector<float> never_weights;
  const DetectorTrainResult never =
      train(5, [] { return false; }, never_weights);
  EXPECT_EQ(never.epoch_losses, full.epoch_losses);
  EXPECT_EQ(never_weights, full_weights);

  for (std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("stop after " + std::to_string(k) + " epochs");
    std::size_t calls = 0;
    std::vector<float> stopped_weights;
    const DetectorTrainResult stopped =
        train(5, [&] { return calls++ >= k; }, stopped_weights);
    EXPECT_EQ(stopped.epoch_losses.size(), k);
    EXPECT_TRUE(stopped.stopped);
    EXPECT_EQ(calls, k + 1);
    std::vector<float> short_weights;
    const DetectorTrainResult short_run = train(k, {}, short_weights);
    EXPECT_EQ(stopped.epoch_losses, short_run.epoch_losses);
    EXPECT_EQ(stopped_weights, short_weights);
  }
}

TEST(DetectorTraining, EmptyFrameListIsNoop) {
  Rng rng(6);
  GridDetector detector(GridDetectorConfig::compressed(), rng);
  DetectorTrainConfig config;
  const auto result = train_detector(detector, {}, config, rng);
  EXPECT_EQ(result.frames_seen, 0u);
  EXPECT_TRUE(result.epoch_losses.empty());
}

}  // namespace
}  // namespace anole::detect
