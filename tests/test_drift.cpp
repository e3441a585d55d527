// DriftDetector (core/drift.hpp): CUSUM change detection over the
// decision-confidence stream, the serving response it produces, and the
// engine/session wiring.
#include "core/drift.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "world/scenario.hpp"

namespace anole::core {
namespace {

DriftConfig tight_config() {
  DriftConfig config;
  config.window = 16;
  config.baseline_window = 16;
  config.cusum_slack = 0.05;
  config.cusum_threshold = 0.5;
  config.min_separation = 8;
  return config;
}

TEST(DriftDetector, StationaryStreamNeverFires) {
  DriftDetector detector(tight_config());
  for (int i = 0; i < 500; ++i) {
    detector.observe_confidence(0.8);
  }
  EXPECT_EQ(detector.detections(), 0u);
  EXPECT_FALSE(detector.response_pending());
  EXPECT_NEAR(detector.baseline_mean(), 0.8, 1e-9);
}

TEST(DriftDetector, DetectsConfidenceCollapse) {
  DriftDetector detector(tight_config());
  for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
  ASSERT_EQ(detector.detections(), 0u);
  int fired_after = -1;
  for (int i = 0; i < 50; ++i) {
    detector.observe_confidence(0.3);
    if (detector.detections() > 0) {
      fired_after = i;
      break;
    }
  }
  // 0.8 - 0.3 - 0.05 slack = 0.45 per observation: two collapse frames
  // cross the 0.5 threshold.
  ASSERT_GE(fired_after, 0);
  EXPECT_LE(fired_after, 3);
  ASSERT_TRUE(detector.response_pending());
  const DriftResponse response = detector.take_response();
  EXPECT_FALSE(detector.response_pending());
  // Floor recalibrates into the new regime: below the collapsed
  // confidence, not the clean one.
  EXPECT_GT(response.recalibrated_floor, 0.0);
  EXPECT_LT(response.recalibrated_floor, 0.3);
}

TEST(DriftDetector, RebaselinesAndDecaysPerDetection) {
  DriftDetector detector(tight_config());
  for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
  for (int i = 0; i < 60; ++i) detector.observe_confidence(0.4);
  ASSERT_EQ(detector.detections(), 1u);
  const double first_floor = detector.take_response().recalibrated_floor;
  // The detector re-baselined on the 0.4 regime: staying there is quiet…
  for (int i = 0; i < 100; ++i) detector.observe_confidence(0.4);
  EXPECT_EQ(detector.detections(), 1u);
  // …and a second collapse fires a second response whose floor decays
  // into the new, lower regime.
  for (int i = 0; i < 60; ++i) detector.observe_confidence(0.05);
  ASSERT_EQ(detector.detections(), 2u);
  const double second_floor = detector.take_response().recalibrated_floor;
  EXPECT_GT(second_floor, 0.0);
  EXPECT_LT(second_floor, 0.05);
  EXPECT_LT(second_floor, first_floor);
}

TEST(DriftDetector, LatencyShiftIsInformationalOnly) {
  DriftDetector detector(tight_config());
  for (int i = 0; i < 16; ++i) detector.observe_latency(10.0);
  for (int i = 0; i < 50; ++i) detector.observe_latency(40.0);
  EXPECT_GE(detector.latency_detections(), 1u);
  EXPECT_EQ(detector.detections(), 0u);
  EXPECT_FALSE(detector.response_pending());
}

TEST(DriftDetector, TraceHashIsReplayableAndSensitive) {
  const auto feed = [](DriftDetector& detector, double late) {
    for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
    for (int i = 0; i < 80; ++i) detector.observe_confidence(late);
  };
  DriftDetector a(tight_config());
  DriftDetector b(tight_config());
  DriftDetector c(tight_config());
  feed(a, 0.3);
  feed(b, 0.3);
  feed(c, 0.2);
  EXPECT_GE(a.detections(), 1u);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_NE(a.trace_hash(), c.trace_hash());
  a.reset();
  EXPECT_EQ(a.detections(), 0u);
  EXPECT_EQ(a.trace().size(), 0u);
  EXPECT_FALSE(a.response_pending());
}

TEST(DriftDetector, ContractChecks) {
  DriftDetector detector;
  EXPECT_THROW(detector.take_response(), ContractViolation);
  DriftConfig bad;
  bad.window = 1;
  EXPECT_THROW(DriftDetector{bad}, ContractViolation);
  bad = DriftConfig{};
  bad.cusum_threshold = 0.0;
  EXPECT_THROW(DriftDetector{bad}, ContractViolation);
}

/// Engine-level drift tests share one trained system (same scale as the
/// engine fault tests: a small world, 6 compressed models).
class EngineDriftTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    world::WorldConfig world_config;
    world_config.frames_per_clip = 50;
    world_config.clip_scale = 0.12;
    world_config.seed = 77;
    world_ = std::make_unique<world::World>(
        world::make_benchmark_world(world_config));
    ProfilerConfig config;
    config.encoder.train.epochs = 15;
    config.repository.target_models = 6;
    config.repository.detector_train.epochs = 6;
    config.repository.min_training_frames = 20;
    config.repository.min_validation_frames = 4;
    config.sampling.budget = 150;
    config.decision.train.epochs = 15;
    Rng rng(3);
    OfflineProfiler profiler(config);
    system_ = std::make_unique<AnoleSystem>(profiler.run(*world_, rng));

    // A drift-pack stream: the scene mix shifts toward hostile scenes
    // the decision model barely saw.
    world::ScenarioConfig scenario;
    scenario.seed = 40;
    scenario.arm(world::ScenarioPack::kDrift, 1.0);
    stream_ = std::make_unique<world::ScenarioStream>(
        world::compose_scenario(*world_, scenario, 600));
  }

  static void TearDownTestSuite() {
    stream_.reset();
    system_.reset();
    world_.reset();
  }

  /// Plain per-frame MSS with a fixed confidence floor calibrated for
  /// the clean mix — the one setting a drift response recalibrates.
  static EngineConfig floored_config() {
    EngineConfig config;
    config.cache.capacity = 3;
    config.confidence_floor = 0.35;
    return config;
  }

  static std::vector<const world::Frame*> stream_frames() {
    std::vector<const world::Frame*> frames;
    frames.reserve(stream_->clip.size());
    for (const world::Frame& frame : stream_->clip.frames) {
      frames.push_back(&frame);
    }
    return frames;
  }

  static std::unique_ptr<world::World> world_;
  static std::unique_ptr<AnoleSystem> system_;
  static std::unique_ptr<world::ScenarioStream> stream_;
};

std::unique_ptr<world::World> EngineDriftTest::world_;
std::unique_ptr<AnoleSystem> EngineDriftTest::system_;
std::unique_ptr<world::ScenarioStream> EngineDriftTest::stream_;

/// Drives the detector into a pending response (a confidence collapse of
/// the kind the bench reproduces organically at full scale — at this
/// fixture's size the 6-model decision head saturates near 1.0, so the
/// collapse is injected) and verifies the engine consumes and applies it
/// on the next planned frame.
TEST_F(EngineDriftTest, ResponderAppliesPendingResponse) {
  DriftDetector detector(tight_config());
  for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
  for (int i = 0; i < 8; ++i) detector.observe_confidence(0.1);
  ASSERT_EQ(detector.detections(), 1u);
  ASSERT_TRUE(detector.response_pending());
  const std::size_t prior_obs = detector.confidence_observations();

  EngineConfig config = floored_config();
  config.drift = &detector;
  AnoleEngine engine(*system_, config);
  const EngineResult first = engine.process(stream_->clip.frames[0]);
  EXPECT_TRUE(first.health.drift_detected);
  EXPECT_TRUE(first.health.drift_recalibrated);
  EXPECT_EQ(engine.drift_responses(), 1u);
  EXPECT_EQ(engine.drift_recalibrations(), 1u);
  EXPECT_FALSE(detector.response_pending());
  // The floor recalibrated into the collapsed regime.
  EXPECT_GT(engine.effective_confidence_floor(), 0.0);
  EXPECT_LT(engine.effective_confidence_floor(), 0.35);

  // The engine keeps feeding the detector: one observation per fresh
  // ranking, and response accounting stays consistent frame over frame.
  std::size_t response_frames = 1;
  for (std::size_t i = 1; i < 50; ++i) {
    const EngineResult result = engine.process(stream_->clip.frames[i]);
    if (result.health.drift_detected) ++response_frames;
  }
  EXPECT_EQ(engine.drift_responses(), response_frames);
  EXPECT_EQ(detector.confidence_observations(), prior_obs + 50);
}

TEST_F(EngineDriftTest, BatchMatchesSerialWithDriftAttached) {
  const auto prime = [](DriftDetector& detector) {
    for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
    for (int i = 0; i < 8; ++i) detector.observe_confidence(0.1);
  };
  DriftDetector serial_detector(tight_config());
  DriftDetector batch_detector(tight_config());
  prime(serial_detector);
  prime(batch_detector);
  ASSERT_TRUE(serial_detector.response_pending());
  EngineConfig serial_config = floored_config();
  serial_config.drift = &serial_detector;
  EngineConfig batch_config = floored_config();
  batch_config.drift = &batch_detector;
  AnoleEngine serial(*system_, serial_config);
  AnoleEngine batch(*system_, batch_config);

  std::vector<EngineResult> serial_results;
  for (const world::Frame& frame : stream_->clip.frames) {
    serial_results.push_back(serial.process(frame));
  }
  const std::vector<EngineResult> batch_results =
      batch.process_batch(stream_frames());

  ASSERT_EQ(serial_results.size(), batch_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].served_model, batch_results[i].served_model)
        << i;
    EXPECT_EQ(serial_results[i].health.drift_detected,
              batch_results[i].health.drift_detected)
        << i;
  }
  EXPECT_EQ(serial_detector.trace_hash(), batch_detector.trace_hash());
  EXPECT_GE(serial_detector.detections(), 1u);
  EXPECT_GE(serial.drift_responses(), 1u);
  EXPECT_EQ(serial.drift_responses(), batch.drift_responses());
}

}  // namespace
}  // namespace anole::core
