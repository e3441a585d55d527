#include "device/session.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/profiler.hpp"
#include "micro_world.hpp"

namespace anole::device {
namespace {

constexpr std::uint64_t kTinyFlops = 100000;   // one tiny unit
constexpr std::uint64_t kDeepFlops = 1180000;  // the paper's 11.8x spread

TEST(DeviceProfile, LatencyIsAffineInFlops) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const double l1 = tx2.inference_latency_ms(kTinyFlops);
  const double l2 = tx2.inference_latency_ms(2 * kTinyFlops);
  const double l3 = tx2.inference_latency_ms(3 * kTinyFlops);
  EXPECT_NEAR(l3 - l2, l2 - l1, 1e-9);
  EXPECT_GT(l1, tx2.inference_overhead_ms);
}

TEST(DeviceProfile, TableIvLatencyShape) {
  // Tiny and deep latencies must reproduce Table IV's ordering and rough
  // magnitudes per device.
  const auto nano = DeviceProfile::jetson_nano(kTinyFlops);
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const auto laptop = DeviceProfile::laptop(kTinyFlops);
  const double nano_tiny = nano.inference_latency_ms(kTinyFlops);
  const double tx2_tiny = tx2.inference_latency_ms(kTinyFlops);
  const double laptop_tiny = laptop.inference_latency_ms(kTinyFlops);
  EXPECT_NEAR(nano_tiny, 37.8, 2.0);
  EXPECT_NEAR(tx2_tiny, 10.8, 1.0);
  EXPECT_NEAR(laptop_tiny, 32.2, 2.0);
  const double nano_deep = nano.inference_latency_ms(kDeepFlops);
  const double tx2_deep = tx2.inference_latency_ms(kDeepFlops);
  const double laptop_deep = laptop.inference_latency_ms(kDeepFlops);
  EXPECT_NEAR(nano_deep, 313.8, 16.0);
  EXPECT_NEAR(tx2_deep, 42.9, 3.0);
  EXPECT_NEAR(laptop_deep, 62.2, 4.0);
  // TX2 NX with TensorRT is the fastest device in the paper.
  EXPECT_LT(tx2_tiny, laptop_tiny);
  EXPECT_LT(tx2_tiny, nano_tiny);
}

TEST(DeviceProfile, ThroughputScaleSlowsCompute) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  EXPECT_GT(tx2.inference_latency_ms(kTinyFlops, 0.5),
            tx2.inference_latency_ms(kTinyFlops, 1.0));
  EXPECT_THROW((void)tx2.inference_latency_ms(kTinyFlops, 0.0),
               std::invalid_argument);
}

TEST(DeviceProfile, FirstLoadPaysFrameworkInit) {
  const auto nano = DeviceProfile::jetson_nano(kTinyFlops);
  const double first = nano.load_latency_ms(40.0, true);
  const double later = nano.load_latency_ms(40.0, false);
  EXPECT_GT(first, later + 1000.0);
  EXPECT_NEAR(first - later, nano.framework_init_ms, 1e-9);
}

TEST(DeviceProfile, PowerCappedAtBudget) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  ASSERT_FALSE(tx2.power_modes.empty());
  const auto& mode = tx2.power_modes.back();
  // Absurd load: power must clamp to the mode budget.
  EXPECT_DOUBLE_EQ(tx2.power_watts(kDeepFlops * 100, 1000.0, mode),
                   mode.budget_watts);
  // Light load: above idle, below budget.
  const double light = tx2.power_watts(kTinyFlops, 10.0, mode);
  EXPECT_GT(light, tx2.idle_watts);
  EXPECT_LT(light, mode.budget_watts);
}

TEST(DeviceProfile, DeepModelDrawsMorePower) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const auto& mode = tx2.power_modes.back();
  EXPECT_GT(tx2.power_watts(kDeepFlops, 20.0, mode),
            tx2.power_watts(kTinyFlops, 20.0, mode));
}

TEST(DeviceProfile, MaxFpsInverseOfLatency) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const auto& mode = tx2.power_modes.back();
  const double fps = tx2.max_fps(kTinyFlops, mode);
  EXPECT_NEAR(fps, 1000.0 / tx2.inference_latency_ms(kTinyFlops), 1e-6);
  // The paper reports > 30 FPS for Anole's compressed models on TX2 NX.
  EXPECT_GT(fps, 30.0);
}

TEST(DeviceProfile, AllDevicesPresent) {
  const auto devices = DeviceProfile::all_devices(kTinyFlops);
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0].name, "Jetson Nano");
  EXPECT_EQ(devices[1].name, "Jetson TX2 NX");
  EXPECT_EQ(devices[2].name, "Laptop");
}

TEST(MemoryModel, TinyModelMapsToFortyMb) {
  MemoryModel memory(3500);
  EXPECT_NEAR(memory.load_mb(3500), 40.0, 1e-9);
  EXPECT_NEAR(memory.load_mb(7000), 80.0, 1e-9);
}

TEST(MemoryModel, ExecutionCostsMatchTableIvShape) {
  MemoryModel memory(3500);
  // Tiny detector: ~1120 MB execution in Table IV.
  EXPECT_NEAR(memory.execution_mb(3500, true), 1000.0 + 2.9 * 40.0, 1.0);
  // Classifier stack is much lighter (~584 MB).
  EXPECT_LT(memory.execution_mb(3500, false),
            memory.execution_mb(3500, true));
}

TEST(MemoryModel, RejectsZeroReference) {
  EXPECT_THROW(MemoryModel(0), std::invalid_argument);
}

TEST(DeviceSession, AccumulatesLatencies) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost cost;
  cost.detector_flops = kTinyFlops;
  const double l1 = session.process(cost);
  const double l2 = session.process(cost);
  EXPECT_DOUBLE_EQ(l1, l2);
  EXPECT_EQ(session.frames(), 2u);
  EXPECT_NEAR(session.total_ms(), l1 + l2, 1e-9);
  EXPECT_NEAR(session.mean_latency_ms(), l1, 1e-9);
  EXPECT_NEAR(session.fps(), 1000.0 / l1, 1e-6);
}

TEST(DeviceSession, FirstFrameLoadSpike) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost first;
  first.detector_flops = kTinyFlops;
  first.loaded_weight_mb = 40.0;
  FrameCost later;
  later.detector_flops = kTinyFlops;
  const double spike = session.process(first);
  const double steady = session.process(later);
  // The Fig. 4(a) shape: first frame dominated by load + framework init.
  EXPECT_GT(spike, 10.0 * steady);
  // A later load has no framework init.
  FrameCost reload = first;
  const double second_load = session.process(reload);
  EXPECT_LT(second_load, spike - tx2.framework_init_ms + 1.0);
  EXPECT_GT(second_load, steady);
}

TEST(DeviceSession, DecisionFlopsAddLatency) {
  const auto nano = DeviceProfile::jetson_nano(kTinyFlops);
  DeviceSession plain(nano);
  DeviceSession routed(nano);
  FrameCost detector_only;
  detector_only.detector_flops = kTinyFlops;
  FrameCost with_decision = detector_only;
  with_decision.decision_flops = kTinyFlops / 10;
  EXPECT_GT(routed.process(with_decision), plain.process(detector_only));
}

TEST(DeviceSession, EmptySessionStats) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const DeviceSession session(tx2);
  EXPECT_EQ(session.frames(), 0u);
  EXPECT_DOUBLE_EQ(session.mean_latency_ms(), 0.0);
  EXPECT_DOUBLE_EQ(session.fps(), 0.0);
  EXPECT_DOUBLE_EQ(session.p95_latency_ms(), 0.0);
  EXPECT_EQ(session.deadline_overruns(), 0u);
}

TEST(DeviceSession, FpsConventionInfiniteForFreeFrames) {
  // Documented convention: frames that cost 0 ms mean "instant", not
  // "stalled" — fps reports +infinity rather than 0.
  DeviceProfile free_profile;
  free_profile.inference_overhead_ms = 0.0;
  free_profile.ms_per_tiny_unit = 0.0;
  DeviceSession session(free_profile);
  (void)session.process(FrameCost{});
  EXPECT_EQ(session.frames(), 1u);
  EXPECT_DOUBLE_EQ(session.total_ms(), 0.0);
  EXPECT_TRUE(std::isinf(session.fps()));
  EXPECT_GT(session.fps(), 0.0);
}

TEST(DeviceSession, P95IsNearestRankPercentile) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    FrameCost cost;
    cost.detector_flops = i * kTinyFlops;
    (void)session.process(cost);
  }
  // Nearest rank over 20 ascending latencies: ceil(0.95 * 20) = 19th
  // smallest = the 19-unit frame.
  EXPECT_DOUBLE_EQ(session.p95_latency_ms(),
                   tx2.inference_latency_ms(19 * kTinyFlops));
  EXPECT_GT(session.p95_latency_ms(), session.mean_latency_ms());
}

TEST(DeviceSession, DeadlineOverrunsCounted) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost relaxed;
  relaxed.detector_flops = kTinyFlops;
  relaxed.deadline_ms = 1e9;
  FrameCost tight = relaxed;
  tight.deadline_ms = 0.5;
  FrameCost unbounded;
  unbounded.detector_flops = kTinyFlops;  // deadline_ms = 0 disables
  (void)session.process(relaxed);
  (void)session.process(tight);
  (void)session.process(unbounded);
  EXPECT_EQ(session.deadline_overruns(), 1u);
}

TEST(DeviceSession, RetriedWeightChargesStreamingTime) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession clean(tx2);
  DeviceSession retried(tx2);
  FrameCost cost;
  cost.detector_flops = kTinyFlops;
  cost.loaded_weight_mb = 40.0;
  const double clean_ms = clean.process(cost);
  cost.retried_weight_mb = 80.0;  // two failed attempts re-streamed
  const double retried_ms = retried.process(cost);
  EXPECT_NEAR(retried_ms - clean_ms, 80.0 * tx2.load_ms_per_mb, 1e-9);
}

TEST(DeviceSession, InjectedLoadSpikeMultipliesLoadLatency) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  fault::FaultInjector injector;
  injector.arm(fault::Site::kLoadLatencySpike, 1.0, 25.0);
  DeviceSession clean(tx2);
  DeviceSession spiked(tx2, 1.0, &injector);
  FrameCost load_frame;
  load_frame.loaded_weight_mb = 40.0;
  FrameCost compute_frame;
  compute_frame.detector_flops = kTinyFlops;
  const double clean_load = clean.process(load_frame);
  const double spiked_load = spiked.process(load_frame);
  // Only the load stalls: the fixed dispatch overhead (charged even at
  // zero FLOPs) is not multiplied.
  EXPECT_NEAR(spiked_load,
              25.0 * tx2.load_latency_ms(40.0, true) +
                  tx2.inference_latency_ms(0),
              1e-6);
  EXPECT_GT(spiked_load, 20.0 * clean_load);
  EXPECT_EQ(spiked.latency_spikes(), 1u);
  // Frames that stream no weights never consult the injector.
  (void)clean.process(compute_frame);
  (void)spiked.process(compute_frame);
  EXPECT_EQ(spiked.latency_spikes(), 1u);
  EXPECT_EQ(injector.checks(fault::Site::kLoadLatencySpike), 1u);
}

TEST(DeviceSession, P95WithOneFrameIsThatFrame) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost cost;
  cost.detector_flops = kTinyFlops;
  const double latency = session.process(cost);
  // Regression: nearest-rank with n = 1 must clamp to rank 1 (the only
  // frame), not underflow to rank 0.
  EXPECT_DOUBLE_EQ(session.p95_latency_ms(), latency);
}

TEST(DeviceSession, WindowedMeanCoversLastNFrames) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost cheap;
  cheap.detector_flops = kTinyFlops;
  FrameCost costly;
  costly.detector_flops = 10 * kTinyFlops;
  double cheap_ms = 0.0;
  double costly_ms = 0.0;
  for (int i = 0; i < 10; ++i) cheap_ms = session.process(cheap);
  for (int i = 0; i < 10; ++i) costly_ms = session.process(costly);
  EXPECT_DOUBLE_EQ(session.recent_mean_latency_ms(10), costly_ms);
  EXPECT_NEAR(session.recent_mean_latency_ms(20),
              (cheap_ms + costly_ms) / 2.0, 1e-9);
  // A window larger than the session clamps to every frame.
  EXPECT_NEAR(session.recent_mean_latency_ms(1000),
              session.mean_latency_ms(), 1e-9);
  EXPECT_THROW((void)session.recent_mean_latency_ms(0),
               std::invalid_argument);
}

TEST(DeviceSession, WindowedAccessorsOnEmptySession) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const DeviceSession session(tx2);
  EXPECT_DOUBLE_EQ(session.recent_mean_latency_ms(8), 0.0);
  EXPECT_DOUBLE_EQ(session.recent_overrun_rate(8), 0.0);
}

TEST(DeviceSession, WindowedOverrunRateTracksRecentFrames) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  DeviceSession session(tx2);
  FrameCost tight;
  tight.detector_flops = kTinyFlops;
  tight.deadline_ms = 0.5;
  FrameCost relaxed = tight;
  relaxed.deadline_ms = 1e9;
  for (int i = 0; i < 4; ++i) (void)session.process(tight);
  for (int i = 0; i < 4; ++i) (void)session.process(relaxed);
  EXPECT_DOUBLE_EQ(session.recent_overrun_rate(4), 0.0);
  EXPECT_DOUBLE_EQ(session.recent_overrun_rate(8), 0.5);
  EXPECT_DOUBLE_EQ(session.recent_overrun_rate(100), 0.5);
  EXPECT_THROW((void)session.recent_overrun_rate(0), std::invalid_argument);
}

TEST(DeviceSession, FeedsObservationsToGovernor) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  core::RuntimeGovernor governor;
  DeviceSession session(tx2, 1.0, nullptr, &governor);
  FrameCost tight;
  tight.detector_flops = kTinyFlops;
  tight.deadline_ms = 0.5;  // every frame overruns
  for (std::size_t i = 0; i < governor.config().window; ++i) {
    (void)governor.plan();
    (void)session.process(tight);
  }
  // The session forwarded every overrun verdict: the window saturates and
  // the governor escalates out of kNormal.
  EXPECT_DOUBLE_EQ(governor.window_overrun_rate(), 1.0);
  EXPECT_NE(governor.state(), core::GovernorState::kNormal);
  EXPECT_GE(governor.transitions(), 1u);
}

TEST(DeviceSession, FrameCostFollowsTheServedFrame) {
  const world::World world = world::make_benchmark_world(micro_world_config());
  Rng rng(7);
  const core::AnoleSystem system =
      core::OfflineProfiler(micro_profiler_config()).run(world, rng);
  ASSERT_GE(system.model_count(), 2u);
  const std::size_t last = system.model_count() - 1;
  detect::GridDetector& first_detector = *system.repository.model(0).detector;
  detect::GridDetector& last_detector = *system.repository.model(last).detector;
  const MemoryModel memory(first_detector.weight_bytes());
  const double first_mb = memory.load_mb(first_detector.weight_bytes());
  const double last_mb = memory.load_mb(last_detector.weight_bytes());

  // A cache hit pays the decision model and the served detector only.
  core::EngineResult hit;
  hit.cache_hit = true;
  const FrameCost hit_cost = frame_cost(system, hit, memory, 33.3);
  EXPECT_EQ(hit_cost.decision_flops, system.decision->flops_per_sample());
  EXPECT_EQ(hit_cost.detector_flops, first_detector.flops_per_frame());
  EXPECT_EQ(hit_cost.loaded_weight_mb, 0.0);
  EXPECT_EQ(hit_cost.retried_weight_mb, 0.0);
  EXPECT_EQ(hit_cost.deadline_ms, 33.3);
  EXPECT_FALSE(hit_cost.quantized);

  // A reused ranking skipped the decision model.
  core::EngineResult reused = hit;
  reused.ranking_reused = true;
  EXPECT_EQ(frame_cost(system, reused, memory, 0.0).decision_flops, 0u);

  // A load that succeeded on its third attempt: the served model's MB
  // once as the load and twice as retries.
  core::EngineResult retried;
  retried.served_model = last;
  retried.model_loaded = true;
  retried.health.load_attempts = 3;
  const FrameCost retried_cost = frame_cost(system, retried, memory, 0.0);
  EXPECT_EQ(retried_cost.detector_flops, last_detector.flops_per_frame());
  EXPECT_EQ(retried_cost.loaded_weight_mb, last_mb);
  EXPECT_EQ(retried_cost.retried_weight_mb, 2.0 * last_mb);

  // An abandoned load streamed three times and loaded nothing.
  core::EngineResult abandoned;
  abandoned.health.load_attempts = 3;
  abandoned.health.load_abandoned = true;
  const FrameCost abandoned_cost = frame_cost(system, abandoned, memory, 0.0);
  EXPECT_EQ(abandoned_cost.loaded_weight_mb, 0.0);
  EXPECT_EQ(abandoned_cost.retried_weight_mb, 3.0 * first_mb);

  // Only a load of int8 weights is tagged quantized; a corrupt payload
  // never ran the detector, so the engine leaves served_quantized unset.
  core::EngineResult quantized_load = retried;
  quantized_load.health.served_quantized = true;
  EXPECT_TRUE(frame_cost(system, quantized_load, memory, 0.0).quantized);
  core::EngineResult quantized_hit = hit;
  quantized_hit.health.served_quantized = true;
  EXPECT_FALSE(frame_cost(system, quantized_hit, memory, 0.0).quantized);
  core::EngineResult corrupt = retried;
  corrupt.health.payload_corrupt = true;
  EXPECT_FALSE(frame_cost(system, corrupt, memory, 0.0).quantized);

  // A shed frame ran nothing and is never billed.
  core::EngineResult shed;
  shed.health.frame_dropped = true;
  EXPECT_THROW((void)frame_cost(system, shed, memory, 0.0),
               ContractViolation);
}

/// Power-mode sweep: higher budgets give higher throughput (Fig. 11).
class PowerModeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PowerModeTest, ThroughputIncreasesWithBudget) {
  const auto tx2 = DeviceProfile::jetson_tx2_nx(kTinyFlops);
  const std::size_t index = GetParam();
  ASSERT_LT(index, tx2.power_modes.size());
  if (index == 0) return;
  EXPECT_GT(tx2.max_fps(kTinyFlops, tx2.power_modes[index]),
            tx2.max_fps(kTinyFlops, tx2.power_modes[index - 1]));
}

INSTANTIATE_TEST_SUITE_P(Modes, PowerModeTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace anole::device
