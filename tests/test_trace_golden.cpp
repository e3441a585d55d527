// Golden trace hashes: one small fixed run each of the fault injector,
// runtime governor, drift detector and scenario composer, pinned at both
// SIMD dispatch levels. The fault and governor hashes mix the active
// level into their seed, so these values pin both the FNV-1a fold and the
// numeric value of each `simd::Level`; replay logs recorded earlier stay
// comparable only while they hold.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/drift.hpp"
#include "core/governor.hpp"
#include "simd_levels.hpp"
#include "util/fault.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace anole {
namespace {

std::uint64_t fault_hash() {
  fault::FaultInjector injector(
      "seed=1234,model_load=0.5,frame_payload=0.25");
  for (std::uint64_t i = 0; i < 200; ++i) {
    (void)injector.should_fail(fault::Site::kModelLoad, i);
    (void)injector.should_fail(fault::Site::kFramePayload, i);
  }
  return injector.trace_hash();
}

std::uint64_t governor_hash() {
  core::GovernorConfig config;
  config.window = 8;
  config.throttle_enter_rate = 0.25;
  config.throttle_exit_rate = 0.05;
  config.shed_enter_rate = 0.75;
  config.shed_exit_rate = 0.10;
  config.min_dwell = 4;
  config.recovery_dwell = 16;
  config.ranking_refresh_period = 4;
  config.shed_period = 3;
  core::RuntimeGovernor governor(config);
  for (std::size_t i = 0; i < 400; ++i) {
    if (governor.plan().drop_frame) continue;
    // Heavy overrun bursts in [50, 150) and [250, 300).
    governor.observe(10.0, (i >= 50 && i < 150) || (i >= 250 && i < 300));
  }
  return governor.trace_hash();
}

std::uint64_t drift_hash() {
  core::DriftConfig config;
  config.window = 16;
  config.baseline_window = 16;
  config.cusum_slack = 0.05;
  config.cusum_threshold = 0.5;
  config.min_separation = 8;
  core::DriftDetector detector(config);
  for (int i = 0; i < 16; ++i) detector.observe_confidence(0.8);
  for (int i = 0; i < 80; ++i) detector.observe_confidence(0.3);
  return detector.trace_hash();
}

std::uint64_t scenario_hash() {
  world::WorldConfig config;
  config.frames_per_clip = 10;
  config.clip_scale = 0.2;
  const world::World world = world::make_benchmark_world(config);
  return world::compose_scenario(
             world,
             world::ScenarioConfig::parse(
                 "seed=11,drift=1.0,degrade=0.5,bursts=0.05"),
             120)
      .trace_hash();
}

void require_avx2() {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
}

TEST(TraceHashGolden, LevelEncodingIsStable) {
  EXPECT_EQ(static_cast<int>(simd::Level::kScalar), 0);
  EXPECT_EQ(static_cast<int>(simd::Level::kAVX2), 2);
}

TEST(TraceHashGolden, FaultAtScalar) {
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(fault_hash(), 0x45A188B2B60AE087ULL);
}

TEST(TraceHashGolden, GovernorAtScalar) {
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(governor_hash(), 0x17EAFB5BA07FD916ULL);
}

TEST(TraceHashGolden, DriftAtScalar) {
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(drift_hash(), 0x81F8B3F38F076927ULL);
}

TEST(TraceHashGolden, ScenarioAtScalar) {
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(scenario_hash(), 0x71B62BDDC450FB33ULL);
}

TEST(TraceHashGolden, FaultAtAvx2) {
  require_avx2();
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_EQ(fault_hash(), 0x9EDA97997A7BA005ULL);
}

TEST(TraceHashGolden, GovernorAtAvx2) {
  require_avx2();
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_EQ(governor_hash(), 0x6B52C156ACB04538ULL);
}

TEST(TraceHashGolden, DriftAtAvx2) {
  require_avx2();
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_EQ(drift_hash(), 0x81F8B3F38F076927ULL);
}

TEST(TraceHashGolden, ScenarioAtAvx2) {
  require_avx2();
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_EQ(scenario_hash(), 0x71B62BDDC450FB33ULL);
}

}  // namespace
}  // namespace anole
