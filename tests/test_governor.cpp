// RuntimeGovernor (core/governor.hpp): the overload state machine in
// isolation, and the closed loop it forms with AnoleEngine, ModelCache,
// and DeviceSession — including bitwise-identical decision traces across
// reruns and thread counts.
#include "core/governor.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/profiler.hpp"
#include "device/session.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace anole::core {
namespace {

/// Small, fast-moving controller for the unit tests.
GovernorConfig tiny_config() {
  GovernorConfig config;
  config.window = 8;
  config.throttle_enter_rate = 0.25;
  config.throttle_exit_rate = 0.05;
  config.shed_enter_rate = 0.75;
  config.shed_exit_rate = 0.10;
  config.min_dwell = 4;
  config.recovery_dwell = 16;
  config.ranking_refresh_period = 4;
  config.shed_period = 3;
  return config;
}

/// Drives `count` frames whose overrun flag comes from `overrun(i)`;
/// dropped frames are not observed (they never executed).
template <typename OverrunFn>
void drive(RuntimeGovernor& governor, std::size_t count, OverrunFn overrun) {
  for (std::size_t i = 0; i < count; ++i) {
    const GovernorDirective directive = governor.plan();
    if (directive.drop_frame) continue;
    governor.observe(10.0, overrun(i));
  }
}

TEST(Governor, StateNames) {
  EXPECT_STREQ(to_string(GovernorState::kNormal), "normal");
  EXPECT_STREQ(to_string(GovernorState::kThrottled), "throttled");
  EXPECT_STREQ(to_string(GovernorState::kShedding), "shedding");
}

TEST(Governor, ConfigValidation) {
  GovernorConfig config = tiny_config();
  config.window = 0;
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
  config = tiny_config();
  config.shed_period = 1;  // would drop every frame
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
  config = tiny_config();
  config.ranking_refresh_period = 0;
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
  config = tiny_config();
  config.throttle_exit_rate = config.throttle_enter_rate + 0.1;
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
  config = tiny_config();
  config.shed_exit_rate = config.shed_enter_rate + 0.1;
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
  config = tiny_config();
  config.shed_enter_rate = config.throttle_enter_rate / 2.0;
  EXPECT_THROW(RuntimeGovernor{config}, ContractViolation);
}

TEST(Governor, NormalUntilWindowFillsThenEscalates) {
  RuntimeGovernor governor(tiny_config());
  // 7 observations (window is 8): never transitions, whatever the rate.
  drive(governor, 7, [](std::size_t) { return true; });
  EXPECT_EQ(governor.state(), GovernorState::kNormal);
  EXPECT_EQ(governor.transitions(), 0u);
  // The 8th fills the window at rate 1.0 >= shed_enter: Normal may jump
  // straight to Shedding once min_dwell planned frames have elapsed.
  drive(governor, 1, [](std::size_t) { return true; });
  EXPECT_EQ(governor.state(), GovernorState::kShedding);
  EXPECT_EQ(governor.transitions(), 1u);
}

TEST(Governor, ModerateOverloadThrottlesNotSheds) {
  RuntimeGovernor governor(tiny_config());
  // Every other frame overruns: rate 0.5 in [0.25, 0.75).
  drive(governor, 8, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(governor.state(), GovernorState::kThrottled);
  // A throttled directive suppresses swaps and refreshes the ranking
  // only every ranking_refresh_period-th frame.
  std::size_t refreshes = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const GovernorDirective directive = governor.plan();
    EXPECT_EQ(directive.state, GovernorState::kThrottled);
    EXPECT_FALSE(directive.drop_frame);
    EXPECT_FALSE(directive.allow_swap);
    if (directive.refresh_ranking) ++refreshes;
    governor.observe(10.0, i % 2 == 0);  // keep the rate at 0.5
  }
  EXPECT_EQ(refreshes, 2u);  // every 4th of 8 frames
}

TEST(Governor, SheddingDropsEveryKthFrameAndRecordsIt) {
  GovernorConfig config = tiny_config();
  RuntimeGovernor governor(config);
  drive(governor, 8, [](std::size_t) { return true; });
  ASSERT_EQ(governor.state(), GovernorState::kShedding);
  const std::uint64_t planned_before = governor.frames_planned();
  std::size_t drops = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    const GovernorDirective directive = governor.plan();
    EXPECT_FALSE(directive.allow_swap);
    if (directive.drop_frame) {
      ++drops;
      continue;  // dropped frames never execute, so never observe
    }
    governor.observe(50.0, true);
  }
  EXPECT_EQ(drops, 30u / config.shed_period);
  EXPECT_EQ(governor.dropped_frames(), drops);
  EXPECT_EQ(governor.frames_planned(), planned_before + 30);
  // Every drop is in the trace, flagged as a drop, not a transition.
  std::size_t trace_drops = 0;
  for (const GovernorEvent& event : governor.trace()) {
    if (event.dropped) {
      ++trace_drops;
      EXPECT_EQ(event.from, GovernorState::kShedding);
      EXPECT_EQ(event.to, GovernorState::kShedding);
    }
  }
  EXPECT_EQ(trace_drops, drops);
}

TEST(Governor, RecoveryIsSlowerThanEscalation) {
  GovernorConfig config = tiny_config();
  RuntimeGovernor governor(config);
  drive(governor, 8, [](std::size_t) { return true; });
  ASSERT_EQ(governor.state(), GovernorState::kShedding);

  // All-clear traffic: the window drains within 8 observed frames, but
  // de-escalation waits for recovery_dwell planned frames per step.
  std::size_t frames_to_throttled = 0;
  while (governor.state() == GovernorState::kShedding) {
    drive(governor, 1, [](std::size_t) { return false; });
    ++frames_to_throttled;
    ASSERT_LE(frames_to_throttled, 1000u);
  }
  EXPECT_EQ(governor.state(), GovernorState::kThrottled);
  EXPECT_GE(frames_to_throttled, config.recovery_dwell - config.window);

  std::size_t frames_to_normal = 0;
  while (governor.state() == GovernorState::kThrottled) {
    drive(governor, 1, [](std::size_t) { return false; });
    ++frames_to_normal;
    ASSERT_LE(frames_to_normal, 1000u);
  }
  EXPECT_EQ(governor.state(), GovernorState::kNormal);
  EXPECT_GE(frames_to_normal, config.recovery_dwell);
  // Back to normal: swaps allowed, nothing dropped.
  const GovernorDirective directive = governor.plan();
  EXPECT_TRUE(directive.allow_swap);
  EXPECT_TRUE(directive.refresh_ranking);
  EXPECT_FALSE(directive.drop_frame);
}

TEST(Governor, TraceIsDeterministicAndResetReplays) {
  const auto scenario = [](RuntimeGovernor& governor) {
    drive(governor, 400, [](std::size_t i) {
      // Burst pattern: heavy overruns in [50, 150) and [250, 300).
      return (i >= 50 && i < 150) || (i >= 250 && i < 300);
    });
  };
  RuntimeGovernor a(tiny_config());
  RuntimeGovernor b(tiny_config());
  scenario(a);
  scenario(b);
  EXPECT_GT(a.transitions(), 0u);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_EQ(a.dropped_frames(), b.dropped_frames());

  const std::uint64_t hash = a.trace_hash();
  a.reset();
  EXPECT_EQ(a.state(), GovernorState::kNormal);
  EXPECT_EQ(a.frames_planned(), 0u);
  EXPECT_EQ(a.trace().size(), 0u);
  scenario(a);
  EXPECT_EQ(a.trace_hash(), hash);
}

}  // namespace
}  // namespace anole::core

namespace anole::core {
namespace {

using device::DeviceProfile;
using device::DeviceSession;
using core::GovernorConfig;
using core::GovernorState;
using device::MemoryModel;
using core::RuntimeGovernor;

/// Engine-level governor tests share one trained system. Slightly larger
/// than the fault-ladder fixture (8 models, richer decision training):
/// the decision model must actually switch top-1 across scenes, or no
/// swap pressure ever builds for the governor to relieve.
class GovernorEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    world::WorldConfig world_config;
    world_config.frames_per_clip = 50;
    world_config.clip_scale = 0.2;
    world_config.seed = 77;
    world_ = std::make_unique<world::World>(
        world::make_benchmark_world(world_config));
    ProfilerConfig config;
    config.encoder.train.epochs = 15;
    config.repository.target_models = 8;
    config.repository.detector_train.epochs = 6;
    config.repository.min_training_frames = 20;
    config.repository.min_validation_frames = 4;
    config.sampling.budget = 400;
    config.decision.train.epochs = 25;
    Rng rng(3);
    OfflineProfiler profiler(config);
    system_ = std::make_unique<AnoleSystem>(profiler.run(*world_, rng));
  }

  static void TearDownTestSuite() {
    system_.reset();
    world_.reset();
  }

  static std::vector<const world::Frame*> frame_stream(std::size_t count) {
    const auto base = world_->frames_with_role(world::SplitRole::kTest);
    std::vector<const world::Frame*> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      frames.push_back(base[i % base.size()]);
    }
    return frames;
  }

  /// Fast-changing spliced stream (5-frame scene segments): the overload
  /// scenario, forcing frequent top-1 changes and thus model loads.
  /// Deterministic from the fixed seed. The clip outlives the pointers
  /// (owned by the fixture).
  static std::vector<const world::Frame*> spliced_stream(
      std::size_t segments) {
    Rng rng(91);
    spliced_ = std::make_unique<world::Clip>(
        world::synthesize_fast_changing_clip(*world_, segments, 5, rng));
    std::vector<const world::Frame*> frames;
    frames.reserve(spliced_->frames.size());
    for (const auto& frame : spliced_->frames) frames.push_back(&frame);
    return frames;
  }

  static std::unique_ptr<world::World> world_;
  static std::unique_ptr<AnoleSystem> system_;
  static std::unique_ptr<world::Clip> spliced_;
};

std::unique_ptr<world::World> GovernorEngineTest::world_;
std::unique_ptr<AnoleSystem> GovernorEngineTest::system_;
std::unique_ptr<world::Clip> GovernorEngineTest::spliced_;

constexpr double kDeadlineMs = 33.3;  // 30 FPS budget

struct LoopOutcome {
  std::vector<std::size_t> served;
  std::size_t overruns = 0;
  std::size_t dropped = 0;
  std::size_t swap_suppressed = 0;
  std::size_t reused_rankings = 0;
  std::uint64_t governor_transitions = 0;
  std::uint64_t governor_hash = 0;
  std::size_t executed_frames = 0;
};

/// One closed-loop pass: engine -> FrameCost -> simulated device ->
/// governor feedback. Dropped frames never reach the device (they were
/// shed before execution).
LoopOutcome run_loop(AnoleSystem& system,
                     const std::vector<const world::Frame*>& frames,
                     EngineConfig config, const GovernorConfig* governed) {
  std::unique_ptr<RuntimeGovernor> governor;
  if (governed != nullptr) {
    governor = std::make_unique<RuntimeGovernor>(*governed);
    config.governor = governor.get();
  }
  AnoleEngine engine(system, config);
  const auto profile = DeviceProfile::jetson_tx2_nx(
      system.repository.detector(0).flops_per_frame());
  const MemoryModel memory(system.repository.detector(0).weight_bytes());
  DeviceSession session(profile, 1.0, config.faults.get(), governor.get());

  LoopOutcome outcome;
  for (const world::Frame* frame : frames) {
    const EngineResult result = engine.process(*frame);
    outcome.served.push_back(result.served_model);
    if (result.health.frame_dropped) continue;
    (void)session.process(
        device::frame_cost(system, result, memory, kDeadlineMs));
  }
  outcome.overruns = session.deadline_overruns();
  outcome.dropped = engine.dropped_frames();
  outcome.swap_suppressed = engine.swap_suppressed_frames();
  outcome.reused_rankings = engine.reused_ranking_frames();
  outcome.executed_frames = session.frames();
  if (governor != nullptr) {
    outcome.governor_transitions = governor->transitions();
    outcome.governor_hash = governor->trace_hash();
  }
  return outcome;
}

EngineConfig small_cache_config() {
  EngineConfig config;
  config.cache.capacity = 2;  // 2 of 6 models resident: misses are common
  return config;
}

TEST_F(GovernorEngineTest, GovernorReducesOverrunsUnderMissPressure) {
  const auto frames = spliced_stream(240);  // 1200 fast-changing frames
  const LoopOutcome ungoverned =
      run_loop(*system_, frames, small_cache_config(), nullptr);
  const GovernorConfig governed_config;  // defaults
  const LoopOutcome governed =
      run_loop(*system_, frames, small_cache_config(), &governed_config);

  // Every model load streams ~560 ms of weights against a 33 ms deadline,
  // so a tight cache overruns on every swap; the governor suppresses
  // swaps once its window trips.
  EXPECT_GT(ungoverned.overruns, 0u);
  EXPECT_LT(governed.overruns, ungoverned.overruns);
  EXPECT_GT(governed.governor_transitions, 0u);
  EXPECT_GT(governed.swap_suppressed, 0u);
  EXPECT_GT(governed.reused_rankings, 0u);
  // Shedding is a last resort; the drop rate stays small.
  EXPECT_LE(governed.dropped, frames.size() / 20);  // <= 5%
  EXPECT_EQ(governed.executed_frames + governed.dropped, frames.size());
}

TEST_F(GovernorEngineTest, GovernorTraceIsThreadCountAndRerunInvariant) {
  const auto frames = spliced_stream(160);  // 800 fast-changing frames
  const GovernorConfig governed_config;
  const std::size_t saved_threads = par::thread_count();

  // The closed loop is inherently sequential (each frame's decision
  // depends on the previous frame's latency), so serial process() drives
  // both runs; the thread count only changes matmul internals, which are
  // bitwise thread-count-invariant.
  par::set_thread_count(1);
  const LoopOutcome serial =
      run_loop(*system_, frames, small_cache_config(), &governed_config);
  par::set_thread_count(4);
  const LoopOutcome threaded =
      run_loop(*system_, frames, small_cache_config(), &governed_config);
  // Rerun at the same thread count: bitwise replay.
  const LoopOutcome rerun =
      run_loop(*system_, frames, small_cache_config(), &governed_config);
  par::set_thread_count(saved_threads);

  EXPECT_GT(serial.governor_transitions, 0u);
  EXPECT_EQ(serial.governor_hash, threaded.governor_hash);
  EXPECT_EQ(serial.governor_hash, rerun.governor_hash);
  EXPECT_EQ(serial.dropped, threaded.dropped);
  EXPECT_EQ(serial.served, threaded.served);
  EXPECT_EQ(serial.served, rerun.served);
  EXPECT_EQ(serial.overruns, threaded.overruns);
}

TEST_F(GovernorEngineTest, GovernorSoakBoundedDropsUnderFaults) {
  // Soak for check.sh stage 7: a long governed session under injected
  // I/O spikes and memory pressure must serve or explicitly shed every
  // frame with zero contract violations and a bounded drop rate.
  // ANOLE_SOAK_FRAMES scales the stream (check.sh uses 10000).
  std::size_t frame_count = 2000;
  if (const char* soak = std::getenv("ANOLE_SOAK_FRAMES")) {
    frame_count = static_cast<std::size_t>(std::strtoull(soak, nullptr, 10));
    ASSERT_GE(frame_count, 1u) << "bad ANOLE_SOAK_FRAMES";
  }
  EngineConfig config = small_cache_config();
  config.faults = std::make_shared<fault::FaultInjector>(std::string(
      "seed=2033,load_latency_spike=0.01x8,memory_pressure=0.003x2"));
  // A real byte budget so memory-pressure faults have something to
  // shrink: room for ~3 full models.
  config.cache.capacity = 3;
  std::uint64_t max_bytes = 0;
  for (std::size_t m = 0; m < system_->repository.size(); ++m) {
    max_bytes =
        std::max(max_bytes, system_->repository.detector(m).weight_bytes());
  }
  config.cache.memory_budget_bytes = 3 * max_bytes;

  const auto frames = frame_stream(frame_count);
  const GovernorConfig governed_config;
  const LoopOutcome outcome =
      run_loop(*system_, frames, config, &governed_config);

  EXPECT_EQ(outcome.served.size(), frame_count);
  EXPECT_EQ(outcome.executed_frames + outcome.dropped, frame_count);
  for (const std::size_t model : outcome.served) {
    ASSERT_LT(model, system_->repository.size());
  }
  // Bounded shedding: at most 5% of the stream.
  EXPECT_LE(outcome.dropped, frame_count / 20);
}

TEST_F(GovernorEngineTest, MemoryPressureUnderGovernorStaysReplayable) {
  // Governor x fault interaction: memory_pressure armed while the
  // governor escalates into throttled/shedding. Both trace hashes must
  // replay bitwise across reruns, and a shed frame must never be
  // double-charged — it reaches neither the cache (no load attempts) nor
  // the detector nor the device session.
  const auto frames = spliced_stream(200);  // 1000 fast-changing frames

  struct Replay {
    std::vector<std::size_t> served;
    std::size_t dropped = 0;
    std::size_t executed = 0;
    bool saw_throttled = false;
    bool saw_shedding = false;
    std::uint64_t governor_hash = 0;
    std::uint64_t fault_hash = 0;
  };
  const auto run_once = [&]() {
    EngineConfig config = small_cache_config();
    config.faults = std::make_shared<fault::FaultInjector>(
        std::string("seed=2033,memory_pressure=0.02x2"));
    std::uint64_t max_bytes = 0;
    for (std::size_t m = 0; m < system_->repository.size(); ++m) {
      max_bytes = std::max(
          max_bytes, system_->repository.detector(m).weight_bytes());
    }
    config.cache.memory_budget_bytes = 2 * max_bytes;
    RuntimeGovernor governor{GovernorConfig{}};
    config.governor = &governor;
    AnoleEngine engine(*system_, config);
    const auto profile = DeviceProfile::jetson_tx2_nx(
        system_->repository.detector(0).flops_per_frame());
    const MemoryModel memory(system_->repository.detector(0).weight_bytes());
    DeviceSession session(profile, 1.0, config.faults.get(), &governor);

    Replay replay;
    for (const world::Frame* frame : frames) {
      const EngineResult result = engine.process(*frame);
      replay.served.push_back(result.served_model);
      replay.saw_throttled |= governor.state() == GovernorState::kThrottled;
      replay.saw_shedding |= governor.state() == GovernorState::kShedding;
      if (result.health.frame_dropped) {
        // A shed frame was decided before any chargeable work: no cache
        // load attempts, no detector output, no device execution.
        EXPECT_EQ(result.health.load_attempts, 0u);
        EXPECT_FALSE(result.model_loaded);
        EXPECT_TRUE(result.detections.empty());
        ++replay.dropped;
        continue;
      }
      (void)session.process(
          device::frame_cost(*system_, result, memory, kDeadlineMs));
    }
    replay.executed = session.frames();
    replay.governor_hash = governor.trace_hash();
    replay.fault_hash = config.faults->trace_hash();
    EXPECT_EQ(engine.dropped_frames(), replay.dropped);
    EXPECT_EQ(replay.executed + replay.dropped, frames.size());
    return replay;
  };

  const Replay first = run_once();
  const Replay second = run_once();
  // The fixture must actually exercise the interaction, not idle in
  // kNormal with the fault stream silent.
  EXPECT_TRUE(first.saw_throttled);
  EXPECT_NE(first.fault_hash, fault::FaultInjector("seed=2033").trace_hash());
  EXPECT_EQ(first.served, second.served);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.governor_hash, second.governor_hash);
  EXPECT_EQ(first.fault_hash, second.fault_hash);
}

}  // namespace
}  // namespace anole::core
