// Hostile-world scenario packs (world/scenario.hpp): spec parsing,
// deterministic composition, per-pack stream independence, and the
// physical effects each pack is supposed to have on the frames.
#include "world/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/check.hpp"
#include "world/world.hpp"

namespace anole::world {
namespace {

World small_world() {
  WorldConfig config;
  config.frames_per_clip = 10;
  config.clip_scale = 0.2;
  return make_benchmark_world(config);
}

bool frames_equal(const Frame& a, const Frame& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cell_count(); ++i) {
    auto ra = a.cells.row(i);
    auto rb = b.cells.row(i);
    for (std::size_t c = 0; c < kCellChannels; ++c) {
      if (ra[c] != rb[c]) return false;
    }
  }
  return a.brightness == b.brightness && a.contrast == b.contrast;
}

TEST(Scenario, PackNamesRoundTrip) {
  for (std::size_t i = 0; i < kScenarioPackCount; ++i) {
    const auto pack = static_cast<ScenarioPack>(i);
    const auto parsed = pack_from_name(to_string(pack));
    ASSERT_TRUE(parsed.has_value()) << to_string(pack);
    EXPECT_EQ(*parsed, pack);
  }
  EXPECT_FALSE(pack_from_name("locusts").has_value());
}

TEST(Scenario, SpecParsesSeedIntensityMagnitude) {
  const ScenarioConfig config =
      ScenarioConfig::parse("seed=7, drift=1.0, degrade=0.6x2, bursts=0.03x6");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_DOUBLE_EQ(config.intensity(ScenarioPack::kDrift), 1.0);
  EXPECT_DOUBLE_EQ(config.magnitude(ScenarioPack::kDrift), 1.0);
  EXPECT_DOUBLE_EQ(config.intensity(ScenarioPack::kDegrade), 0.6);
  EXPECT_DOUBLE_EQ(config.magnitude(ScenarioPack::kDegrade), 2.0);
  EXPECT_DOUBLE_EQ(config.intensity(ScenarioPack::kBursts), 0.03);
  EXPECT_DOUBLE_EQ(config.magnitude(ScenarioPack::kBursts), 6.0);
  EXPECT_DOUBLE_EQ(config.intensity(ScenarioPack::kDiurnal), 0.0);
  EXPECT_TRUE(config.armed());
  EXPECT_FALSE(ScenarioConfig::parse("").armed());
  EXPECT_EQ(ScenarioConfig::parse("").seed, ScenarioConfig::kDefaultSeed);
}

TEST(Scenario, SpecRejectsMalformedTokens) {
  EXPECT_THROW(ScenarioConfig::parse("locusts=0.5"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift=1.5"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift=nan"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift=0.5junk"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift=0.5x0"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("drift=0.5xinf"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("seed=-1"), ContractViolation);
  EXPECT_THROW(ScenarioConfig::parse("=0.5"), ContractViolation);
}

TEST(Scenario, SpecErrorNamesOffendingToken) {
  try {
    ScenarioConfig::parse("drift=0.5,locusts=1");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("locusts"), std::string::npos) << message;
    EXPECT_NE(message.find("scenario spec"), std::string::npos) << message;
  }
}

TEST(Scenario, CompositionIsBitwiseDeterministic) {
  const World world = small_world();
  const ScenarioConfig config =
      ScenarioConfig::parse("seed=11,drift=1.0,degrade=0.5,bursts=0.05");
  const ScenarioStream a = compose_scenario(world, config, 120);
  const ScenarioStream b = compose_scenario(world, config, 120);
  ASSERT_EQ(a.clip.size(), 120u);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  for (std::size_t i = 0; i < a.clip.size(); ++i) {
    EXPECT_TRUE(frames_equal(a.clip.frames[i], b.clip.frames[i])) << i;
  }
  // A different seed reschedules the whole stream.
  ScenarioConfig reseeded = config;
  reseeded.seed = 12;
  EXPECT_NE(compose_scenario(world, reseeded, 120).trace_hash(),
            a.trace_hash());
}

TEST(Scenario, ArmingOnePackDoesNotPerturbAnother) {
  // Per-pack Rng streams: adding bursts must not move a single drift
  // event (same frames, same scene choices), mirroring the fault
  // injector's per-site stream independence.
  const World world = small_world();
  const ScenarioStream drift_only = compose_scenario(
      world, ScenarioConfig::parse("seed=3,drift=1.0"), 180);
  const ScenarioStream both = compose_scenario(
      world, ScenarioConfig::parse("seed=3,drift=1.0,bursts=0.05"), 180);
  std::vector<ScenarioEvent> drift_a;
  std::vector<ScenarioEvent> drift_b;
  for (const auto& e : drift_only.events) {
    if (e.pack == ScenarioPack::kDrift) drift_a.push_back(e);
  }
  for (const auto& e : both.events) {
    if (e.pack == ScenarioPack::kDrift) drift_b.push_back(e);
  }
  ASSERT_EQ(drift_a.size(), drift_b.size());
  for (std::size_t i = 0; i < drift_a.size(); ++i) {
    EXPECT_EQ(drift_a[i].frame, drift_b[i].frame);
    EXPECT_EQ(drift_a[i].detail, drift_b[i].detail);
  }
}

TEST(Scenario, DegradePreservesScheduleAndDamagesFrames) {
  // The degrade pack only touches rendered features: the ground-truth
  // object schedule is frame-for-frame identical to the clean stream
  // (paired-stream evaluation), while the late cells diverge and wash out.
  const World world = small_world();
  ScenarioConfig clean;
  clean.seed = 21;
  ScenarioConfig degraded = clean;
  degraded.arm(ScenarioPack::kDegrade, 1.0, 2.0);
  const ScenarioStream a = compose_scenario(world, clean, 90);
  const ScenarioStream b = compose_scenario(world, degraded, 90);
  ASSERT_EQ(a.clip.size(), b.clip.size());
  for (std::size_t i = 0; i < a.clip.size(); ++i) {
    ASSERT_EQ(a.clip.frames[i].objects.size(),
              b.clip.frames[i].objects.size())
        << i;
    for (std::size_t o = 0; o < a.clip.frames[i].objects.size(); ++o) {
      EXPECT_DOUBLE_EQ(a.clip.frames[i].objects[o].cx,
                       b.clip.frames[i].objects[o].cx);
      EXPECT_DOUBLE_EQ(a.clip.frames[i].objects[o].cy,
                       b.clip.frames[i].objects[o].cy);
    }
  }
  // Frame 0 has ramp 0 (identical); the last frame must differ.
  EXPECT_TRUE(frames_equal(a.clip.frames.front(), b.clip.frames.front()));
  EXPECT_FALSE(frames_equal(a.clip.frames.back(), b.clip.frames.back()));
  // Stats stay consistent with the damaged cells.
  const Frame& last = b.clip.frames.back();
  double sum = 0.0;
  for (std::size_t i = 0; i < last.cell_count(); ++i) {
    auto cell = last.cells.row(i);
    for (std::size_t c = 0; c < kBlockChannels; ++c) sum += cell[c];
  }
  const double mean =
      sum / static_cast<double>(last.cell_count() * kBlockChannels);
  EXPECT_NEAR(last.brightness, mean, 1e-9);
}

TEST(Scenario, BurstsCrushBrightnessAndPairEntryExit) {
  const World world = small_world();
  ScenarioConfig clean;
  clean.seed = 5;
  ScenarioConfig bursty = clean;
  bursty.arm(ScenarioPack::kBursts, 0.08, 6.0);
  const ScenarioStream a = compose_scenario(world, clean, 240);
  const ScenarioStream b = compose_scenario(world, bursty, 240);
  std::size_t entries = 0;
  std::size_t exits = 0;
  for (const auto& event : b.events) {
    if (event.pack != ScenarioPack::kBursts) continue;
    if (event.detail == 1) {
      ++entries;
      // Entry frame: lighting crushed well below the clean rendition.
      const std::size_t f = event.frame;
      EXPECT_LT(b.clip.frames[f].brightness,
                a.clip.frames[f].brightness - 0.05)
          << f;
    } else {
      ++exits;
    }
  }
  ASSERT_GE(entries, 1u);
  EXPECT_GE(entries, exits);
  EXPECT_LE(entries - exits, 1u);  // at most one burst still open at EOF
}

TEST(Scenario, DriftShiftsMixTowardHostileScenes) {
  const World world = small_world();
  ScenarioConfig config;
  config.seed = 17;
  config.arm(ScenarioPack::kDrift, 1.0);
  const ScenarioStream stream = compose_scenario(world, config, 600);
  std::size_t early_hostile = 0;
  std::size_t early = 0;
  std::size_t late_hostile = 0;
  std::size_t late = 0;
  for (const auto& event : stream.events) {
    if (event.pack != ScenarioPack::kDrift) continue;
    const bool hostile = (event.detail >> 32) & 1;
    if (event.frame < 300) {
      ++early;
      early_hostile += hostile ? 1 : 0;
    } else {
      ++late;
      late_hostile += hostile ? 1 : 0;
    }
  }
  ASSERT_GE(early, 1u);
  ASSERT_GE(late, 1u);
  const double early_rate =
      static_cast<double>(early_hostile) / static_cast<double>(early);
  const double late_rate =
      static_cast<double>(late_hostile) / static_cast<double>(late);
  EXPECT_GT(late_rate, early_rate + 0.25);
}

TEST(Scenario, DiurnalSweepsTimeOfDay) {
  const World world = small_world();
  ScenarioConfig config;
  config.seed = 2;
  config.arm(ScenarioPack::kDiurnal, 1.0);
  const ScenarioStream stream = compose_scenario(world, config, 600);
  bool saw_day = false;
  bool saw_dawn_dusk = false;
  bool saw_night = false;
  for (const auto& event : stream.events) {
    if (event.pack != ScenarioPack::kDiurnal) continue;
    switch (static_cast<TimeOfDay>(event.detail & 0x3)) {
      case TimeOfDay::kDaytime: saw_day = true; break;
      case TimeOfDay::kDawnDusk: saw_dawn_dusk = true; break;
      case TimeOfDay::kNight: saw_night = true; break;
    }
  }
  EXPECT_TRUE(saw_day);
  EXPECT_TRUE(saw_dawn_dusk);
  EXPECT_TRUE(saw_night);
}

TEST(Scenario, RejectsDegenerateInputs) {
  const World world = small_world();
  ScenarioConfig config;
  EXPECT_THROW(compose_scenario(world, config, 0), ContractViolation);
  World empty;
  empty.config = world.config;
  EXPECT_THROW(compose_scenario(empty, config, 10), ContractViolation);
  EXPECT_THROW(config.arm(ScenarioPack::kDrift, 1.5), ContractViolation);
  EXPECT_THROW(config.arm(ScenarioPack::kDrift, 0.5, 0.0),
               ContractViolation);
}

TEST(Scenario, ProvenanceFieldsAreSequential) {
  const World world = small_world();
  ScenarioConfig config;
  config.arm(ScenarioPack::kDrift, 0.5);
  const ScenarioStream stream = compose_scenario(world, config, 70);
  EXPECT_EQ(stream.clip.clip_id, world.clips.size());
  EXPECT_FALSE(stream.clip.seen);
  for (std::size_t i = 0; i < stream.clip.size(); ++i) {
    EXPECT_EQ(stream.clip.frames[i].frame_index, i);
    EXPECT_EQ(stream.clip.frames[i].clip_id, stream.clip.clip_id);
  }
}

}  // namespace
}  // namespace anole::world
