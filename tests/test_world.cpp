#include "world/world.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "world/featurizer.hpp"

namespace anole::world {
namespace {

TEST(Attributes, SemanticIndexBijective) {
  std::set<std::size_t> seen;
  for (const auto& attrs : all_scene_attributes()) {
    const std::size_t index = attrs.semantic_index();
    EXPECT_LT(index, kSemanticSceneCount);
    EXPECT_TRUE(seen.insert(index).second);
    EXPECT_EQ(SceneAttributes::from_semantic_index(index), attrs);
  }
  EXPECT_EQ(seen.size(), kSemanticSceneCount);
}

TEST(Attributes, FromIndexRejectsOutOfRange) {
  EXPECT_THROW(SceneAttributes::from_semantic_index(kSemanticSceneCount),
               std::out_of_range);
}

TEST(Attributes, Labels) {
  const SceneAttributes attrs{Weather::kRainy, Location::kUrban,
                              TimeOfDay::kNight};
  EXPECT_EQ(attrs.label(), "rainy/urban/night");
  EXPECT_EQ(attrs.short_label(), "Ur., Ni.");
}

/// Style must be deterministic and in-range for every semantic scene.
class SceneStyleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SceneStyleTest, DeterministicAndBounded) {
  const auto attrs = SceneAttributes::from_semantic_index(GetParam());
  const SceneStyle a = SceneStyle::from_attributes(attrs, 7, 0.5);
  const SceneStyle b = SceneStyle::from_attributes(attrs, 7, 0.5);
  EXPECT_EQ(a.brightness, b.brightness);
  EXPECT_EQ(a.appearance_angle, b.appearance_angle);
  EXPECT_GE(a.brightness, 0.05);
  EXPECT_LE(a.brightness, 1.0);
  EXPECT_GE(a.contrast, 0.05);
  EXPECT_GE(a.noise, 0.01);
  EXPECT_GE(a.object_density, 0.5);
  EXPECT_GT(a.object_visibility(0.01), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, SceneStyleTest,
                         ::testing::Range<std::size_t>(0,
                                                       kSemanticSceneCount));

TEST(SceneStyle, NightDarkerThanDay) {
  const SceneAttributes day{Weather::kClear, Location::kUrban,
                            TimeOfDay::kDaytime};
  const SceneAttributes night{Weather::kClear, Location::kUrban,
                              TimeOfDay::kNight};
  EXPECT_GT(SceneStyle::from_attributes(day).brightness,
            SceneStyle::from_attributes(night).brightness);
}

TEST(SceneStyle, JitterSeedChangesRendition) {
  const SceneAttributes attrs{Weather::kClear, Location::kUrban,
                              TimeOfDay::kDaytime};
  const SceneStyle a = SceneStyle::from_attributes(attrs, 1, 0.5);
  const SceneStyle b = SceneStyle::from_attributes(attrs, 2, 0.5);
  EXPECT_NE(a.brightness, b.brightness);
}

TEST(SceneStyle, FogReducesVisibility) {
  const SceneAttributes clear{Weather::kClear, Location::kHighway,
                              TimeOfDay::kDaytime};
  const SceneAttributes foggy{Weather::kFoggy, Location::kHighway,
                              TimeOfDay::kDaytime};
  EXPECT_GT(SceneStyle::from_attributes(clear).object_visibility(0.01),
            SceneStyle::from_attributes(foggy).object_visibility(0.01));
}

TEST(FrameGenerator, RendersExpectedShape) {
  Rng rng(3);
  FrameGenerator generator(10);
  const SceneAttributes attrs{Weather::kClear, Location::kUrban,
                              TimeOfDay::kDaytime};
  const auto style = SceneStyle::from_attributes(attrs);
  std::vector<ObjectInstance> objects = {generator.sample_object(style, rng)};
  const Frame frame = generator.render(style, attrs, objects, rng);
  EXPECT_EQ(frame.grid_size, 10u);
  EXPECT_EQ(frame.cells.rows(), 100u);
  EXPECT_EQ(frame.cells.cols(), kCellChannels);
  EXPECT_EQ(frame.objects.size(), 1u);
  EXPECT_GT(frame.brightness, 0.0);
  EXPECT_GT(frame.contrast, 0.0);
}

TEST(FrameGenerator, ObjectImprintsObjectBlock) {
  Rng rng(4);
  FrameGenerator generator(12);
  const SceneAttributes attrs{Weather::kClear, Location::kUrban,
                              TimeOfDay::kDaytime};
  auto style = SceneStyle::from_attributes(attrs);
  style.noise = 0.01;
  style.clutter = 0.0;
  ObjectInstance obj;
  obj.cx = 0.5;
  obj.cy = 0.5;
  obj.w = 0.15;
  obj.h = 0.15;
  obj.visibility = 1.5;
  const Frame with = generator.render(style, attrs, {obj}, rng);
  Rng rng2(4);
  const Frame without = generator.render(style, attrs, {}, rng2);
  // Object-block energy at the object's center cell must be much larger
  // with the object present.
  const std::size_t center = 6 * 12 + 6;
  double energy_with = 0.0;
  double energy_without = 0.0;
  for (std::size_t c = 2 * kBlockChannels; c < kCellChannels; ++c) {
    energy_with += std::abs(with.cells.at(center, c));
    energy_without += std::abs(without.cells.at(center, c));
  }
  EXPECT_GT(energy_with, energy_without + 0.5);
}

TEST(FrameGenerator, BrightnessTracksStyle) {
  Rng rng(5);
  FrameGenerator generator;
  const SceneAttributes day{Weather::kClear, Location::kUrban,
                            TimeOfDay::kDaytime};
  const SceneAttributes night{Weather::kClear, Location::kUrban,
                              TimeOfDay::kNight};
  const Frame day_frame = generator.render(SceneStyle::from_attributes(day),
                                           day, {}, rng);
  const Frame night_frame = generator.render(
      SceneStyle::from_attributes(night), night, {}, rng);
  EXPECT_GT(day_frame.brightness, night_frame.brightness);
}

/// skip_paint() advances an Rng exactly as painting does, from a fresh
/// stream and from one holding a cached normal half, with and without
/// clutter draws.
TEST(FrameGenerator, SkipPaintLeavesTheRngWhereRenderDoes) {
  FrameGenerator generator(12);
  const SceneAttributes clear{Weather::kClear, Location::kUrban,
                              TimeOfDay::kDaytime};
  const SceneAttributes snowy{Weather::kSnowy, Location::kHighway,
                              TimeOfDay::kNight};
  for (const SceneAttributes& attrs : {clear, snowy}) {
    SceneStyle style = SceneStyle::from_attributes(attrs);
    for (double clutter : {0.0, style.clutter, 0.9}) {
      style.clutter = clutter;
      for (bool cached_half : {false, true}) {
        SCOPED_TRACE("clutter " + std::to_string(clutter) + " cached " +
                     std::to_string(cached_half));
        Rng rendered(31);
        Rng skipped(31);
        if (cached_half) {
          (void)rendered.normal();
          (void)skipped.normal();
        }
        (void)generator.render(style, attrs, {}, rendered);
        generator.skip_paint(style, skipped);
        EXPECT_EQ(rendered.normal(), skipped.normal());
        EXPECT_EQ(rendered.uniform(), skipped.uniform());
        EXPECT_EQ(rendered.normal(), skipped.normal());
        EXPECT_EQ(rendered(), skipped());
      }
    }
  }
}

TEST(FrameGenerator, PaintingABlankFrameFromACopiedRngEqualsRender) {
  FrameGenerator generator(12);
  const SceneAttributes attrs{Weather::kRainy, Location::kUrban,
                              TimeOfDay::kNight};
  const SceneStyle style = SceneStyle::from_attributes(attrs);
  Rng rng(8);
  std::vector<ObjectInstance> objects = {generator.sample_object(style, rng),
                                         generator.sample_object(style, rng)};
  Rng copy = rng;
  const Frame rendered = generator.render(style, attrs, objects, rng);
  Frame painted = generator.blank_frame(attrs, objects);
  generator.paint(painted, style, copy);
  Clip a;
  a.frames.push_back(rendered);
  Clip b;
  b.frames.push_back(std::move(painted));
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(rng(), copy());
}

TEST(FrameGenerator, PaintRejectsAFrameOfAnotherGrid) {
  Frame frame = FrameGenerator(10).blank_frame({}, {});
  Rng rng(1);
  EXPECT_THROW(FrameGenerator(12).paint(frame, SceneStyle{}, rng),
               std::invalid_argument);
}

TEST(ObjectDynamics, KeepsCentersInFrame) {
  Rng rng(6);
  FrameGenerator generator;
  const auto style = SceneStyle::from_attributes(
      {Weather::kClear, Location::kUrban, TimeOfDay::kDaytime});
  ObjectDynamics dynamics(generator, style, rng);
  for (int step = 0; step < 100; ++step) {
    for (const auto& obj : dynamics.step(rng)) {
      EXPECT_GE(obj.cx, 0.0);
      EXPECT_LE(obj.cx, 1.0);
      EXPECT_GE(obj.cy, 0.0);
      EXPECT_LE(obj.cy, 1.0);
      EXPECT_LE(obj.w, 0.26 + 1e-9);
      EXPECT_LE(obj.h, 0.26 + 1e-9);
    }
  }
}

TEST(Clip, SplitRolesAre622Contiguous) {
  Clip clip;
  clip.frames.resize(100);
  clip.seen = true;
  std::size_t train = 0;
  std::size_t val = 0;
  std::size_t test = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    switch (clip.split_role(i)) {
      case SplitRole::kTrain:
        ++train;
        EXPECT_LT(i, 60u);
        break;
      case SplitRole::kValidation:
        ++val;
        break;
      case SplitRole::kTest:
        ++test;
        EXPECT_GE(i, 80u);
        break;
      case SplitRole::kUnseen:
        FAIL();
    }
  }
  EXPECT_EQ(train, 60u);
  EXPECT_EQ(val, 20u);
  EXPECT_EQ(test, 20u);
}

TEST(Clip, UnseenClipsAreAllUnseen) {
  Clip clip;
  clip.frames.resize(10);
  clip.seen = false;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(clip.split_role(i), SplitRole::kUnseen);
  }
}

TEST(ClipGenerator, ProducesTemporallyCoherentFrames) {
  Rng rng(7);
  ClipGenerator generator;
  ClipSpec spec;
  spec.attributes = {Weather::kClear, Location::kHighway,
                     TimeOfDay::kDaytime};
  spec.length = 30;
  spec.clip_id = 3;
  spec.dataset_id = 1;
  const Clip clip = generator.generate(spec, rng);
  ASSERT_EQ(clip.size(), 30u);
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    EXPECT_EQ(clip.frames[i].frame_index, i);
    EXPECT_EQ(clip.frames[i].clip_id, 3u);
    EXPECT_EQ(clip.frames[i].dataset_id, 1u);
    EXPECT_EQ(clip.frames[i].attributes, spec.attributes);
  }
  // Brightness flicker is small between adjacent frames.
  for (std::size_t i = 1; i < clip.frames.size(); ++i) {
    EXPECT_LT(std::abs(clip.frames[i].brightness -
                       clip.frames[i - 1].brightness),
              0.15);
  }
}

TEST(World, BenchmarkWorldMatchesPaperMix) {
  WorldConfig config;
  config.frames_per_clip = 10;
  const World w = make_benchmark_world(config);
  // 9+1 KITTI-like, 40+4 BDD-like, 9+1 SHD-like = 64 clips.
  EXPECT_EQ(w.clips.size(), 64u);
  EXPECT_EQ(w.dataset_names.size(), 3u);
  EXPECT_EQ(w.unseen_clips().size(), 6u);
  EXPECT_EQ(w.clips_of_dataset(0).size(), 10u);
  EXPECT_EQ(w.clips_of_dataset(1).size(), 44u);
  EXPECT_EQ(w.clips_of_dataset(2).size(), 10u);
  EXPECT_EQ(w.total_frames(), 640u);
}

TEST(World, ClipScaleShrinksWorld) {
  WorldConfig config;
  config.frames_per_clip = 5;
  config.clip_scale = 0.3;
  const World w = make_benchmark_world(config);
  EXPECT_LT(w.clips.size(), 30u);
  EXPECT_EQ(w.unseen_clips().size(), 6u);  // pinned unseen clips stay
}

TEST(World, RolesPartitionFrames) {
  WorldConfig config;
  config.frames_per_clip = 20;
  config.clip_scale = 0.2;
  const World w = make_benchmark_world(config);
  const std::size_t total =
      w.frames_with_role(SplitRole::kTrain).size() +
      w.frames_with_role(SplitRole::kValidation).size() +
      w.frames_with_role(SplitRole::kTest).size() +
      w.frames_with_role(SplitRole::kUnseen).size();
  EXPECT_EQ(total, w.total_frames());
}

TEST(World, DeterministicForSeed) {
  WorldConfig config;
  config.frames_per_clip = 8;
  config.clip_scale = 0.2;
  const World a = make_benchmark_world(config);
  const World b = make_benchmark_world(config);
  ASSERT_EQ(a.total_frames(), b.total_frames());
  EXPECT_TRUE(allclose(a.clips[0].frames[0].cells,
                       b.clips[0].frames[0].cells, 0.0f));
}

TEST(World, UnseenClipAttributesMatchTableIII) {
  WorldConfig config;
  config.frames_per_clip = 5;
  const World w = make_benchmark_world(config);
  const auto unseen = w.unseen_clips();
  ASSERT_EQ(unseen.size(), 6u);
  EXPECT_EQ(unseen[0]->attributes.location, Location::kResidential);
  EXPECT_EQ(unseen[0]->attributes.time, TimeOfDay::kDaytime);
  EXPECT_EQ(unseen[5]->attributes.location, Location::kTunnel);
  EXPECT_EQ(unseen[5]->attributes.time, TimeOfDay::kNight);
}

TEST(World, SynthesizedFastChangingClip) {
  WorldConfig config;
  config.frames_per_clip = 10;
  config.clip_scale = 0.2;
  const World w = make_benchmark_world(config);
  Rng rng(9);
  const Clip spliced = synthesize_fast_changing_clip(w, 5, 20, rng);
  EXPECT_EQ(spliced.size(), 100u);
  EXPECT_FALSE(spliced.seen);
  for (std::size_t i = 0; i < spliced.frames.size(); ++i) {
    EXPECT_EQ(spliced.frames[i].frame_index, i);
  }
}

TEST(Featurizer, DimensionsAndDeterminism) {
  Rng rng(11);
  FrameGenerator generator;
  const SceneAttributes attrs{Weather::kClear, Location::kUrban,
                              TimeOfDay::kDaytime};
  const auto style = SceneStyle::from_attributes(attrs);
  const Frame frame = generator.render(style, attrs, {}, rng);
  const FrameFeaturizer featurizer;
  const Tensor a = featurizer.featurize(frame);
  const Tensor b = featurizer.featurize(frame);
  EXPECT_EQ(a.cols(), FrameFeaturizer::feature_count());
  EXPECT_TRUE(allclose(a, b, 0.0f));
  // Histogram block sums to 1.
  float hist = 0.0f;
  for (std::size_t i = 2 * kCellChannels; i < a.cols(); ++i) hist += a[i];
  EXPECT_NEAR(hist, 1.0f, 1e-5f);
}

TEST(Featurizer, BatchMatchesSingle) {
  Rng rng(12);
  FrameGenerator generator;
  const SceneAttributes attrs{Weather::kRainy, Location::kHighway,
                              TimeOfDay::kNight};
  const auto style = SceneStyle::from_attributes(attrs);
  const Frame f1 = generator.render(style, attrs, {}, rng);
  const Frame f2 = generator.render(style, attrs, {}, rng);
  const FrameFeaturizer featurizer;
  const Tensor batch = featurizer.featurize_batch({&f1, &f2});
  EXPECT_EQ(batch.rows(), 2u);
  const Tensor single = featurizer.featurize(f2);
  for (std::size_t c = 0; c < batch.cols(); ++c) {
    EXPECT_EQ(batch.at(1, c), single.at(0, c));
  }
}

TEST(Featurizer, SeparatesDayFromNight) {
  Rng rng(13);
  FrameGenerator generator;
  const SceneAttributes day{Weather::kClear, Location::kUrban,
                            TimeOfDay::kDaytime};
  const SceneAttributes night{Weather::kClear, Location::kUrban,
                              TimeOfDay::kNight};
  const FrameFeaturizer featurizer;
  const Tensor fd = featurizer.featurize(
      generator.render(SceneStyle::from_attributes(day), day, {}, rng));
  const Tensor fn = featurizer.featurize(
      generator.render(SceneStyle::from_attributes(night), night, {}, rng));
  // First luminance channel mean differs strongly.
  EXPECT_GT(fd[0] - fn[0], 0.2f);
}

TEST(Frame, ObjectAreaRatio) {
  Frame frame;
  frame.objects.push_back({0.5, 0.5, 0.1, 0.2, 1.0});
  frame.objects.push_back({0.2, 0.2, 0.3, 0.1, 1.0});
  EXPECT_NEAR(frame.object_area_ratio(), 0.02 + 0.03, 1e-12);
}

}  // namespace
}  // namespace anole::world
