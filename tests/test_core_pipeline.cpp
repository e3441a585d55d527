// End-to-end tests of the Anole core: scene index, encoder, Algorithm 1,
// ASS, decision model, and the online engine. The expensive offline
// profiling run is shared across tests through a suite-level fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact.hpp"
#include "core/profiler.hpp"
#include "eval/f1_series.hpp"
#include "nn/loss.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace anole::core {
namespace {

world::WorldConfig tiny_world_config() {
  world::WorldConfig config;
  config.frames_per_clip = 60;
  config.clip_scale = 0.15;
  config.seed = 99;
  return config;
}

ProfilerConfig tiny_profiler_config() {
  ProfilerConfig config;
  config.encoder.train.epochs = 20;
  config.repository.target_models = 8;
  config.repository.detector_train.epochs = 8;
  config.repository.min_training_frames = 30;
  config.repository.min_validation_frames = 6;
  config.sampling.budget = 400;
  config.decision.train.epochs = 30;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = std::make_unique<world::World>(
        world::make_benchmark_world(tiny_world_config()));
    rng_ = std::make_unique<Rng>(7);
    report_ = std::make_unique<ProfilerReport>();
    // Algorithm 1 logs one line per candidate its acceptance walk visits;
    // the log is kept so tests can see the rejected candidates too.
    ProfilerConfig config = tiny_profiler_config();
    config.repository.verbose = true;
    set_log_level(LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
    OfflineProfiler profiler(config);
    system_ = std::make_unique<AnoleSystem>(
        profiler.run(*world_, *rng_, report_.get()));
    walk_log_ = ::testing::internal::GetCapturedStderr();
    set_log_level(LogLevel::kError);
  }

  static void TearDownTestSuite() {
    system_.reset();
    report_.reset();
    rng_.reset();
    world_.reset();
  }

  static std::unique_ptr<world::World> world_;
  static std::unique_ptr<AnoleSystem> system_;
  static std::unique_ptr<ProfilerReport> report_;
  static std::unique_ptr<Rng> rng_;
  static std::string walk_log_;
};

std::unique_ptr<world::World> PipelineTest::world_;
std::unique_ptr<AnoleSystem> PipelineTest::system_;
std::unique_ptr<ProfilerReport> PipelineTest::report_;
std::unique_ptr<Rng> PipelineTest::rng_;
std::string PipelineTest::walk_log_;

TEST(SemanticSceneIndex, BuildsDenseClasses) {
  world::Frame a;
  a.attributes = {world::Weather::kClear, world::Location::kUrban,
                  world::TimeOfDay::kDaytime};
  world::Frame b;
  b.attributes = {world::Weather::kRainy, world::Location::kHighway,
                  world::TimeOfDay::kNight};
  const auto index = SemanticSceneIndex::build({&a, &b, &a});
  EXPECT_EQ(index.class_count(), 2u);
  EXPECT_TRUE(index.class_of(a).has_value());
  EXPECT_TRUE(index.class_of(b).has_value());
  EXPECT_NE(*index.class_of(a), *index.class_of(b));
  EXPECT_EQ(index.semantic_of(*index.class_of(a)), a.semantic_scene_id());
  EXPECT_EQ(index.attributes_of(*index.class_of(b)), b.attributes);
}

TEST(SemanticSceneIndex, UnknownSceneIsNullopt) {
  world::Frame a;
  const auto index = SemanticSceneIndex::build({&a});
  EXPECT_FALSE(index.class_of(std::size_t{119}).has_value());
}

TEST(SemanticSceneIndex, LabelsThrowOnUnknownScene) {
  world::Frame a;
  world::Frame b;
  b.attributes = {world::Weather::kSnowy, world::Location::kTunnel,
                  world::TimeOfDay::kNight};
  const auto index = SemanticSceneIndex::build({&a});
  EXPECT_THROW((void)index.labels_of({&b}), std::invalid_argument);
  const auto labels = index.labels_of({&a, &a});
  EXPECT_EQ(labels, (std::vector<std::size_t>{0, 0}));
}

TEST_F(PipelineTest, EncoderLearnsSemanticScenes) {
  EXPECT_GT(report_->encoder_train_accuracy, 0.9);
  EXPECT_EQ(system_->encoder->class_count(),
            system_->scene_index.class_count());
}

TEST_F(PipelineTest, EncoderEmbeddingShape) {
  const world::FrameFeaturizer featurizer;
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  ASSERT_FALSE(frames.empty());
  const Tensor embeddings = system_->encoder->embed(
      featurizer.featurize_batch({frames[0], frames[1]}));
  EXPECT_EQ(embeddings.rows(), 2u);
  EXPECT_EQ(embeddings.cols(), system_->encoder->embedding_dim());
}

TEST_F(PipelineTest, EncoderTrunkCheaperThanFull) {
  EXPECT_LT(system_->encoder->trunk_flops_per_sample(),
            system_->encoder->flops_per_sample());
}

TEST_F(PipelineTest, RepositoryRespectsTargetAndCoverage) {
  EXPECT_GT(system_->repository.size(), 0u);
  EXPECT_LE(system_->repository.size(),
            tiny_profiler_config().repository.target_models);
  // Every model must have a detector, scenes, and training frames.
  std::set<std::size_t> covered;
  for (std::size_t m = 0; m < system_->repository.size(); ++m) {
    const SceneModel& model = system_->repository.model(m);
    EXPECT_NE(model.detector, nullptr);
    EXPECT_FALSE(model.scene_classes.empty());
    EXPECT_FALSE(model.training_frames.empty());
    for (std::size_t cls : model.scene_classes) covered.insert(cls);
  }
  EXPECT_GT(covered.size(), system_->scene_index.class_count() / 2);
}

TEST_F(PipelineTest, RepositoryModelNamesAreUniqueAndNumberedByIndex) {
  std::set<std::string> names;
  for (std::size_t m = 0; m < system_->repository.size(); ++m) {
    const std::string& name = system_->repository.model(m).name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    std::string prefix = "M";
    prefix += std::to_string(m + 1);
    prefix += "(";
    EXPECT_EQ(name.rfind(prefix, 0), 0u) << "model " << m << ": " << name;
  }
}

TEST_F(PipelineTest, AcceptanceWalkAcceptsAndRejectsInGranularityOrder) {
  // The walk logs "Algorithm1 k=<k> ... val_f1=<f1>" per visited
  // candidate and accepts it when f1 exceeds the threshold.
  const double threshold =
      tiny_profiler_config().repository.acceptance_threshold;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::istringstream lines(walk_log_);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("Algorithm1 k=") == std::string::npos) continue;
    const std::size_t at = line.find("val_f1=");
    ASSERT_NE(at, std::string::npos) << line;
    const double f1 = std::stod(line.substr(at + 7));
    if (f1 > threshold) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GE(accepted, 1u);
  EXPECT_GE(rejected, 1u);

  // Clustered models come first, by non-decreasing granularity; the
  // backfilled specialists (cluster_k == 0) follow them all.
  std::size_t clustered = 0;
  std::size_t last_k = 2;
  bool backfill_seen = false;
  for (std::size_t m = 0; m < system_->repository.size(); ++m) {
    const std::size_t k = system_->repository.model(m).cluster_k;
    if (k == 0) {
      backfill_seen = true;
      continue;
    }
    EXPECT_FALSE(backfill_seen) << "clustered model " << m
                                << " after a backfilled specialist";
    EXPECT_GE(k, last_k) << "model " << m;
    last_k = k;
    ++clustered;
  }
  EXPECT_EQ(clustered, accepted);
}

TEST_F(PipelineTest, RepositoryTrainingSetSizes) {
  const auto sizes = system_->repository.training_set_sizes();
  ASSERT_EQ(sizes.size(), system_->repository.size());
  for (std::size_t m = 0; m < sizes.size(); ++m) {
    EXPECT_EQ(sizes[m], system_->repository.model(m).training_frames.size());
  }
}

TEST_F(PipelineTest, RepositoryModelsAreScoped) {
  // A model's training frames all come from its scene classes.
  for (std::size_t m = 0; m < system_->repository.size(); ++m) {
    const SceneModel& model = system_->repository.model(m);
    const std::set<std::size_t> classes(model.scene_classes.begin(),
                                        model.scene_classes.end());
    for (const world::Frame* frame : model.training_frames) {
      const auto cls = system_->scene_index.class_of(*frame);
      ASSERT_TRUE(cls.has_value());
      EXPECT_TRUE(classes.count(*cls)) << "model " << model.name;
    }
  }
}

TEST_F(PipelineTest, DecisionDatasetIsConsistent) {
  Rng rng(17);
  DecisionSamplingConfig config;
  config.budget = 150;
  const auto dataset =
      build_decision_dataset(system_->repository, config, rng);
  ASSERT_GT(dataset.features.rows(), 0u);
  EXPECT_EQ(dataset.features.rows(), dataset.targets.rows());
  EXPECT_EQ(dataset.targets.cols(), system_->repository.size());
  EXPECT_EQ(dataset.best_model.size(), dataset.features.rows());
  EXPECT_EQ(dataset.source_arm.size(), dataset.features.rows());
  EXPECT_EQ(dataset.semantic_scene.size(), dataset.features.rows());
  // Targets are distributions.
  for (std::size_t r = 0; r < dataset.targets.rows(); ++r) {
    float sum = 0.0f;
    for (float v : dataset.targets.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  // Draws per model sum to the number of rounds that produced samples.
  double draws = 0.0;
  for (double d : dataset.draws_per_model) draws += d;
  EXPECT_GE(draws, static_cast<double>(dataset.features.rows()));
}

TEST_F(PipelineTest, DecisionDatasetRandomModeDiffers) {
  Rng rng(18);
  DecisionSamplingConfig config;
  config.budget = 200;
  config.adaptive = false;
  const auto dataset =
      build_decision_dataset(system_->repository, config, rng);
  EXPECT_EQ(dataset.features.rows(), 200u);
}

TEST_F(PipelineTest, DecisionSuitabilityIsDistribution) {
  const world::FrameFeaturizer featurizer;
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  const Tensor probs =
      system_->decision->suitability(featurizer.featurize(*frames[0]));
  EXPECT_EQ(probs.cols(), system_->repository.size());
  float sum = 0.0f;
  for (float v : probs.row(0)) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST_F(PipelineTest, DecisionRankIsPermutation) {
  const world::FrameFeaturizer featurizer;
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  const auto ranking =
      system_->decision->rank(featurizer.featurize(*frames[3]));
  ASSERT_EQ(ranking.size(), system_->repository.size());
  std::set<std::size_t> unique(ranking.begin(), ranking.end());
  EXPECT_EQ(unique.size(), ranking.size());
  // The ranking is sorted by suitability.
  const Tensor probs =
      system_->decision->suitability(featurizer.featurize(*frames[3]));
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(probs.at(0, ranking[i - 1]), probs.at(0, ranking[i]));
  }
}

TEST_F(PipelineTest, EngineProcessesFrames) {
  CacheConfig cache_config;
  cache_config.capacity = 3;
  AnoleEngine engine(*system_, cache_config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  std::size_t switches = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(frames.size(), 60); ++i) {
    const auto result = engine.process(*frames[i]);
    EXPECT_LT(result.served_model, system_->repository.size());
    EXPECT_LT(result.top1_model, system_->repository.size());
    if (result.model_switched) ++switches;
  }
  EXPECT_EQ(engine.frames_processed(), 60u);
  EXPECT_EQ(engine.model_switches(), switches);
  std::size_t top1_total = 0;
  for (std::size_t c : engine.top1_counts()) top1_total += c;
  EXPECT_EQ(top1_total, 60u);
  EXPECT_LE(engine.cache().resident_models().size(), 3u);
}

TEST_F(PipelineTest, EngineBeatsBlindBaselineOnSeenData) {
  CacheConfig cache_config;
  cache_config.capacity = 5;
  AnoleEngine engine(*system_, cache_config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  const double f1 = eval::overall_f1(
      [&](const world::Frame& f) { return engine.process(f).detections; },
      frames);
  EXPECT_GT(f1, 0.3);
}

TEST_F(PipelineTest, EngineRejectsEmptySystem) {
  AnoleSystem empty;
  CacheConfig cache_config;
  EXPECT_THROW(AnoleEngine(empty, cache_config), std::invalid_argument);
}

TEST_F(PipelineTest, ReportIsPopulated) {
  EXPECT_EQ(report_->models_trained, system_->repository.size());
  EXPECT_GT(report_->decision_samples, 0u);
}

/// Algorithm 1 with candidates rejected before the repository fills, so
/// the walk skips some and later candidates are dropped mid-training once
/// the finished ones before them already accept n models. Which
/// candidates get dropped, and when, depends on the thread count; the
/// saved artifact must not.
TEST(Repository, RejectionsAndDroppedCandidatesKeepArtifactsIdentical) {
  set_log_level(LogLevel::kError);
  const world::World world = world::make_benchmark_world(tiny_world_config());
  const auto profile = [&](double threshold, std::size_t threads) {
    par::set_thread_count(threads);
    ProfilerConfig config = tiny_profiler_config();
    config.repository.target_models = 3;
    config.repository.acceptance_threshold = threshold;
    Rng rng(7);
    AnoleSystem system = OfflineProfiler(config).run(world, rng);
    par::set_thread_count(0);
    std::vector<std::string> names;
    for (std::size_t m = 0; m < system.repository.size(); ++m) {
      names.push_back(system.repository.model(m).name);
    }
    std::ostringstream out;
    save_system(system, out);
    return std::make_pair(names, out.str());
  };
  const auto raised = profile(0.4, 1);
  ASSERT_EQ(raised.first.size(), 3u);
  // Some candidate accepted at threshold 0 is rejected at 0.4.
  EXPECT_NE(profile(0.0, 4).first, raised.first);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto run = profile(0.4, threads);
    EXPECT_EQ(run.first, raised.first);
    EXPECT_TRUE(run.second == raised.second) << "artifact bytes differ";
  }
}

TEST(Profiler, ThrowsOnEmptyWorld) {
  world::World empty;
  Rng rng(1);
  OfflineProfiler profiler;
  EXPECT_THROW((void)profiler.run(empty, rng), std::invalid_argument);
}

}  // namespace
}  // namespace anole::core
