// Deployment-artifact round trips and the engine's per-frame MSS and
// confidence fallback, sharing one trained system.
#include "core/artifact.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "core/profiler.hpp"
#include "core/quantize.hpp"
#include "nn/quantize.hpp"
#include "eval/f1_series.hpp"
#include "nn/serialize.hpp"
#include "util/log.hpp"
#include "world/featurizer.hpp"

namespace anole::core {
namespace {

class ArtifactTest : public ::testing::Test {
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
  }

  static void TearDownTestSuite() {
    system_.reset();
    world_.reset();
  }

  static std::unique_ptr<world::World> world_;
  static std::unique_ptr<AnoleSystem> system_;
};

std::unique_ptr<world::World> ArtifactTest::world_;
std::unique_ptr<AnoleSystem> ArtifactTest::system_;

TEST_F(ArtifactTest, RoundTripPreservesStructure) {
  std::stringstream stream;
  save_system(*system_, stream);
  AnoleSystem loaded = load_system(stream);
  EXPECT_EQ(loaded.model_count(), system_->model_count());
  EXPECT_EQ(loaded.scene_index.class_count(),
            system_->scene_index.class_count());
  EXPECT_EQ(loaded.encoder->embedding_dim(),
            system_->encoder->embedding_dim());
  EXPECT_EQ(loaded.decision->model_count(),
            system_->decision->model_count());
  for (std::size_t m = 0; m < loaded.model_count(); ++m) {
    EXPECT_EQ(loaded.repository.model(m).name,
              system_->repository.model(m).name);
    EXPECT_EQ(loaded.repository.model(m).scene_classes,
              system_->repository.model(m).scene_classes);
    EXPECT_DOUBLE_EQ(loaded.repository.model(m).validation_f1,
                     system_->repository.model(m).validation_f1);
    // Deployment artifacts ship no training data.
    EXPECT_TRUE(loaded.repository.model(m).training_frames.empty());
  }
}

TEST_F(ArtifactTest, RoundTripPreservesInference) {
  std::stringstream stream;
  save_system(*system_, stream);
  AnoleSystem loaded = load_system(stream);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  ASSERT_GE(frames.size(), 10u);
  const world::FrameFeaturizer featurizer;
  for (std::size_t i = 0; i < 10; ++i) {
    // Identical decision rankings.
    EXPECT_EQ(loaded.decision->rank(featurizer.featurize(*frames[i])),
              system_->decision->rank(featurizer.featurize(*frames[i])));
    // Identical detections from every model.
    for (std::size_t m = 0; m < loaded.model_count(); ++m) {
      const auto a = loaded.repository.detector(m).detect(*frames[i]);
      const auto b = system_->repository.detector(m).detect(*frames[i]);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t d = 0; d < a.size(); ++d) {
        EXPECT_DOUBLE_EQ(a[d].confidence, b[d].confidence);
        EXPECT_DOUBLE_EQ(a[d].cx, b[d].cx);
      }
    }
  }
}

TEST_F(ArtifactTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/anole_system.bin";
  save_system_to_file(*system_, path);
  AnoleSystem loaded = load_system_from_file(path);
  EXPECT_EQ(loaded.model_count(), system_->model_count());
  std::remove(path.c_str());
}

TEST_F(ArtifactTest, ArtifactSizeMatchesStream) {
  std::stringstream stream;
  save_system(*system_, stream);
  EXPECT_EQ(system_artifact_bytes(*system_), stream.str().size());
}

TEST_F(ArtifactTest, RejectsGarbage) {
  std::stringstream garbage("definitely not an artifact");
  EXPECT_THROW((void)load_system(garbage), std::runtime_error);
}

TEST_F(ArtifactTest, RejectsTruncationInVitalRegion) {
  // A cut before the vital sections (scene index, encoder, decision) are
  // complete is unrecoverable; only tail (model-section) damage heals.
  std::stringstream stream;
  save_system(*system_, stream);
  std::string data = stream.str();
  data.resize(30);  // mid first section header
  std::stringstream truncated(data);
  EXPECT_THROW((void)load_system(truncated), std::runtime_error);
}

TEST_F(ArtifactTest, IncompleteSystemRejected) {
  AnoleSystem incomplete;
  std::stringstream stream;
  EXPECT_THROW(save_system(incomplete, stream), std::runtime_error);
}

TEST_F(ArtifactTest, LoadedSystemDrivesEngine) {
  std::stringstream stream;
  save_system(*system_, stream);
  AnoleSystem loaded = load_system(stream);
  CacheConfig cache_config;
  cache_config.capacity = 3;
  AnoleEngine engine(loaded, cache_config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NO_THROW((void)engine.process(*frames[i]));
  }
  EXPECT_EQ(engine.frames_processed(), 20u);
}

TEST_F(ArtifactTest, ConfidenceFloorRoutesToFallback) {
  EngineConfig config;
  config.cache.capacity = 4;
  config.confidence_floor = 1.1;  // impossible: every frame is low-confidence
  AnoleEngine engine(*system_, config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  for (std::size_t i = 0; i < 15; ++i) {
    const auto result = engine.process(*frames[i]);
    EXPECT_TRUE(result.low_confidence);
    EXPECT_EQ(result.served_model, engine.fallback_model());
  }
  EXPECT_EQ(engine.low_confidence_frames(), 15u);
  // The fallback is the broadest model.
  const auto& fallback = system_->repository.model(engine.fallback_model());
  for (std::size_t m = 0; m < system_->model_count(); ++m) {
    EXPECT_GE(fallback.scene_classes.size(),
              system_->repository.model(m).scene_classes.size());
  }
}

TEST_F(ArtifactTest, ZeroFloorNeverTriggersFallback) {
  EngineConfig config;
  config.cache.capacity = 4;
  config.confidence_floor = 0.0;
  AnoleEngine engine(*system_, config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_FALSE(engine.process(*frames[i]).low_confidence);
  }
  EXPECT_EQ(engine.low_confidence_frames(), 0u);
}

TEST_F(ArtifactTest, InvalidConfidenceFloorRejected) {
  EngineConfig config;
  config.confidence_floor = -0.1;
  EXPECT_THROW(AnoleEngine(*system_, config), std::invalid_argument);
}

/// Plain per-frame MSS: every frame's top-1 is the argmax (lowest index on
/// ties) of that frame's own suitability vector, and the reported
/// confidence is that maximum, bit for bit — no state from earlier frames.
TEST_F(ArtifactTest, Top1ConfidenceReported) {
  CacheConfig cache_config;
  cache_config.capacity = 4;
  AnoleEngine engine(*system_, cache_config);
  const world::FrameFeaturizer featurizer;
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  ASSERT_GE(frames.size(), 20u);
  const std::size_t count = std::min<std::size_t>(frames.size(), 32);
  for (std::size_t i = 0; i < count; ++i) {
    const Tensor probs =
        system_->decision->suitability(featurizer.featurize(*frames[i]));
    const std::span<const float> row = probs.row(0);
    // max_element returns the first maximum: the lowest index on ties.
    const auto argmax = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    const double expected = row[argmax];
    const auto result = engine.process(*frames[i]);
    EXPECT_EQ(result.top1_model, argmax) << "frame " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.top1_confidence),
              std::bit_cast<std::uint64_t>(expected))
        << "frame " << i;
  }
}

// --- self-healing artifact layout ---

/// One section as laid out in the blob: u32 tag, u64 size, u32 CRC,
/// payload. The fixed header before the section table is 8 (magic) +
/// 4 (version) + 4 (model count) + 4 (section count) = 20 bytes.
struct SectionInfo {
  std::uint32_t tag = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_size = 0;
};

constexpr std::uint32_t kModelSectionTag = 4;
constexpr std::size_t kBlobHeaderBytes = 20;
constexpr std::size_t kSectionHeaderBytes = 16;

std::vector<SectionInfo> parse_sections(const std::string& blob) {
  std::vector<SectionInfo> sections;
  std::size_t offset = kBlobHeaderBytes;
  while (offset + kSectionHeaderBytes <= blob.size()) {
    SectionInfo info;
    std::uint64_t size = 0;
    std::memcpy(&info.tag, blob.data() + offset, sizeof(info.tag));
    std::memcpy(&size, blob.data() + offset + 4, sizeof(size));
    info.payload_offset = offset + kSectionHeaderBytes;
    info.payload_size = static_cast<std::size_t>(size);
    sections.push_back(info);
    offset = info.payload_offset + info.payload_size;
  }
  return sections;
}

std::string serialized_blob(AnoleSystem& system) {
  std::stringstream stream;
  save_system(system, stream);
  return stream.str();
}

/// Serialized detector weights of model `m` — the bit-identity witness.
std::string model_weights(AnoleSystem& system, std::size_t m) {
  std::ostringstream out(std::ios::binary);
  nn::save_parameters(system.repository.detector(m).network(), out);
  return out.str();
}

TEST_F(ArtifactTest, SingleBitFlipAlwaysDetected) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  ASSERT_EQ(sections.size(), 3 + system_->model_count());
  std::size_t model_index = 0;
  for (const SectionInfo& section : sections) {
    ASSERT_GT(section.payload_size, 0u);
    // Sample the first, middle, and last bit of the payload; CRC-32
    // detects every single-bit flip, wherever it lands.
    const std::size_t bits = section.payload_size * 8;
    for (const std::size_t bit : {std::size_t{0}, bits / 2, bits - 1}) {
      std::string blob = clean;
      blob[section.payload_offset + bit / 8] = static_cast<char>(
          static_cast<unsigned char>(blob[section.payload_offset + bit / 8]) ^
          (1u << (bit % 8)));
      std::stringstream stream(blob);
      if (section.tag == kModelSectionTag) {
        const AnoleSystem loaded = load_system(stream);
        ASSERT_EQ(loaded.damaged_models.size(), 1u) << "bit " << bit;
        EXPECT_EQ(loaded.damaged_models[0], model_index);
      } else {
        EXPECT_THROW((void)load_system(stream), std::runtime_error)
            << "vital tag " << section.tag << " bit " << bit;
      }
    }
    if (section.tag == kModelSectionTag) ++model_index;
  }
}

TEST_F(ArtifactTest, CorruptModelKeepsOthersBitIdentical) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  // Corrupt the second model's section.
  std::size_t target_section = 0;
  std::size_t seen_models = 0;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    if (sections[s].tag == kModelSectionTag && seen_models++ == 1) {
      target_section = s;
      break;
    }
  }
  std::string blob = clean;
  const std::size_t flip_at = sections[target_section].payload_offset + 5;
  blob[flip_at] = static_cast<char>(
      static_cast<unsigned char>(blob[flip_at]) ^ 0x10u);
  std::stringstream damaged_stream(blob);
  AnoleSystem damaged = load_system(damaged_stream);
  std::stringstream clean_stream(clean);
  AnoleSystem reference = load_system(clean_stream);

  ASSERT_EQ(damaged.damaged_models, std::vector<std::size_t>{1});
  ASSERT_EQ(damaged.model_count(), reference.model_count());
  EXPECT_EQ(damaged.repository.model(1).name, "damaged-1");
  for (std::size_t m = 0; m < damaged.model_count(); ++m) {
    if (m == 1) continue;
    EXPECT_EQ(damaged.repository.model(m).name,
              reference.repository.model(m).name);
    EXPECT_EQ(model_weights(damaged, m), model_weights(reference, m));
  }
}

TEST_F(ArtifactTest, TruncatedTailQuarantinesTrailingModels) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  const SectionInfo& last = sections.back();
  ASSERT_EQ(last.tag, kModelSectionTag);

  // Cut mid-payload of the final model section: that model (and only it)
  // is damaged, and the system still boots.
  std::string blob = clean;
  blob.resize(last.payload_offset + last.payload_size / 2);
  std::stringstream stream(blob);
  AnoleSystem loaded = load_system(stream);
  const std::size_t last_model = loaded.model_count() - 1;
  EXPECT_EQ(loaded.damaged_models, std::vector<std::size_t>{last_model});

  // Cut two whole sections off the tail: both trailing models are damaged.
  std::string shorter = clean;
  shorter.resize(sections[sections.size() - 2].payload_offset -
                 kSectionHeaderBytes);
  std::stringstream short_stream(shorter);
  AnoleSystem two_missing = load_system(short_stream);
  EXPECT_EQ(two_missing.damaged_models,
            (std::vector<std::size_t>{last_model - 1, last_model}));
  EXPECT_EQ(two_missing.model_count(), system_->model_count());
}

TEST_F(ArtifactTest, AllModelSectionsDamagedThrows) {
  const std::string clean = serialized_blob(*system_);
  std::string blob = clean;
  for (const SectionInfo& section : parse_sections(clean)) {
    if (section.tag == kModelSectionTag) {
      blob[section.payload_offset] = static_cast<char>(
          static_cast<unsigned char>(blob[section.payload_offset]) ^ 0x01u);
    }
  }
  std::stringstream stream(blob);
  EXPECT_THROW((void)load_system(stream), std::runtime_error);
}

TEST_F(ArtifactTest, DamagedSystemDrivesEngineWithoutServingDamaged) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  std::string blob = clean;
  blob[sections[3].payload_offset] = static_cast<char>(  // first model
      static_cast<unsigned char>(blob[sections[3].payload_offset]) ^ 0x01u);
  std::stringstream stream(blob);
  AnoleSystem loaded = load_system(stream);
  ASSERT_EQ(loaded.damaged_models, std::vector<std::size_t>{0});

  CacheConfig cache_config;
  cache_config.capacity = 3;
  AnoleEngine engine(loaded, cache_config);
  EXPECT_NE(engine.fallback_model(), 0u);
  EXPECT_TRUE(engine.cache().is_quarantined(0));
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  for (std::size_t i = 0; i < 30; ++i) {
    const auto result = engine.process(*frames[i]);
    EXPECT_NE(result.served_model, 0u) << "frame " << i;
  }
}

TEST_F(ArtifactTest, InjectedSectionCorruptionIsDeterministic) {
  const std::string clean = serialized_blob(*system_);
  const auto load_under_injection = [&clean]() {
    fault::FaultInjector injector(321);
    injector.arm(fault::Site::kArtifactSection, 0.5);
    std::stringstream stream(clean);
    try {
      const AnoleSystem loaded = load_system(stream, &injector);
      return std::make_pair(false, loaded.damaged_models);
    } catch (const std::runtime_error&) {
      return std::make_pair(true, std::vector<std::size_t>{});
    }
  };
  const auto first = load_under_injection();
  const auto second = load_under_injection();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ArtifactTest, OtherVersionsRejectedOnLoad) {
  // The header's u32 version follows the 8-byte magic.
  const std::string clean = serialized_blob(*system_);
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    std::string blob = clean;
    std::memcpy(blob.data() + 8, &version, sizeof(version));
    std::stringstream stream(blob);
    try {
      (void)load_system(stream);
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(version)),
                std::string::npos)
          << error.what();
    }
  }
}

/// Peak resident set of this process in KiB (Linux ru_maxrss units).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST_F(ArtifactTest, CorruptSizeFieldCostsOnlyTheBytesPresent) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  const SectionInfo& last = sections.back();
  ASSERT_EQ(last.tag, kModelSectionTag);
  // Bit 29 of the last section's u64 size field (after its u32 tag):
  // the section now claims 512 MiB more than the stream holds, which is
  // still under the 1 GiB plausibility bound.
  std::string blob = clean;
  const std::size_t size_field = last.payload_offset - kSectionHeaderBytes + 4;
  blob[size_field + 3] = static_cast<char>(
      static_cast<unsigned char>(blob[size_field + 3]) ^ 0x20u);
  std::stringstream clean_stream(clean);
  AnoleSystem reference = load_system(clean_stream);

  // ru_maxrss is a high-water mark; ctest runs each test in its own
  // process, so no earlier test can hide this load's growth under it.
  const long before_kib = peak_rss_kib();
  std::stringstream stream(blob);
  AnoleSystem loaded = load_system(stream);
  EXPECT_LT(peak_rss_kib() - before_kib, 64L * 1024);

  const std::size_t last_model = reference.model_count() - 1;
  ASSERT_EQ(loaded.damaged_models, std::vector<std::size_t>{last_model});
  ASSERT_EQ(loaded.model_count(), reference.model_count());
  for (std::size_t m = 0; m < last_model; ++m) {
    EXPECT_EQ(model_weights(loaded, m), model_weights(reference, m))
        << "model " << m;
  }
}

TEST_F(ArtifactTest, TruncationSweepFollowsRecoveryLadder) {
  const std::string clean = serialized_blob(*system_);
  const auto sections = parse_sections(clean);
  const std::size_t models = system_->model_count();
  ASSERT_EQ(sections.size(), 3 + models);
  ASSERT_GE(models, 2u);

  // Every section-header start, payload start and payload end, ±1 byte,
  // plus every 61st byte.
  std::set<std::size_t> cuts;
  for (const SectionInfo& section : sections) {
    for (const std::size_t edge :
         {section.payload_offset - kSectionHeaderBytes, section.payload_offset,
          section.payload_offset + section.payload_size}) {
      for (const std::size_t cut : {edge - 1, edge, edge + 1}) {
        if (cut <= clean.size()) cuts.insert(cut);
      }
    }
  }
  for (std::size_t cut = 0; cut <= clean.size(); cut += 61) cuts.insert(cut);

  for (const std::size_t cut : cuts) {
    // The section the cut lands in, counting a section's own header as
    // part of it; `models` past the last one (nothing is lost).
    std::size_t lost_from = models;
    bool fatal = cut < kBlobHeaderBytes;
    for (std::size_t s = 0; s < sections.size() && !fatal; ++s) {
      const SectionInfo& section = sections[s];
      if (cut >= section.payload_offset + section.payload_size) continue;
      if (section.tag == kModelSectionTag) {
        lost_from = s - 3;  // the three vital sections come first
        fatal = lost_from == 0;  // every model lost
      } else {
        fatal = true;
      }
      break;
    }
    std::stringstream stream(clean.substr(0, cut));
    if (fatal) {
      EXPECT_THROW((void)load_system(stream), std::runtime_error)
          << "cut " << cut;
      continue;
    }
    std::vector<std::size_t> expected;
    for (std::size_t m = lost_from; m < models; ++m) expected.push_back(m);
    try {
      const AnoleSystem loaded = load_system(stream);
      EXPECT_EQ(loaded.damaged_models, expected) << "cut " << cut;
      EXPECT_EQ(loaded.model_count(), models) << "cut " << cut;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "cut " << cut << " threw: " << error.what();
    }
  }
}

// --- quantized sections ---

/// Round-trips the shared system through an artifact, giving each test a
/// private copy it may quantize without disturbing the fixture.
AnoleSystem private_copy(AnoleSystem& system) {
  std::stringstream stream;
  save_system(system, stream);
  return load_system(stream);
}

/// Reattaches the cloud-side validation pools (artifacts strip them), so
/// quantize_system runs the repository's δ guard rather than the probe
/// guard.
void attach_validation_pools(AnoleSystem& copy, AnoleSystem& source) {
  for (std::size_t m = 0; m < copy.model_count(); ++m) {
    copy.repository.model(m).validation_frames =
        source.repository.model(m).validation_frames;
  }
}

TEST_F(ArtifactTest, V3QuantizedRoundTripBitIdentical) {
  AnoleSystem quantized = private_copy(*system_);
  attach_validation_pools(quantized, *system_);
  const QuantizeReport report = quantize_system(quantized);
  ASSERT_GT(report.quantized_detectors, 0u);
  ASSERT_TRUE(system_is_quantized(quantized));

  std::stringstream stream;
  save_system(quantized, stream);
  AnoleSystem loaded = load_system(stream);
  EXPECT_TRUE(system_is_quantized(loaded));
  EXPECT_TRUE(loaded.damaged_models.empty());
  ASSERT_EQ(loaded.model_count(), quantized.model_count());

  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  const world::FrameFeaturizer featurizer;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded.decision->rank(featurizer.featurize(*frames[i])),
              quantized.decision->rank(featurizer.featurize(*frames[i])));
    for (std::size_t m = 0; m < loaded.model_count(); ++m) {
      const auto a = loaded.repository.detector(m).detect(*frames[i]);
      const auto b = quantized.repository.detector(m).detect(*frames[i]);
      ASSERT_EQ(a.size(), b.size()) << "model " << m << " frame " << i;
      for (std::size_t d = 0; d < a.size(); ++d) {
        EXPECT_DOUBLE_EQ(a[d].confidence, b[d].confidence);
        EXPECT_DOUBLE_EQ(a[d].cx, b[d].cx);
      }
    }
  }
}

/// Payload sizes of the model sections, in model order.
std::vector<std::size_t> model_section_sizes(const std::string& blob) {
  std::vector<std::size_t> sizes;
  for (const SectionInfo& section : parse_sections(blob)) {
    if (section.tag == kModelSectionTag) sizes.push_back(section.payload_size);
  }
  return sizes;
}

/// The quantize guard may keep a detector at fp32 (on this system it
/// does), so the size claims are checked on the detectors it did
/// convert.
TEST_F(ArtifactTest, QuantizedModelSectionsShrink) {
  AnoleSystem quantized = private_copy(*system_);
  attach_validation_pools(quantized, *system_);
  const QuantizeReport report = quantize_system(quantized);
  const std::string fp32_blob = serialized_blob(*system_);
  const std::string quant_blob = serialized_blob(quantized);
  const std::vector<std::size_t> fp32_sizes = model_section_sizes(fp32_blob);
  const std::vector<std::size_t> quant_sizes = model_section_sizes(quant_blob);
  ASSERT_EQ(fp32_sizes.size(), system_->model_count());
  ASSERT_EQ(quant_sizes.size(), system_->model_count());

  double fp32_bytes = 0.0;
  double quant_bytes = 0.0;
  std::size_t converted = 0;
  for (std::size_t m = 0; m < quantized.model_count(); ++m) {
    detect::GridDetector& detector = quantized.repository.detector(m);
    if (!nn::is_quantized(detector.network())) continue;
    ++converted;
    fp32_bytes += static_cast<double>(fp32_sizes[m]);
    quant_bytes += static_cast<double>(quant_sizes[m]);
    // ModelCache / DeviceSession accounting shrinks with them.
    EXPECT_LT(detector.weight_bytes() * 3,
              system_->repository.detector(m).weight_bytes())
        << "model " << m;
  }
  ASSERT_GE(converted, 1u);
  EXPECT_EQ(converted, report.quantized_detectors);
  EXPECT_EQ(converted + report.rejected_detectors, quantized.model_count());
  // The headline quantization claim: quantized model sections stream at
  // least 3.5x fewer bytes than their fp32 counterparts.
  EXPECT_GE(fp32_bytes / quant_bytes, 3.5);
  EXPECT_LT(quant_blob.size(), fp32_blob.size());
  EXPECT_LT(quantized.decision->head_weight_bytes(),
            system_->decision->head_weight_bytes());
}

TEST_F(ArtifactTest, QuantEnvZeroLoadsFp32) {
  AnoleSystem quantized = private_copy(*system_);
  attach_validation_pools(quantized, *system_);
  const QuantizeReport report = quantize_system(quantized);
  ASSERT_GT(report.quantized_detectors, 0u);
  std::stringstream stream;
  save_system(quantized, stream);

  // A caller that wants fp32 from a quantized artifact dequantizes the
  // loaded system.
  AnoleSystem fp32_loaded = load_system(stream);
  ASSERT_TRUE(system_is_quantized(fp32_loaded));
  EXPECT_GT(dequantize_system(fp32_loaded), 0u);
  EXPECT_FALSE(system_is_quantized(fp32_loaded));

  CacheConfig cache_config;
  cache_config.capacity = 3;
  AnoleEngine engine(fp32_loaded, cache_config);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(engine.process(*frames[i]).health.served_quantized);
  }
  EXPECT_EQ(engine.quantized_frames(), 0u);
}

TEST_F(ArtifactTest, EngineReportsActivePrecision) {
  AnoleSystem quantized = private_copy(*system_);
  attach_validation_pools(quantized, *system_);
  const QuantizeReport report = quantize_system(quantized);
  ASSERT_GT(report.quantized_detectors, 0u);

  CacheConfig cache_config;
  cache_config.capacity = 3;
  AnoleEngine engine(quantized, cache_config);
  EXPECT_EQ(engine.decision_quantized(), report.decision_quantized);
  const auto frames = world_->frames_with_role(world::SplitRole::kTest);
  std::size_t served_quantized = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto result = engine.process(*frames[i]);
    EXPECT_EQ(result.health.served_quantized,
              engine.model_quantized(result.served_model));
    if (result.health.served_quantized) ++served_quantized;
  }
  EXPECT_EQ(engine.quantized_frames(), served_quantized);
  if (report.rejected_detectors == 0) {
    EXPECT_EQ(served_quantized, 20u);
  }
}

}  // namespace
}  // namespace anole::core
