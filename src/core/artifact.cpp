#include "core/artifact.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"

namespace anole::core {
namespace {

constexpr std::array<char, 8> kMagic = {'A', 'N', 'O', 'L',
                                        'E', 'S', 'Y', 'S'};
// The one artifact format this build writes and reads.
constexpr std::uint32_t kArtifactVersion = 3;

using nn::read_pod;
using nn::try_read_pod;
using nn::write_pod;

// Section tags. Vital sections are written first so tail truncation
// can only damage model sections.
constexpr std::uint32_t kSectionSceneIndex = 1;
constexpr std::uint32_t kSectionEncoder = 2;
constexpr std::uint32_t kSectionDecision = 3;
constexpr std::uint32_t kSectionModel = 4;

// Upper bound on a single section payload; a larger size field is
// corruption. Payloads are read in kReadChunkBytes steps, so a corrupted
// size below this bound costs only the bytes the stream really holds.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 30;
constexpr std::size_t kReadChunkBytes = 1 << 16;

void write_string(std::ostream& out, const std::string& value) {
  write_pod(out, static_cast<std::uint32_t>(value.size()));
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string read_string(std::istream& in) {
  const auto size = read_pod<std::uint32_t>(in);
  std::string value(size, '\0');
  in.read(value.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("load_system: truncated string");
  return value;
}

void write_size_vector(std::ostream& out,
                       const std::vector<std::size_t>& values) {
  write_pod(out, static_cast<std::uint32_t>(values.size()));
  for (std::size_t v : values) {
    write_pod(out, static_cast<std::uint64_t>(v));
  }
}

std::vector<std::size_t> read_size_vector(std::istream& in) {
  const auto count = read_pod<std::uint32_t>(in);
  std::vector<std::size_t> values(count);
  for (auto& v : values) {
    v = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  }
  return values;
}

// --- section payloads: each function reads/writes exactly one logical
// unit from the given stream. Model and decision sections use narrow
// metadata fields plus the precision-tagged nn::save_network body; the
// encoder keeps the fp32 ANOLEWTS parameter walk. ---

void write_scene_index(std::ostream& out, AnoleSystem& system) {
  write_size_vector(out, system.scene_index.semantic_ids());
}

void read_scene_index(std::istream& in, AnoleSystem& system) {
  system.scene_index =
      SemanticSceneIndex::from_semantic_ids(read_size_vector(in));
}

void write_encoder(std::ostream& out, AnoleSystem& system) {
  write_pod(out, static_cast<std::uint64_t>(system.encoder->class_count()));
  write_pod(out,
            static_cast<std::uint64_t>(system.encoder->config().hidden_width));
  write_pod(out, static_cast<std::uint64_t>(system.encoder->embedding_dim()));
  nn::save_parameters(*system.encoder, out);
}

void read_encoder(std::istream& in, AnoleSystem& system, Rng& rng) {
  const auto class_count =
      static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  SceneEncoderConfig encoder_config;
  encoder_config.hidden_width =
      static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  encoder_config.embedding_dim =
      static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  system.encoder =
      std::make_unique<SceneEncoder>(class_count, encoder_config, rng);
  nn::load_parameters(*system.encoder, in);
}

void write_u16_vector(std::ostream& out,
                      const std::vector<std::size_t>& values) {
  if (values.size() > 0xFFFF) {
    throw std::runtime_error("save_system: vector too long for a u16 field");
  }
  write_pod(out, static_cast<std::uint16_t>(values.size()));
  for (std::size_t v : values) {
    if (v > 0xFFFF) {
      throw std::runtime_error("save_system: value too large for a u16 field");
    }
    write_pod(out, static_cast<std::uint16_t>(v));
  }
}

std::vector<std::size_t> read_u16_vector(std::istream& in) {
  const auto count = read_pod<std::uint16_t>(in);
  std::vector<std::size_t> values(count);
  for (auto& v : values) {
    v = static_cast<std::size_t>(read_pod<std::uint16_t>(in));
  }
  return values;
}

void write_model(std::ostream& out, SceneModel& model) {
  write_string(out, model.name);
  write_u16_vector(out, model.scene_classes);
  write_pod(out, model.validation_f1);
  write_pod(out, static_cast<std::uint16_t>(model.cluster_k));
  const auto& config = model.detector->config();
  write_pod(out, static_cast<std::uint16_t>(model.detector->grid_size()));
  write_u16_vector(out, config.hidden);
  write_pod(out, config.confidence_threshold);
  write_pod(out, config.nms_threshold);
  write_pod(out, config.nms_center_distance);
  nn::save_network(model.detector->network(), out);
}

SceneModel read_model(std::istream& in, Rng& rng) {
  SceneModel model;
  model.name = read_string(in);
  model.scene_classes = read_u16_vector(in);
  model.validation_f1 = read_pod<double>(in);
  model.cluster_k = static_cast<std::size_t>(read_pod<std::uint16_t>(in));
  const auto grid_size =
      static_cast<std::size_t>(read_pod<std::uint16_t>(in));
  detect::GridDetectorConfig config;
  config.hidden = read_u16_vector(in);
  config.confidence_threshold = read_pod<double>(in);
  config.nms_threshold = read_pod<double>(in);
  config.nms_center_distance = read_pod<double>(in);
  config.name = model.name;
  model.detector =
      std::make_unique<detect::GridDetector>(config, rng, grid_size);
  nn::load_network(model.detector->network(), in);
  return model;
}

void write_decision(std::ostream& out, AnoleSystem& system) {
  write_pod(out,
            static_cast<std::uint16_t>(system.decision->config().hidden_width));
  write_pod(out, static_cast<std::uint16_t>(system.decision->model_count()));
  nn::save_network(system.decision->head(), out);
}

void read_decision(std::istream& in, AnoleSystem& system, Rng& rng) {
  DecisionModelConfig decision_config;
  decision_config.hidden_width =
      static_cast<std::size_t>(read_pod<std::uint16_t>(in));
  const auto decision_models = read_pod<std::uint16_t>(in);
  system.decision = std::make_unique<DecisionModel>(
      *system.encoder, decision_models, decision_config, rng);
  nn::load_network(system.decision->head(), in);
}

/// Stand-in for a model whose artifact section was damaged. It keeps the
/// repository width (and thus the decision-head wiring) intact but must
/// never serve: the engine quarantines every damaged slot permanently.
SceneModel make_placeholder_model(std::size_t model_id, Rng& rng) {
  SceneModel model;
  model.name = "damaged-" + std::to_string(model_id);
  detect::GridDetectorConfig config = detect::GridDetectorConfig::compressed();
  config.name = model.name;
  model.detector = std::make_unique<detect::GridDetector>(config, rng);
  return model;
}

/// Serializes one logical unit into a buffer and emits it as a section:
/// u32 tag, u64 payload size, u32 CRC-32 of the payload, payload bytes.
template <typename WriteBody>
void write_section(std::ostream& out, std::uint32_t tag, WriteBody&& body) {
  std::ostringstream buffer(std::ios::binary);
  body(buffer);
  const std::string payload = buffer.str();
  write_pod(out, tag);
  write_pod(out, static_cast<std::uint64_t>(payload.size()));
  write_pod(out, nn::crc32(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Reads up to `size` payload bytes into `payload`, growing it one chunk
/// at a time as bytes arrive. Returns false when the stream ends first;
/// `payload` then holds what was there.
bool read_payload(std::istream& in, std::uint64_t size, std::string& payload) {
  payload.clear();
  while (payload.size() < size) {
    const std::size_t have = payload.size();
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunkBytes, size - have));
    payload.resize(have + want);
    in.read(payload.data() + have, static_cast<std::streamsize>(want));
    payload.resize(have + static_cast<std::size_t>(in.gcount()));
    if (!in) return false;
  }
  return true;
}

void load_sections(std::istream& in, AnoleSystem& system,
                   fault::FaultInjector* faults, Rng& rng) {
  const auto model_count = read_pod<std::uint32_t>(in);
  const auto section_count = read_pod<std::uint32_t>(in);
  bool have_index = false;
  bool have_encoder = false;
  bool have_decision = false;
  std::uint32_t models_read = 0;
  bool truncated = false;

  for (std::uint32_t s = 0; s < section_count && !truncated; ++s) {
    // Section header. Truncation here is recoverable only once every
    // vital section has been read: the missing tail is all models.
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::uint32_t expected_crc = 0;
    if (!try_read_pod(in, tag) || !try_read_pod(in, size) ||
        !try_read_pod(in, expected_crc)) {
      if (have_index && have_encoder && have_decision) {
        truncated = true;
        break;
      }
      throw std::runtime_error("load_system: truncated before section " +
                               std::to_string(s));
    }
    if (size > kMaxSectionBytes) {
      throw std::runtime_error("load_system: implausible section size");
    }
    std::string payload;
    const bool payload_complete = read_payload(in, size, payload);
    if (!payload_complete && tag != kSectionModel) {
      throw std::runtime_error("load_system: truncated vital section " +
                               std::to_string(tag));
    }
    // Injected storage rot: flip one deterministic bit, then let the
    // checksum below catch it exactly as real corruption would be caught.
    // The draw spans the declared size; a bit past a short read's end
    // needs no flip (that section already fails).
    if (faults != nullptr && size != 0 &&
        faults->should_fail(fault::Site::kArtifactSection, s)) {
      const std::size_t bit = faults->draw_index(
          fault::Site::kArtifactSection, static_cast<std::size_t>(size) * 8);
      if (bit / 8 < payload.size()) {
        payload[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(payload[bit / 8]) ^ (1u << (bit % 8)));
      }
    }
    const bool intact =
        payload_complete &&
        nn::crc32(payload.data(), payload.size()) == expected_crc;

    if (tag == kSectionModel) {
      if (models_read >= model_count) {
        throw std::runtime_error("load_system: more model sections than "
                                 "the header's model count");
      }
      const std::size_t model_id = models_read++;
      bool added = false;
      if (intact) {
        std::istringstream section(payload, std::ios::binary);
        try {
          system.repository.add(read_model(section, rng));
          added = true;
        } catch (const std::exception&) {
          // CRC passed but the payload would not parse; treat the slot
          // as damaged rather than aborting the boot.
        }
      }
      if (!added) {
        system.repository.add(make_placeholder_model(model_id, rng));
        system.damaged_models.push_back(model_id);
      }
      if (!payload_complete) truncated = true;
      continue;
    }

    if (!intact) {
      throw std::runtime_error("load_system: checksum mismatch in vital "
                               "section " + std::to_string(tag));
    }
    std::istringstream section(payload, std::ios::binary);
    switch (tag) {
      case kSectionSceneIndex:
        read_scene_index(section, system);
        have_index = true;
        break;
      case kSectionEncoder:
        read_encoder(section, system, rng);
        have_encoder = true;
        break;
      case kSectionDecision:
        if (!system.encoder) {
          throw std::runtime_error(
              "load_system: decision section before encoder");
        }
        read_decision(section, system, rng);
        have_decision = true;
        break;
      default:
        throw std::runtime_error("load_system: unknown section tag " +
                                 std::to_string(tag));
    }
  }

  if (!have_index || !have_encoder || !have_decision) {
    throw std::runtime_error("load_system: artifact missing a vital section");
  }
  // Models lost to tail truncation: keep the repository (and decision
  // head) at full width with quarantined placeholders.
  while (models_read < model_count) {
    const std::size_t model_id = models_read++;
    system.repository.add(make_placeholder_model(model_id, rng));
    system.damaged_models.push_back(model_id);
  }
  if (!system.damaged_models.empty() &&
      system.damaged_models.size() >= system.repository.size()) {
    throw std::runtime_error(
        "load_system: every model section was damaged");
  }
}

}  // namespace

void save_system(AnoleSystem& system, std::ostream& out) {
  if (!system.encoder || !system.decision) {
    throw std::runtime_error("save_system: incomplete system");
  }
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kArtifactVersion);
  const auto model_count =
      static_cast<std::uint32_t>(system.repository.size());
  write_pod(out, model_count);
  write_pod(out, static_cast<std::uint32_t>(model_count + 3));  // sections
  write_section(out, kSectionSceneIndex,
                [&](std::ostream& s) { write_scene_index(s, system); });
  write_section(out, kSectionEncoder,
                [&](std::ostream& s) { write_encoder(s, system); });
  write_section(out, kSectionDecision,
                [&](std::ostream& s) { write_decision(s, system); });
  for (std::uint32_t m = 0; m < model_count; ++m) {
    write_section(out, kSectionModel, [&](std::ostream& s) {
      write_model(s, system.repository.model(m));
    });
  }
  if (!out) throw std::runtime_error("save_system: write failed");
}

AnoleSystem load_system(std::istream& in, fault::FaultInjector* faults) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("load_system: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kArtifactVersion) {
    throw std::runtime_error("load_system: unsupported artifact version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kArtifactVersion) + ")");
  }

  AnoleSystem system;
  // Weights are overwritten after construction, so the init RNG seed is
  // irrelevant; a fixed seed keeps loading deterministic anyway.
  Rng rng(0xA401EULL);
  load_sections(in, system, faults, rng);
  return system;
}

void save_system_to_file(AnoleSystem& system, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_system(system, out);
}

AnoleSystem load_system_from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_system(in);
}

std::uint64_t system_artifact_bytes(AnoleSystem& system) {
  std::ostringstream out(std::ios::binary);
  save_system(system, out);
  return out.str().size();
}

}  // namespace anole::core
