// Deployment artifacts: serialize a trained AnoleSystem to a single binary
// blob and load it back.
//
// This is the paper's "download pre-trained {M_1..M_n} and M_decision to
// the device" step: the cloud-side OfflineProfiler produces an
// AnoleSystem, save_system() ships it, and the device reconstructs an
// identical system with load_system() — no training data travels, so the
// loaded repository carries no ASS frame pools (they are cloud-only).
//
// The format (DESIGN.md §9–§10) is a fixed header (magic, version 3,
// model count, section count) and a sequence of CRC-32-guarded sections.
// Vital sections (scene index, encoder, decision head) come first; one
// section per compressed model follows, so tail truncation can only
// damage models. A corrupt or truncated model section does not abort the
// load: the slot gets a placeholder detector, the model id is recorded
// in AnoleSystem::damaged_models, and the engine quarantines it
// permanently. Corruption in a vital section throws.
//
// Model and decision sections hold narrow metadata fields plus the
// precision-tagged nn::save_network payload, so fp32 layers ship as fp32
// and int8-quantized layers as int8 weights + fp16 scales (~4x fewer
// bytes on a cache miss). The encoder section is the fp32 ANOLEWTS
// parameter walk (its trunk is shared with the decision head and is
// never quantized). Loads return each network in the precision it was
// saved in; a caller that wants fp32 from a quantized artifact calls
// core::dequantize_system on the loaded system.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/engine.hpp"

namespace anole::core {

/// Writes the full system (scene index, M_scene, every compressed model
/// with its metadata, M_decision head) to `out` as one artifact, fp32 and
/// int8-quantized layers alike. Throws std::runtime_error when the
/// system is incomplete or on I/O failure.
void save_system(AnoleSystem& system, std::ostream& out);

/// Reconstructs a system from a stream written by save_system. The loaded
/// models produce bit-identical inference results; `training_frames` /
/// `validation_frames` pools are empty (deployment artifacts carry no
/// data). Models whose sections fail their checksum or end early are
/// replaced by placeholders and listed in AnoleSystem::damaged_models.
/// Throws std::runtime_error on a version other than the one
/// save_system writes, on malformed vital input, or when every model is
/// damaged. `faults` (optional, site `artifact_section`) deterministically
/// flips one bit per hit section before verification, simulating storage
/// rot; pass nullptr for a faithful load.
AnoleSystem load_system(std::istream& in,
                        fault::FaultInjector* faults = nullptr);

/// File-based wrappers.
void save_system_to_file(AnoleSystem& system, const std::string& path);
AnoleSystem load_system_from_file(const std::string& path);

/// Total artifact size in bytes (what the device must download).
std::uint64_t system_artifact_bytes(AnoleSystem& system);

}  // namespace anole::core
