// Binary (de)serialization of module parameters.
//
// Mirrors the paper's deployment flow: models are trained by the offline
// profiler ("cloud") and downloaded to the device as weight blobs; the
// device simulator charges load latency proportional to the blob size.
//
// Two formats live here:
//  - save_parameters/load_parameters: the self-describing "ANOLEWTS" blob
//    (per-parameter rank + dims headers, fp32 data). Used by the
//    artifact's encoder section and standalone weight files.
//  - save_network/load_network: the compact precision-tagged format used
//    by the artifact's model and decision sections. The architecture is NOT encoded —
//    the reader walks a same-architecture Sequential — so the only
//    framing is one precision byte per Linear layer (0 = fp32 weights +
//    bias; 1 = per-channel int8 weights + fp16 scales + fp16 bias).
//    Non-Linear parameters are stored as raw fp32 in declaration order.
//
// This header also owns the raw-byte stream helpers (write_pod/read_pod/
// try_read_pod): they are the ONLY sanctioned home for reinterpret_cast
// weight access, which scripts/anole_lint.py enforces.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "nn/module.hpp"
#include "nn/sequential.hpp"

namespace anole::nn {

/// Writes one trivially copyable value to `out` in host byte order.
template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads one trivially copyable value; throws std::runtime_error on a
/// short read.
template <typename T>
T read_pod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("read_pod: truncated stream");
  return value;
}

/// Like read_pod but returns false on a short read (EOF-tolerant; used by
/// the artifact section scanner).
template <typename T>
bool try_read_pod(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

/// Writes `size` raw bytes of `data` to `out`.
void write_bytes(std::ostream& out, const void* data, std::size_t size);

/// Reads `size` raw bytes into `data`; throws std::runtime_error on a
/// short read.
void read_bytes(std::istream& in, void* data, std::size_t size);

/// Writes all parameters of `module` to `out`. Format:
/// magic "ANOLEWTS", u32 version, u32 parameter count, then per parameter
/// u32 rank, u64 dims..., f32 data...
void save_parameters(Module& module, std::ostream& out);

/// Loads parameters into `module`. The module must already have the same
/// architecture (same parameter count and shapes); throws std::runtime_error
/// on any mismatch or malformed stream.
void load_parameters(Module& module, std::istream& in);

/// Convenience: file-based wrappers; throw std::runtime_error on I/O errors.
void save_parameters_to_file(Module& module, const std::string& path);
void load_parameters_from_file(Module& module, const std::string& path);

/// Size in bytes the serialized parameters occupy (header + payload).
std::uint64_t serialized_size_bytes(Module& module);

/// Writes `net` in the compact precision-tagged format (artifact model
/// and decision sections).
/// Quantized layers cost ~4x fewer bytes than their fp32 form.
void save_network(Sequential& net, std::ostream& out);

/// Loads a precision-tagged network into `net`, which must have the same
/// architecture the writer walked; Linear positions tagged as int8 are
/// replaced with QuantizedLinear in place. Throws std::runtime_error on a
/// malformed stream or an architecture mismatch.
void load_network(Sequential& net, std::istream& in);

/// Size in bytes save_network would emit. For an all-fp32 network this is
/// intentionally NOT serialized_size_bytes (no per-parameter headers).
std::uint64_t network_wire_bytes(Sequential& net);

/// Bytes the network costs when streamed to a device: the ANOLEWTS blob
/// size for fp32 networks and the compact precision-tagged size once any
/// layer is quantized. The fp32 figure is a few header bytes per
/// parameter above the artifact's fp32 model section; the cache byte
/// budget and the trace goldens are calibrated on it.
std::uint64_t streamed_weight_bytes(Sequential& net);

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes at `data`.
/// Chain blocks by passing the previous return value as `seed`. Used by
/// the artifact layer's per-section checksums: a CRC-32 detects every
/// single-bit flip and every burst error up to 32 bits.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace anole::nn
