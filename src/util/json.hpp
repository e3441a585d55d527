// Minimal streaming JSON writer for the benchmark harness's BENCH_*.json
// files: one root object, nested objects, and typed fields written in
// call order, pretty-printed two spaces per level. Each number field
// carries its own fixed decimal count, so a file's precision is stated
// where the field is written; 64-bit hashes print as 16 lowercase hex
// digits in quotes. Keys and string values are escaped (`"`, `\`, and
// control characters as \u00XX).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace anole {

class JsonWriter {
 public:
  /// Opens the root object.
  JsonWriter();

  /// Opens a nested object under `key`; close it with end_object().
  JsonWriter& begin_object(std::string_view key);
  /// Closes the innermost nested object. The root closes in finish().
  JsonWriter& end_object();

  JsonWriter& string(std::string_view key, std::string_view value);
  JsonWriter& boolean(std::string_view key, bool value);
  JsonWriter& integer(std::string_view key, std::uint64_t value);
  /// `value` with exactly `decimals` digits after the point (0..17);
  /// a non-finite value writes null.
  JsonWriter& number(std::string_view key, double value, int decimals);
  /// `value` as a quoted 16-digit lowercase hex string.
  JsonWriter& hash(std::string_view key, std::uint64_t value);

  /// Closes the root object and returns the document, newline-terminated.
  /// Every nested object must be closed; the writer is spent afterwards.
  std::string finish();

 private:
  /// Writes the next entry of the current object: separator, indent,
  /// key, and the already-formatted `text`.
  JsonWriter& raw(std::string_view name, std::string_view text);

  std::string out_;
  std::size_t depth_ = 1;
  /// True until the current object's first entry is written.
  bool empty_ = true;
};

}  // namespace anole
