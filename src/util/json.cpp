#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.hpp"

namespace anole {
namespace {

/// `text` as a quoted JSON string.
std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                    static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

JsonWriter::JsonWriter() : out_("{") {}

JsonWriter& JsonWriter::raw(std::string_view name, std::string_view text) {
  ANOLE_CHECK_GE(depth_, 1u, "JsonWriter: document already finished");
  out_ += empty_ ? "\n" : ",\n";
  out_.append(2 * depth_, ' ');
  out_ += json_quote(name);
  out_ += ": ";
  out_ += text;
  empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_object(std::string_view name) {
  raw(name, "{");
  ++depth_;
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  ANOLE_CHECK_GT(depth_, 1u, "JsonWriter: no nested object is open");
  --depth_;
  if (!empty_) {
    out_ += '\n';
    out_.append(2 * depth_, ' ');
  }
  out_ += '}';
  empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view name,
                               std::string_view value) {
  return raw(name, json_quote(value));
}

JsonWriter& JsonWriter::boolean(std::string_view name, bool value) {
  return raw(name, value ? "true" : "false");
}

JsonWriter& JsonWriter::integer(std::string_view name, std::uint64_t value) {
  return raw(name, std::to_string(value));
}

JsonWriter& JsonWriter::number(std::string_view name, double value,
                               int decimals) {
  ANOLE_CHECK(decimals >= 0 && decimals <= 17,
              "JsonWriter::number: decimals out of range: ", decimals);
  if (!std::isfinite(value)) return raw(name, "null");
  char buf[352];  // DBL_MAX at 17 decimals fits
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return raw(name, buf);
}

JsonWriter& JsonWriter::hash(std::string_view name, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(value));
  return raw(name, buf);
}

std::string JsonWriter::finish() {
  ANOLE_CHECK_EQ(depth_, 1u, "JsonWriter::finish: unclosed nested object");
  depth_ = 0;
  out_ += empty_ ? "}\n" : "\n}\n";
  return std::move(out_);
}

}  // namespace anole
