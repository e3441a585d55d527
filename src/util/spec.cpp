#include "util/spec.hpp"

#include <charconv>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace anole::spec {
namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  while (!text.empty() && text.back() == ' ') text.remove_suffix(1);
  return text;
}

}  // namespace

std::vector<Token> tokenize(std::string_view spec,
                            std::string_view source) {
  std::vector<Token> tokens;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view raw = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::string_view token = trim(raw);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    ANOLE_CHECK(eq != std::string_view::npos && eq > 0, source,
                ": token '", token, "' is not key=value");
    tokens.push_back(Token{trim(token.substr(0, eq)),
                           trim(token.substr(eq + 1))});
  }
  return tokens;
}

double parse_finite_double(std::string_view text, std::string_view source,
                           std::string_view what) {
  ANOLE_CHECK(!text.empty(), source, ": empty value for ", what);
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  ANOLE_CHECK(ec == std::errc{} && end == text.data() + text.size(),
              source, ": bad number '", text, "' for ", what);
  ANOLE_CHECK(std::isfinite(value), source, ": non-finite value '", text,
              "' for ", what);
  return value;
}

std::uint64_t parse_u64(std::string_view text, std::string_view source,
                        std::string_view what) {
  ANOLE_CHECK(!text.empty(), source, ": empty value for ", what);
  // from_chars on unsigned rejects '-' but a leading '+' must not sneak
  // through either: digits only.
  ANOLE_CHECK(text.find_first_not_of("0123456789") == std::string_view::npos,
              source, ": bad unsigned integer '", text, "' for ", what);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  ANOLE_CHECK(ec == std::errc{} && end == text.data() + text.size(),
              source, ": bad unsigned integer '", text, "' for ", what);
  return value;
}

Rate parse_rate(std::string_view value, std::string_view source,
                std::string_view key, double max_value) {
  Rate rate;
  std::string_view head = value;
  const std::size_t x = value.find('x');
  if (x != std::string_view::npos) {
    head = value.substr(0, x);
    rate.magnitude = parse_finite_double(value.substr(x + 1), source,
                                         "magnitude");
    ANOLE_CHECK(rate.magnitude > 0.0, source, ": magnitude for ", key,
                " must be > 0, got ", rate.magnitude);
  }
  rate.value = parse_finite_double(head, source, key);
  ANOLE_CHECK(rate.value >= 0.0 && rate.value <= max_value, source,
              ": value for ", key, " must be in [0, ", max_value,
              "], got ", rate.value);
  return rate;
}

}  // namespace anole::spec
