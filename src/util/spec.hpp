// Shared parser for the comma-separated "key=value" spec grammars used by
// the deterministic injection layers (ANOLE_FAULTS, the scenario spec).
//
// Both grammars read identically: comma-separated `key=value` tokens,
// where a value is a rate (a probability/intensity, optionally followed
// by `x<magnitude>`) or, for the reserved key `seed`, an unsigned
// integer. Every malformed token — missing '=', empty key, a number with
// trailing garbage, a non-finite or out-of-range value, a negative seed —
// fails fast with a ContractViolation naming the spec's source and the
// offending token, instead of being silently ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace anole::spec {

/// One `key=value` token of a spec string.
struct Token {
  std::string_view key;
  std::string_view value;
};

/// A parsed `<p>` or `<p>x<mag>` value.
struct Rate {
  double value = 0.0;
  double magnitude = 1.0;
};

/// Splits `spec` into trimmed key=value tokens (empty tokens between
/// consecutive commas are skipped). `source` names the spec in
/// diagnostics. Throws ContractViolation on a token without '=' or with
/// an empty key.
std::vector<Token> tokenize(std::string_view spec, std::string_view source);

/// Parses a finite double; `what` names the value in diagnostics.
/// Rejects empty text, trailing garbage, NaN, and infinities.
double parse_finite_double(std::string_view text, std::string_view source,
                           std::string_view what);

/// Parses a base-10 unsigned integer (digits only; no sign, no garbage).
std::uint64_t parse_u64(std::string_view text, std::string_view source,
                        std::string_view what);

/// Parses `<p>` or `<p>x<mag>`: `p` must be a finite double in
/// [0, `max_value`], `mag` (default 1) must be finite and > 0. `key`
/// names the token in diagnostics.
Rate parse_rate(std::string_view value, std::string_view source,
                std::string_view key, double max_value = 1.0);

}  // namespace anole::spec
