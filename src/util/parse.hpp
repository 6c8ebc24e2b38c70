/// \file parse.hpp
/// \brief Strict, exception-free numeric parsing for untrusted text —
/// protocol tokens, CLI flags. The std::sto* family accepts trailing
/// garbage, leading whitespace, and negative values for unsigned types
/// unless every call site re-implements the same guards; these helpers
/// centralize them. A parse succeeds only if the *entire* token is one
/// well-formed number in range.

#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace marioh::util {

/// Parses a non-negative integer; rejects signs, whitespace, trailing
/// characters, and overflow.
inline std::optional<uint64_t> ParseUint64(const std::string& token) {
  if (token.empty() || token.find_first_not_of("0123456789") !=
                           std::string::npos) {
    return std::nullopt;
  }
  try {
    size_t pos = 0;
    uint64_t value = std::stoull(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Parses a non-negative int (a narrow ParseUint64).
inline std::optional<int> ParseNonNegativeInt(const std::string& token) {
  std::optional<uint64_t> value = ParseUint64(token);
  if (!value.has_value() || *value > static_cast<uint64_t>(INT32_MAX)) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

/// Parses a finite double (sign allowed); rejects whitespace, trailing
/// characters, `nan`/`inf`, and values out of double range.
inline std::optional<double> ParseDouble(const std::string& token) {
  if (token.empty() ||
      std::isspace(static_cast<unsigned char>(token.front())) != 0) {
    return std::nullopt;
  }
  try {
    size_t pos = 0;
    double value = std::stod(token, &pos);
    if (pos != token.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace marioh::util
