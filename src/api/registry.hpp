/// \file registry.hpp
/// \brief The method registry: the one map from table names ("MARIOH",
/// "CFinder", ...) to `Reconstructor` factories and their metadata.
///
/// The roster is one explicit table, `builtin_methods.cpp`, with a row of
/// `{MethodInfo, factory}` per method; each implementation TU exports its
/// plain factory function. `Global()` builds the registry from that table
/// once, and it is immutable afterwards, so lookups need no lock. Lookups
/// of unknown names return a `Status` that lists the known methods
/// instead of aborting, which is what lets `marioh_cli` and the serving
/// front ends report bad requests and keep running.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/method.hpp"
#include "api/status.hpp"

namespace marioh::api {

/// Static metadata describing a registered method.
struct MethodInfo {
  std::string name;     ///< table name, unique registry key
  std::string summary;  ///< one-line description for --list-methods
  bool supervised = false;  ///< consumes the source pair in Train
  /// Meaningful in the multiplicity-preserved (Table III) setting.
  bool multiplicity_aware = false;
  int table2_order = -1;  ///< row position in Table II (-1: not listed)
  int table3_order = -1;  ///< row position in Table III (-1: not listed)
};

/// One row of the method roster.
struct MethodEntry {
  MethodInfo info;
  MethodFactory factory = nullptr;
};

/// Name → factory + metadata map, immutable after construction. Normally
/// used through the process-wide `Global()` instance.
class MethodRegistry {
 public:
  /// The process-wide registry, built from the in-tree roster table
  /// (defined in builtin_methods.cpp).
  static const MethodRegistry& Global();

  /// Builds a registry from `rows`. A duplicate or empty name, or a null
  /// factory, is a programming error and fails a check.
  explicit MethodRegistry(std::vector<MethodEntry> rows);

  /// Instantiates `name`, or kNotFound listing the known methods. A
  /// factory error comes back with the method's name prefixed.
  StatusOr<std::unique_ptr<Reconstructor>> Create(
      const std::string& name, const MethodConfig& config) const;

  /// Metadata for `name`, or kNotFound listing the known methods.
  StatusOr<MethodInfo> Info(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// All registered metadata, sorted by name.
  std::vector<MethodInfo> Methods() const;

 private:
  Status UnknownMethod(const std::string& name) const;

  std::map<std::string, MethodEntry> entries_;
};

/// The Table II method roster, in row order (from registry metadata).
std::vector<std::string> Table2Roster();

/// The Table III roster (methods applicable to multiplicity-preserved
/// reconstruction), in row order.
std::vector<std::string> Table3Roster();

/// Convenience for benches and tests running the fixed paper rosters:
/// creates the method or dies with a check failure. User-facing code
/// paths must use `MethodRegistry::Create` (or `Session`) instead.
std::unique_ptr<Reconstructor> MustCreateMethod(const std::string& name,
                                                uint64_t seed);

/// Typed consumption of `MethodConfig::overrides` inside a factory: call
/// `Get` once per supported key, then `Finish` to fail on unknown keys or
/// unparsable values. Values parse strictly (`util/parse.hpp`): the whole
/// token must be one finite number, and unsigned keys take digits only.
class OverrideReader {
 public:
  explicit OverrideReader(const MethodConfig& config);

  void Get(const std::string& key, double* out);
  // Both unsigned widths so that uint64_t and size_t bind on every
  // platform (they are different underlying types on e.g. macOS).
  void Get(const std::string& key, unsigned long* out);       // NOLINT
  void Get(const std::string& key, unsigned long long* out);  // NOLINT

  /// kInvalidArgument naming the offending key (and the supported keys)
  /// if any override was left unconsumed or failed to parse; OK
  /// otherwise.
  Status Finish() const;

 private:
  const std::string* Find(const std::string& key);
  /// Records the first bad value; later errors keep the first.
  void BadValue(const std::string& key, const std::string& value);

  const MethodConfig& config_;
  std::vector<bool> consumed_;
  std::vector<std::string> known_keys_;
  std::string first_error_;
};

}  // namespace marioh::api
