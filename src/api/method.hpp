/// \file method.hpp
/// \brief The `Reconstructor` interface every hypergraph-reconstruction
/// method implements — MARIOH, its ablation variants, and all baselines —
/// so one code path can run the paper's whole evaluation protocol, the
/// `Reconstruction` (hypergraph plus run stats) each call returns, and
/// the factory signature each implementation exports.
///
/// This is the bottom of the public `api/` layer: it depends only on the
/// `hypergraph/` data model. `core/` and `baselines/` *implement* this
/// interface (dependency inversion); they do not own it. A method's
/// identity (name, supervision, table rows) lives in exactly one place,
/// its row in `builtin_methods.cpp`; instances are normally created
/// through the method registry (`api/registry.hpp`) or the `Session`
/// façade (`api/session.hpp`), not constructed directly.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"

namespace marioh::core {
struct MariohOptions;  // typed base options, forwarded opaquely
}  // namespace marioh::core

namespace marioh::api {

/// What one Reconstruct call returns: the hypergraph and that run's named
/// counters and phase times (`*_seconds`), e.g. {"cliques_truncated", 1}
/// for a partial candidate pool. `api::Session` sums each entry into its
/// stage timer as "reconstruct.<name>", so degraded runs are visible.
struct Reconstruction {
  Hypergraph hypergraph;
  std::vector<std::pair<std::string, double>> stats = {};
};

/// A hypergraph reconstruction method. Supervised methods receive the
/// source pair through Train before Reconstruct is called; unsupervised
/// methods ignore Train. A trained instance is immutable: several threads
/// may call Reconstruct on it at once.
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Trains on the source projected graph and hypergraph. Default: no-op.
  virtual void Train(const ProjectedGraph& g_source,
                     const Hypergraph& h_source) {
    (void)g_source;
    (void)h_source;
  }

  /// Reconstructs a hypergraph from the target projected graph.
  virtual Reconstruction Reconstruct(const ProjectedGraph& g_target) const = 0;
};

/// Construction-time configuration handed to a method factory.
struct MethodConfig {
  uint64_t seed = 1;
  /// Typed base options for the MARIOH family; null means defaults.
  /// Opaque here so the interface stays below `core/` in the layering.
  const core::MariohOptions* marioh_base = nullptr;
  /// `key=value` overrides. Factories must reject unknown keys and bad
  /// values with kInvalidArgument (see OverrideReader in registry.hpp);
  /// the registry prefixes the message with the method's name.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// What each implementation TU exports, one per registered method.
using MethodFactory =
    StatusOr<std::unique_ptr<Reconstructor>> (*)(const MethodConfig&);

}  // namespace marioh::api
