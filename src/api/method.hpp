/// \file method.hpp
/// \brief The `Reconstructor` interface every hypergraph-reconstruction
/// method implements — MARIOH, its ablation variants, and all baselines —
/// so one code path can run the paper's whole evaluation protocol.
///
/// This is the bottom of the public `api/` layer: it depends only on the
/// `hypergraph/` data model. `core/` and `baselines/` *implement* this
/// interface (dependency inversion); they do not own it. Instances are
/// normally created through the method registry (`api/registry.hpp`) or
/// the `Session` façade (`api/session.hpp`), not constructed directly.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"

namespace marioh::api {

/// A hypergraph reconstruction method. Supervised methods receive the
/// source pair through Train before Reconstruct is called; unsupervised
/// methods ignore Train.
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Display name used in benchmark tables.
  virtual std::string Name() const = 0;

  /// True if the method consumes the source pair.
  virtual bool IsSupervised() const { return false; }

  /// Trains on the source projected graph and hypergraph. Default: no-op.
  virtual void Train(const ProjectedGraph& g_source,
                     const Hypergraph& h_source) {
    (void)g_source;
    (void)h_source;
  }

  /// Reconstructs a hypergraph from the target projected graph.
  virtual Hypergraph Reconstruct(const ProjectedGraph& g_target) = 0;

  /// Named counters and phase times (`*_seconds`) describing the most
  /// recent Reconstruct call — e.g. {"cliques_truncated", 1} when an
  /// enumeration cap produced a partial candidate pool. `api::Session`
  /// *accumulates* each entry into its stage timer under
  /// "reconstruct.<name>" — session-lifetime totals, exactly like the
  /// stage times themselves — so callers see degraded runs instead of a
  /// silently partial result (a nonzero
  /// reconstruct.cliques_truncated means at least one reconstruction of
  /// the session was truncated). Default: none.
  virtual std::vector<std::pair<std::string, double>> ReconstructionStats()
      const {
    return {};
  }
};

}  // namespace marioh::api
