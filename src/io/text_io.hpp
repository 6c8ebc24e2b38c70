/// \file text_io.hpp
/// \brief Plain-text serialization of hypergraphs and projected graphs.
///
/// Hypergraph format (one hyperedge per line):
///   `# comment` lines and blank lines are ignored;
///   `u1 u2 ... uk [x m]` — node ids separated by spaces, an optional
///   trailing `x m` token pair sets the multiplicity (default 1).
///
/// Projected-graph format (one edge per line):
///   `u v w` — endpoints and integer weight (weight defaults to 1 when
///   omitted).
///
/// These are the de-facto formats of the public hypergraph dataset
/// releases the paper evaluates on (Benson et al. [3]), so real datasets
/// drop in directly.
///
/// The `Try*` functions are the primary API: they report unopenable files
/// and malformed lines as an `api::Status` (with the offending line
/// number) so callers like `marioh_cli` can diagnose bad input without
/// dying. Numbers are unsigned decimals: node ids must be below
/// 4294967295 (so a node count still fits a `NodeId`), and weights and
/// multiplicities at most 4294967295; anything else is kInvalidArgument.

#pragma once

#include <iosfwd>
#include <string>

#include "api/status.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"

namespace marioh::io {

/// Parses a hypergraph from a stream. kInvalidArgument on malformed lines
/// (non-numeric tokens; hyperedges with < 2 distinct nodes are skipped
/// silently to tolerate real-world dumps).
api::StatusOr<Hypergraph> TryReadHypergraph(std::istream& in);

/// Reads a hypergraph from a file. kNotFound if the file cannot be
/// opened, kInvalidArgument if it cannot be parsed.
api::StatusOr<Hypergraph> TryReadHypergraphFile(const std::string& path);

/// Writes a hypergraph to a file (deterministic order, multiplicities as
/// `x m` suffixes when > 1). kInvalidArgument if the caller-supplied
/// output path cannot be opened for writing.
api::Status TryWriteHypergraphFile(const Hypergraph& h,
                                   const std::string& path);

/// Guards the dense per-node arrays of a projected graph, which are
/// sized by the largest node id: one huge id in a small input would
/// allocate gigabytes. kInvalidArgument, naming the largest id, when
/// `num_nodes` (largest id + 1) exceeds max(2^20, 16 × `id_occurrences`),
/// the number of node ids the input lists. TryReadProjectedGraph applies
/// it; callers that project a parsed hypergraph apply the overload below
/// before `Project()`.
api::Status CheckNodeIdsAreDense(size_t num_nodes, size_t id_occurrences);

/// The same guard for a parsed hypergraph about to be projected: each
/// distinct hyperedge counts its node ids once.
api::Status CheckNodeIdsAreDense(const Hypergraph& h);

/// Parses a weighted edge list. kInvalidArgument on malformed lines and
/// on node ids too sparse for a dense graph (see CheckNodeIdsAreDense).
api::StatusOr<ProjectedGraph> TryReadProjectedGraph(std::istream& in);

/// Reads a projected graph from a file. kNotFound if the file cannot be
/// opened, kInvalidArgument if it cannot be parsed.
api::StatusOr<ProjectedGraph> TryReadProjectedGraphFile(
    const std::string& path);

/// Writes a projected graph to a file (u < v, sorted). kInvalidArgument
/// if the caller-supplied output path cannot be opened for writing.
api::Status TryWriteProjectedGraphFile(const ProjectedGraph& g,
                                       const std::string& path);

/// Stream writers (cannot fail short of stream errors, which the caller
/// owns).
void WriteHypergraph(const Hypergraph& h, std::ostream& out);
void WriteProjectedGraph(const ProjectedGraph& g, std::ostream& out);

}  // namespace marioh::io
