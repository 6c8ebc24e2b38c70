/// \file motif.hpp
/// \brief Local motif statistics (triangles, wedges, squares) around nodes
/// and edges of a projected graph — the extra signal SHyRe-Motif adds on
/// top of count features [6]. Every kernel runs on the mutable graph
/// (`ProjectedGraph`) and the CSR-snapshot (`CsrGraph`) graph with
/// bit-identical values: both keep rows sorted by id, and work caps
/// truncate neighbor lists in that ascending order. The templates are
/// instantiated for exactly those two graph types (in motif.cpp).

#pragma once

#include <cstdint>

#include "hypergraph/csr.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"

namespace marioh::core {

/// Number of triangles through the edge (u, v): |N(u) ∩ N(v)|.
template <typename Graph>
uint64_t TrianglesThroughEdge(const Graph& g, NodeId u, NodeId v);

/// Number of triangles containing node u (each counted once).
template <typename Graph>
uint64_t TrianglesAtNode(const Graph& g, NodeId u);

/// Number of wedges (paths of length 2) centered at node u:
/// C(deg(u), 2).
template <typename Graph>
uint64_t WedgesAtNode(const Graph& g, NodeId u);

/// Local clustering coefficient of node u: triangles / wedges (0 when the
/// node has fewer than two neighbors).
template <typename Graph>
double ClusteringCoefficient(const Graph& g, NodeId u);

/// Number of squares (4-cycles) through the edge (u, v): pairs (x, y) with
/// x in N(u)\{v}, y in N(v)\{u}, x != y and {x,y} an edge. Work is capped
/// by `max_neighbors` per endpoint for dense graphs; the cap keeps the
/// `max_neighbors` smallest-id neighbors on both graph types.
template <typename Graph>
uint64_t SquaresThroughEdge(const Graph& g, NodeId u, NodeId v,
                            size_t max_neighbors = 64);

}  // namespace marioh::core
