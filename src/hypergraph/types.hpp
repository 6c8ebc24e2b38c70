/// \file types.hpp
/// \brief Fundamental identifiers and the canonical hyperedge
/// representation shared by every subsystem.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace marioh {

/// Dense node identifier. Nodes of an n-node (hyper)graph are 0..n-1.
using NodeId = uint32_t;

/// A hyperedge or clique: a canonically sorted, duplicate-free set of node
/// ids. All library functions that accept a `NodeSet` require canonical
/// form; use `Canonicalize` when constructing from arbitrary input.
using NodeSet = std::vector<NodeId>;

/// Sorts and deduplicates `nodes` in place, producing canonical form.
inline void Canonicalize(NodeSet* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

/// Unordered node pair stored canonically as (min, max).
using NodePair = std::pair<NodeId, NodeId>;

/// Builds the canonical (min, max) pair.
inline NodePair MakePair(NodeId u, NodeId v) {
  return u < v ? NodePair{u, v} : NodePair{v, u};
}

}  // namespace marioh
