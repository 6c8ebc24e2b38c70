/// \file clique.hpp
/// \brief Maximal-clique enumeration (Bron–Kerbosch with pivoting over a
/// degeneracy ordering) — the candidate generator shared by MARIOH and all
/// clique-based baselines, so comparisons are apples-to-apples as in the
/// paper ("the same maximal clique detection algorithm was used across all
/// methods").
///
/// The fast path runs on an immutable `CsrGraph` snapshot: the outer
/// degeneracy-ordered roots are independent subproblems fanned out with
/// `util::ParallelForRanges`, each range appending its cliques to its own
/// `CliqueStore` sub-arena. Sub-arenas are concatenated in root
/// order and the result sorted, so the output is identical for any thread
/// count (the determinism contract of docs/ARCHITECTURE.md). Cliques live
/// in one flat arena — enumeration performs no per-clique allocation, and
/// consumers read them as `CliqueView` spans.

#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "hypergraph/csr.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"
#include "util/cancel.hpp"

namespace marioh {

/// A read-only view of one clique stored in a `CliqueStore`: a canonically
/// sorted span of node ids, valid as long as the owning store is alive and
/// unmodified.
using CliqueView = std::span<const NodeId>;

/// Flat arena of cliques: one contiguous `NodeId` buffer plus an offsets
/// array. Appending never allocates per clique (only amortized buffer
/// growth), and cliques are handed out as `CliqueView` spans — the storage
/// layout the hot path (enumeration → feature extraction → scoring →
/// selection) runs on end-to-end. Only cliques that are *accepted* as
/// hyperedges ever materialize an owning `NodeSet`.
class CliqueStore {
 public:
  CliqueStore() = default;

  /// Number of cliques stored.
  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  bool empty() const { return size() == 0; }

  /// Total node ids across all cliques (the arena length).
  size_t total_nodes() const { return nodes_.size(); }

  /// View of clique `i` (canonical order, as appended).
  CliqueView operator[](size_t i) const {
    return {nodes_.data() + offsets_[i], nodes_.data() + offsets_[i + 1]};
  }

  /// Pre-allocates room for `cliques` cliques totalling `nodes` node ids.
  void Reserve(size_t cliques, size_t nodes);

  /// Appends one clique (must already be canonically sorted).
  void PushClique(CliqueView clique);

  /// Appends every clique of `other` in order (bulk copy).
  void Append(const CliqueStore& other);

  /// Removes all cliques; keeps the arena capacity for reuse.
  void Clear();

  /// Sorts the cliques lexicographically (the canonical order of
  /// `std::vector<NodeSet>` sorting), rebuilding the arena in sorted
  /// order.
  void Sort();

  /// Owning copy of clique `i`.
  NodeSet Materialize(size_t i) const {
    CliqueView v = (*this)[i];
    return NodeSet(v.begin(), v.end());
  }

  /// Copy-out to the legacy representation (one heap allocation per
  /// clique); for consumers that need owning sets, e.g. hash-set
  /// membership oracles. Hot-path code should iterate views instead.
  std::vector<NodeSet> ToNodeSets() const;

  /// Forward iterator over `CliqueView`s, enabling range-for.
  class ConstIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CliqueView;
    using difference_type = std::ptrdiff_t;
    using pointer = const CliqueView*;
    using reference = CliqueView;

    ConstIterator(const CliqueStore* store, size_t index)
        : store_(store), index_(index) {}
    CliqueView operator*() const { return (*store_)[index_]; }
    ConstIterator& operator++() {
      ++index_;
      return *this;
    }
    ConstIterator operator++(int) {
      ConstIterator tmp = *this;
      ++index_;
      return tmp;
    }
    bool operator==(const ConstIterator& other) const = default;

   private:
    const CliqueStore* store_;
    size_t index_;
  };

  ConstIterator begin() const { return {this, 0}; }
  ConstIterator end() const { return {this, size()}; }

  /// Two stores are equal iff they hold the same cliques in the same
  /// order.
  bool operator==(const CliqueStore& other) const;

 private:
  std::vector<NodeId> nodes_;    ///< concatenated clique members
  std::vector<size_t> offsets_;  ///< clique i spans [offsets_[i], offsets_[i+1])
};

/// Options for maximal-clique enumeration.
struct CliqueOptions {
  /// Hard cap on the number of cliques emitted (guards pathological
  /// inputs); enumeration stops once reached and the result is flagged
  /// truncated.
  size_t max_cliques = 5'000'000;
  /// Threads for the per-root fan-out (0 = all cores). Output is
  /// identical for any value.
  int num_threads = 1;
  /// Cooperative stop signal, polled at every root and at every emission
  /// (so a trip lands within one inter-emission Bron–Kerbosch stretch).
  /// Null = non-cancellable. An untriggered token changes nothing; a
  /// tripped one stops each worker range early and flags the result
  /// `cancelled` — the output is then partial and must be discarded.
  const util::CancelToken* cancel = nullptr;
};

/// Result of a maximal-clique enumeration.
struct MaximalCliqueResult {
  /// All maximal cliques, lexicographically sorted, in one flat arena.
  CliqueStore cliques;
  /// True if `max_cliques` capped the output — `cliques` is then a
  /// partial set and callers relying on completeness must not proceed
  /// silently (api::Session surfaces this in its stage stats).
  bool truncated = false;
  /// True if `CliqueOptions::cancel` tripped mid-enumeration — `cliques`
  /// is then partial in a *non-deterministic* way (which roots finished
  /// depends on when the trip landed) and must be discarded, never
  /// scored or applied.
  bool cancelled = false;
};

/// Enumerates all maximal cliques of the snapshot `g` using Bron–Kerbosch
/// with pivoting; the outer recursion level follows a degeneracy ordering,
/// giving O(d * n * 3^(d/3)) time for a graph of degeneracy d. Per-root
/// subproblems run in parallel (options.num_threads) with deterministic
/// output. When truncation hits, each root is individually capped at
/// max_cliques + 1 emissions and each range of roots stops once that
/// range alone exceeds the cap, so worst-case materialized work is
/// bounded by ~2 * max_cliques per range — at most
/// util::RangeCount(num_nodes, num_threads) ranges, 8 per thread above
/// one — without cross-thread coordination that would break
/// determinism.
MaximalCliqueResult EnumerateMaximalCliques(const CsrGraph& g,
                                            const CliqueOptions& options = {});

/// `UpdateMaximalCliques`' mark for an output clique that was not in the
/// previous store.
inline constexpr size_t kNewClique = static_cast<size_t>(-1);

/// Result of `UpdateMaximalCliques`: what `EnumerateMaximalCliques` would
/// return, plus where each output clique came from.
struct MaximalCliqueUpdate {
  MaximalCliqueResult result;
  /// previous_index[i] is output clique i's index in the previous store,
  /// or kNewClique (always, when the update fell back to enumeration).
  std::vector<size_t> previous_index;
};

/// Maximal cliques of `g` derived from `previous`, the complete sorted
/// enumeration of an earlier graph on the same nodes that had every edge
/// of `g` — the peeling loop's case, where edges only disappear.
/// `touched` (sorted) holds every node whose row changed since, so every
/// lost edge has both endpoints in it. A previous clique none of whose
/// touched pairs lost its edge is still maximal (kept). Every other
/// maximal clique of `g` lies inside a previous clique that lost an edge
/// (Stix 2004; Das, Svendsen & Tirthapura 2019) and is maximal in the
/// subgraph it induces: each dirty clique yields the maximal cliques of
/// its subgraph that no node outside it extends, deduplicated and merged
/// with the kept ones. The pass over the previous cliques runs on
/// `util::ParallelForRanges`, combined in range order.
///
/// `result` equals `EnumerateMaximalCliques(g, options)` bit for bit, for
/// any thread count. It is that call (every clique new) when `previous`
/// is null, truncated or cancelled, or when the update would exceed
/// `options.max_cliques`. A tripped `options.cancel` flags the result
/// cancelled, as enumeration does.
MaximalCliqueUpdate UpdateMaximalCliques(const CsrGraph& g,
                                         const MaximalCliqueResult* previous,
                                         std::span<const NodeId> touched,
                                         const CliqueOptions& options = {});

/// Convenience: snapshots `g` and enumerates on the CSR fast path.
MaximalCliqueResult EnumerateMaximalCliques(const ProjectedGraph& g,
                                            const CliqueOptions& options = {});

/// Reference enumeration over the mutable `ProjectedGraph` (no snapshot),
/// sequential, testing adjacency pair by pair; the name dates from when
/// that graph's rows were hash maps. Kept as the equivalence-test oracle
/// and the reference side of the enumeration microbenchmarks; produces
/// the same sorted clique set as the CSR fast path (up to which subset
/// survives truncation).
std::vector<NodeSet> MaximalCliquesHashMapReference(
    const ProjectedGraph& g, const CliqueOptions& options = {});

/// Degeneracy ordering of `g`: repeatedly removes a minimum-degree node.
/// Returns the removal order; `degeneracy` (optional) receives the graph
/// degeneracy.
std::vector<NodeId> DegeneracyOrdering(const ProjectedGraph& g,
                                       size_t* degeneracy = nullptr);

/// Degeneracy ordering computed on a CSR snapshot.
std::vector<NodeId> DegeneracyOrdering(const CsrGraph& g,
                                       size_t* degeneracy = nullptr);

}  // namespace marioh
