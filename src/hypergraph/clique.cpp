#include "hypergraph/clique.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace marioh {

void CliqueStore::Reserve(size_t cliques, size_t nodes) {
  offsets_.reserve(cliques + 1);
  nodes_.reserve(nodes);
}

void CliqueStore::PushClique(CliqueView clique) {
  if (offsets_.empty()) offsets_.push_back(0);
  nodes_.insert(nodes_.end(), clique.begin(), clique.end());
  offsets_.push_back(nodes_.size());
}

void CliqueStore::Append(const CliqueStore& other) {
  if (other.empty()) return;
  if (offsets_.empty()) offsets_.push_back(0);
  const size_t base = nodes_.size();
  nodes_.insert(nodes_.end(), other.nodes_.begin(), other.nodes_.end());
  offsets_.reserve(offsets_.size() + other.size());
  for (size_t i = 1; i < other.offsets_.size(); ++i) {
    offsets_.push_back(base + other.offsets_[i]);
  }
}

void CliqueStore::Clear() {
  nodes_.clear();
  offsets_.clear();
}

void CliqueStore::Sort() {
  const size_t n = size();
  if (n < 2) return;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  auto view_less = [this](uint32_t a, uint32_t b) {
    CliqueView va = (*this)[a];
    CliqueView vb = (*this)[b];
    return std::lexicographical_compare(va.begin(), va.end(), vb.begin(),
                                        vb.end());
  };
  if (std::is_sorted(perm.begin(), perm.end(), view_less)) return;
  std::sort(perm.begin(), perm.end(), view_less);
  // Rebuild the arena in sorted order with one copy pass.
  std::vector<NodeId> sorted_nodes;
  sorted_nodes.reserve(nodes_.size());
  std::vector<size_t> sorted_offsets;
  sorted_offsets.reserve(offsets_.size());
  sorted_offsets.push_back(0);
  for (uint32_t i : perm) {
    CliqueView v = (*this)[i];
    sorted_nodes.insert(sorted_nodes.end(), v.begin(), v.end());
    sorted_offsets.push_back(sorted_nodes.size());
  }
  nodes_ = std::move(sorted_nodes);
  offsets_ = std::move(sorted_offsets);
}

std::vector<NodeSet> CliqueStore::ToNodeSets() const {
  std::vector<NodeSet> out;
  out.reserve(size());
  for (CliqueView v : *this) out.emplace_back(v.begin(), v.end());
  return out;
}

bool CliqueStore::operator==(const CliqueStore& other) const {
  if (size() != other.size()) return false;
  if (nodes_ != other.nodes_) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (offsets_[i + 1] - offsets_[i] !=
        other.offsets_[i + 1] - other.offsets_[i]) {
      return false;
    }
  }
  return true;
}

namespace {

/// The recursion's P and X sets shrink quickly (bounded by the
/// degeneracy), while CSR neighbor ranges can be long; when the vector
/// side is much smaller than the span, per-element binary search beats a
/// full merge scan. This ratio picks between the two.
constexpr size_t kBinarySearchRatio = 8;

/// |a ∩ b| for a sorted span and a sorted vector.
size_t IntersectionSize(std::span<const NodeId> a,
                        const std::vector<NodeId>& b) {
  size_t count = 0;
  if (b.size() * kBinarySearchRatio <= a.size()) {
    for (NodeId v : b) {
      if (std::binary_search(a.begin(), a.end(), v)) ++count;
    }
    return count;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

/// out = a ∩ b (both sorted); out stays sorted.
void IntersectInto(const std::vector<NodeId>& a, std::span<const NodeId> b,
                   std::vector<NodeId>* out) {
  out->clear();
  if (a.size() * kBinarySearchRatio <= b.size()) {
    for (NodeId v : a) {
      if (std::binary_search(b.begin(), b.end(), v)) out->push_back(v);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      out->push_back(a[i]);
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
}

/// out = a \ b (both sorted); out stays sorted.
void DifferenceInto(const std::vector<NodeId>& a, std::span<const NodeId> b,
                    std::vector<NodeId>* out) {
  out->clear();
  if (a.size() * kBinarySearchRatio <= b.size()) {
    for (NodeId v : a) {
      if (!std::binary_search(b.begin(), b.end(), v)) out->push_back(v);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < a.size()) {
    while (j < b.size() && b[j] < a[i]) ++j;
    if (j < b.size() && b[j] == a[i]) {
      ++i;
    } else {
      out->push_back(a[i]);
      ++i;
    }
  }
}

/// Per-root subproblem of the degeneracy-ordered enumeration: the
/// subgraph induced by S = N(v), relabeled to local ids 0..|S|-1 in
/// ascending global-id order. All recursion set operations then run over
/// short contiguous local adjacency rows instead of the full CSR —
/// the cache-locality trick of the fast Bron–Kerbosch implementations.
struct LocalSubgraph {
  std::vector<NodeId> globals;    ///< S, sorted; local id -> global id
  std::vector<size_t> offsets;    ///< per-local-id row offsets, size |S|+1
  std::vector<NodeId> neighbors;  ///< concatenated sorted local rows

  std::span<const NodeId> Neighbors(NodeId local) const {
    return {neighbors.data() + offsets[local],
            neighbors.data() + offsets[local + 1]};
  }

  /// Builds the induced subgraph on S = N(v) from the snapshot into the
  /// per-local-id `rows` (caller-owned scratch reused across roots),
  /// leaving `offsets`/`neighbors` untouched — call Flatten afterwards
  /// for the span-based adjacency the general recursion needs, or feed
  /// the rows straight into a bitset kernel. Each induced edge is
  /// discovered once from its smaller endpoint and mirrored into both
  /// rows (appended in ascending order on both sides, so rows stay
  /// sorted without a sort pass).
  void BuildRows(const CsrGraph& g, NodeId v,
                 std::vector<std::vector<NodeId>>* rows) {
    auto s_nodes = g.Neighbors(v);
    globals.assign(s_nodes.begin(), s_nodes.end());
    const size_t s = globals.size();
    if (rows->size() < s) rows->resize(s);
    for (size_t w = 0; w < s; ++w) (*rows)[w].clear();
    for (size_t w = 0; w < s; ++w) {
      const NodeId gw = globals[w];
      auto gn = g.Neighbors(gw);
      // Intersect globals[w+1..) with the > gw suffix of N(gw), emitting
      // local pairs (w, z). Both sides ascend.
      size_t b = static_cast<size_t>(
          std::upper_bound(gn.begin(), gn.end(), gw) - gn.begin());
      size_t a = w + 1;
      auto add = [&](size_t z) {
        (*rows)[w].push_back(static_cast<NodeId>(z));
        (*rows)[z].push_back(static_cast<NodeId>(w));
      };
      const size_t rem_a = s - a;
      const size_t rem_b = gn.size() - b;
      if (rem_a * kBinarySearchRatio <= rem_b) {
        for (; a < s; ++a) {
          if (std::binary_search(gn.begin() + b, gn.end(), globals[a])) {
            add(a);
          }
        }
      } else if (rem_b * kBinarySearchRatio <= rem_a) {
        for (size_t j = b; j < gn.size(); ++j) {
          auto it = std::lower_bound(globals.begin() + a, globals.end(),
                                     gn[j]);
          if (it != globals.end() && *it == gn[j]) {
            add(static_cast<size_t>(it - globals.begin()));
          }
        }
      } else {
        size_t j = b;
        while (a < s && j < gn.size()) {
          if (globals[a] == gn[j]) {
            add(a);
            ++a;
            ++j;
          } else if (globals[a] < gn[j]) {
            ++a;
          } else {
            ++j;
          }
        }
      }
    }
  }

  /// Concatenates the rows into the contiguous offsets/neighbors layout.
  void Flatten(const std::vector<std::vector<NodeId>>& rows) {
    const size_t s = globals.size();
    offsets.assign(s + 1, 0);
    neighbors.clear();
    for (size_t w = 0; w < s; ++w) {
      neighbors.insert(neighbors.end(), rows[w].begin(), rows[w].end());
      offsets[w + 1] = neighbors.size();
    }
  }
};

/// Depth-indexed scratch vectors for the recursion (3 per level:
/// candidates, p2, x2), reused across roots within a thread so the inner
/// loop performs no allocations after warm-up.
using BkScratch = std::vector<std::vector<NodeId>>;

/// Recursive Bron–Kerbosch with pivoting over any adjacency exposing
/// `Neighbors(id) -> sorted span`. `r` is the growing clique (unsorted;
/// the emit callback canonicalizes), `p` the candidate set and `x` the
/// excluded set, both sorted. `emit` returns false to stop enumeration
/// (emission cap reached). The caller must size `scratch` to at least
/// 3 * (max recursion depth + 1) — depth is bounded by |P ∪ X| + 1.
template <typename Adjacency, typename EmitFn>
class PivotBronKerbosch {
 public:
  PivotBronKerbosch(const Adjacency& adj, EmitFn& emit, BkScratch* scratch)
      : adj_(adj), emit_(emit), scratch_(scratch) {}

  /// Returns false once the emit callback stops enumeration.
  bool Expand(size_t depth, std::vector<NodeId>* r, std::vector<NodeId>& p,
              std::vector<NodeId>& x) {
    if (p.empty() && x.empty()) return emit_(*r);
    // Pivot: the vertex of p ∪ x with the most neighbors in p.
    NodeId pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    auto consider = [&](NodeId cand) {
      size_t cnt = IntersectionSize(adj_.Neighbors(cand), p);
      if (!have_pivot || cnt > best) {
        pivot = cand;
        best = cnt;
        have_pivot = true;
      }
    };
    for (NodeId cand : p) consider(cand);
    for (NodeId cand : x) consider(cand);

    std::vector<NodeId>& candidates = (*scratch_)[3 * depth];
    std::vector<NodeId>& p2 = (*scratch_)[3 * depth + 1];
    std::vector<NodeId>& x2 = (*scratch_)[3 * depth + 2];
    DifferenceInto(p, adj_.Neighbors(pivot), &candidates);
    for (NodeId v : candidates) {
      auto nv = adj_.Neighbors(v);
      IntersectInto(p, nv, &p2);
      IntersectInto(x, nv, &x2);
      r->push_back(v);
      bool keep = Expand(depth + 1, r, p2, x2);
      r->pop_back();
      if (!keep) return false;
      // Move v from p to x (both stay sorted).
      p.erase(std::lower_bound(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
    }
    return true;
  }

 private:
  const Adjacency& adj_;
  EmitFn& emit_;
  BkScratch* scratch_;
};

/// Bit-parallel Bron–Kerbosch over a local subgraph of at most W * 64
/// nodes: P, X and the adjacency rows are W-word bitmasks, so the pivot
/// scan, the candidate set and the per-branch P/X restriction collapse
/// into AND/ANDNOT + popcount word operations. Pivot selection iterates
/// set bits in ascending id over P then X with first-max-wins ties, and
/// candidates are visited in ascending id — exactly the order of the
/// span-based `PivotBronKerbosch` — so both kernels emit the same cliques
/// in the same sequence (the truncation-prefix determinism contract).
template <size_t W, typename EmitFn>
class BitsetBronKerbosch {
 public:
  /// `words` is caller-owned scratch reused across roots; it holds the
  /// adjacency matrix (s rows of W words) followed by the per-depth
  /// {candidates, p2, x2} mask triples.
  BitsetBronKerbosch(const std::vector<NodeId>& globals,
                     const std::vector<std::vector<NodeId>>& rows,
                     EmitFn& emit, std::vector<uint64_t>* words)
      : emit_(emit), s_(globals.size()), words_(words) {
    const size_t need = (s_ + (s_ + 2) * 3) * W;
    if (words_->size() < need) words_->resize(need);
    std::fill(words_->begin(), words_->begin() + s_ * W, 0);
    uint64_t* adj = words_->data();
    for (size_t u = 0; u < s_; ++u) {
      for (NodeId v : rows[u]) {
        adj[u * W + v / 64] |= uint64_t{1} << (v % 64);
      }
    }
  }

  /// Runs the recursion from the root state: `p`/`x` are W-word masks,
  /// `r` collects local ids. Returns false once `emit_` stopped the
  /// enumeration.
  bool Expand(size_t depth, std::vector<NodeId>* r, uint64_t* p,
              uint64_t* x) {
    const uint64_t* adj = words_->data();
    bool any = false;
    for (size_t wi = 0; wi < W; ++wi) any |= (p[wi] | x[wi]) != 0;
    if (!any) return emit_(*r);

    // Pivot: the vertex of p ∪ x with the most neighbors in p.
    size_t pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    auto consider_set = [&](const uint64_t* set) {
      for (size_t wi = 0; wi < W; ++wi) {
        uint64_t word = set[wi];
        while (word != 0) {
          size_t cand = wi * 64 + static_cast<size_t>(
                                      std::countr_zero(word));
          word &= word - 1;
          size_t cnt = 0;
          for (size_t wj = 0; wj < W; ++wj) {
            cnt += static_cast<size_t>(
                std::popcount(adj[cand * W + wj] & p[wj]));
          }
          if (!have_pivot || cnt > best) {
            pivot = cand;
            best = cnt;
            have_pivot = true;
          }
        }
      }
    };
    consider_set(p);
    consider_set(x);

    uint64_t* level = words_->data() + (s_ + depth * 3) * W;
    uint64_t* candidates = level;
    uint64_t* p2 = level + W;
    uint64_t* x2 = level + 2 * W;
    for (size_t wi = 0; wi < W; ++wi) {
      candidates[wi] = p[wi] & ~adj[pivot * W + wi];
    }
    for (size_t wi = 0; wi < W; ++wi) {
      uint64_t word = candidates[wi];
      while (word != 0) {
        size_t v = wi * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        for (size_t wj = 0; wj < W; ++wj) {
          p2[wj] = p[wj] & adj[v * W + wj];
          x2[wj] = x[wj] & adj[v * W + wj];
        }
        r->push_back(static_cast<NodeId>(v));
        bool keep = Expand(depth + 1, r, p2, x2);
        r->pop_back();
        if (!keep) return false;
        // Move v from p to x.
        p[wi] &= ~(uint64_t{1} << (v % 64));
        x[wi] |= uint64_t{1} << (v % 64);
      }
    }
    return true;
  }

 private:
  EmitFn& emit_;
  size_t s_;
  std::vector<uint64_t>* words_;
};

/// Working state of the local Bron–Kerbosch kernels, reused across one
/// thread's subproblems so the hot loop stops allocating after warm-up.
/// Every buffer is rebuilt or cleared per subproblem; the retained
/// capacity is bounded by the largest subproblem run on the thread.
struct LocalScratch {
  LocalSubgraph local;
  std::vector<std::vector<NodeId>> rows;  ///< per-local-id sorted rows
  BkScratch spans;
  std::vector<uint64_t> bits;
  std::vector<NodeId> p, x, r;
};

/// Runs pivoting Bron–Kerbosch over the local subgraph in `s`
/// (`s->local.globals` plus `s->rows`), starting with every local id w
/// with `in_p(w)` in P and the rest in X; `emit` receives each maximal
/// clique as local ids and returns false to stop. The recursion works on
/// W-word bitmasks when the subgraph has at most 512 nodes (almost
/// always; degrees are small in the peeling regime), contiguous spans
/// otherwise. Local ids ascend with global ids, so P and X stay sorted
/// (as spans) and the bit iteration visits them in the same order.
template <typename InP, typename EmitFn>
void RunLocalBronKerbosch(LocalScratch* s, InP&& in_p, EmitFn& emit) {
  const size_t n = s->local.globals.size();
  s->r.clear();
  auto run_bitset = [&]<size_t kWords>() {
    uint64_t p_mask[kWords] = {};
    uint64_t x_mask[kWords] = {};
    for (size_t w = 0; w < n; ++w) {
      uint64_t* mask = in_p(w) ? p_mask : x_mask;
      mask[w / 64] |= uint64_t{1} << (w % 64);
    }
    BitsetBronKerbosch<kWords, EmitFn> bk(s->local.globals, s->rows, emit,
                                          &s->bits);
    bk.Expand(0, &s->r, p_mask, x_mask);
  };
  if (n <= 64) {
    run_bitset.template operator()<1>();
  } else if (n <= 128) {
    run_bitset.template operator()<2>();
  } else if (n <= 256) {
    run_bitset.template operator()<4>();
  } else if (n <= 512) {
    run_bitset.template operator()<8>();
  } else {
    s->local.Flatten(s->rows);
    if (s->spans.size() < 3 * (n + 2)) s->spans.resize(3 * (n + 2));
    s->p.clear();
    s->x.clear();
    for (size_t w = 0; w < n; ++w) {
      std::vector<NodeId>& set = in_p(w) ? s->p : s->x;
      set.push_back(static_cast<NodeId>(w));
    }
    PivotBronKerbosch bk(s->local, emit, &s->spans);
    bk.Expand(0, &s->r, s->p, s->x);
  }
}

/// Reference Bron–Kerbosch over the mutable graph (sequential). The
/// growing clique is pushed/popped at the tail and sorted only on
/// emission.
class HashMapBronKerbosch {
 public:
  HashMapBronKerbosch(const ProjectedGraph& g, const CliqueOptions& options,
                      std::vector<NodeSet>* out)
      : g_(g), options_(options), out_(out) {}

  void Expand(NodeSet* r, std::vector<NodeId> p, std::vector<NodeId> x) {
    if (out_->size() >= options_.max_cliques) return;
    if (p.empty() && x.empty()) {
      out_->push_back(*r);
      std::sort(out_->back().begin(), out_->back().end());
      return;
    }
    // Pivot: the vertex of p ∪ x with the most neighbors in p.
    NodeId pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    auto consider = [&](NodeId cand) {
      size_t cnt = 0;
      for (NodeId w : p) {
        if (g_.HasEdge(cand, w)) ++cnt;
      }
      if (!have_pivot || cnt > best) {
        pivot = cand;
        best = cnt;
        have_pivot = true;
      }
    };
    for (NodeId cand : p) consider(cand);
    for (NodeId cand : x) consider(cand);

    std::vector<NodeId> candidates;
    for (NodeId v : p) {
      if (!g_.HasEdge(pivot, v)) candidates.push_back(v);
    }
    for (NodeId v : candidates) {
      std::vector<NodeId> p2, x2;
      for (NodeId w : p) {
        if (g_.HasEdge(v, w)) p2.push_back(w);
      }
      for (NodeId w : x) {
        if (g_.HasEdge(v, w)) x2.push_back(w);
      }
      r->push_back(v);
      Expand(r, std::move(p2), std::move(x2));
      r->pop_back();
      // Move v from p to x.
      p.erase(std::find(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
      if (out_->size() >= options_.max_cliques) return;
    }
  }

 private:
  const ProjectedGraph& g_;
  const CliqueOptions& options_;
  std::vector<NodeSet>* out_;
};

/// Shared degeneracy-ordering body for both graph types; both iterate
/// neighbors in ascending id order, so they give the same ordering.
template <typename Graph>
std::vector<NodeId> DegeneracyOrderingImpl(const Graph& g,
                                           size_t* degeneracy) {
  const size_t n = g.num_nodes();
  std::vector<size_t> deg(n);
  size_t max_deg = 0;
  for (NodeId u = 0; u < n; ++u) {
    deg[u] = g.Degree(u);
    max_deg = std::max(max_deg, deg[u]);
  }
  // Bucket queue keyed by current degree.
  std::vector<std::vector<NodeId>> buckets(max_deg + 1);
  for (NodeId u = 0; u < n; ++u) buckets[deg[u]].push_back(u);
  std::vector<bool> removed(n, false);
  std::vector<NodeId> order;
  order.reserve(n);
  size_t degen = 0;
  size_t cursor = 0;
  while (order.size() < n) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    MARIOH_CHECK_LT(cursor, buckets.size());
    NodeId u = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[u] || deg[u] != cursor) {
      // Stale entry; u was re-bucketed at a lower degree.
      continue;
    }
    removed[u] = true;
    order.push_back(u);
    degen = std::max(degen, cursor);
    for (NodeId v : NeighborIds(g, u)) {
      if (!removed[v] && deg[v] > 0) {
        --deg[v];
        buckets[deg[v]].push_back(v);
        if (deg[v] < cursor) cursor = deg[v];
      }
    }
  }
  if (degeneracy != nullptr) *degeneracy = degen;
  return order;
}

}  // namespace

std::vector<NodeId> DegeneracyOrdering(const ProjectedGraph& g,
                                       size_t* degeneracy) {
  return DegeneracyOrderingImpl(g, degeneracy);
}

std::vector<NodeId> DegeneracyOrdering(const CsrGraph& g,
                                       size_t* degeneracy) {
  return DegeneracyOrderingImpl(g, degeneracy);
}

MaximalCliqueResult EnumerateMaximalCliques(const CsrGraph& g,
                                            const CliqueOptions& options) {
  MaximalCliqueResult result;
  const size_t n = g.num_nodes();
  if (n == 0) return result;
  std::vector<NodeId> order = DegeneracyOrdering(g, nullptr);
  std::vector<size_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[order[i]] = i;

  // Each root is individually capped at max_cliques + 1: a root hitting
  // its cap proves the concatenated total exceeds max_cliques, without
  // cross-thread communication that would make the surviving subset
  // depend on thread timing.
  const size_t per_root_cap =
      options.max_cliques == std::numeric_limits<size_t>::max()
          ? options.max_cliques
          : options.max_cliques + 1;

  // One sub-arena per worker range instead of one slot per root: roots
  // within a range are processed sequentially in ascending root order, so
  // concatenating the range arenas in range order reproduces the exact
  // root-order clique sequence for any thread count, while emission costs
  // zero allocations per clique (only amortized arena growth).
  const size_t num_ranges = util::RangeCount(n, options.num_threads);
  std::vector<CliqueStore> sub_arenas(num_ranges);
  // Per-range cancellation flags (one slot per range, no sharing): the
  // range that observes the trip records it; any set slot flags the
  // whole result `cancelled`.
  std::vector<char> range_cancelled(num_ranges, 0);
  util::ParallelForRanges(n, options.num_threads, [&](size_t ri,
                                                      size_t begin,
                                                      size_t end) {
    CliqueStore& out = sub_arenas[ri];
    util::CancelChecker cancel_check(options.cancel);
    LocalScratch work;
    NodeSet clique_buf;
    // Running count of cliques this range has emitted. Once it alone
    // exceeds max_cliques, every later root of the range lies past the
    // global truncation point (earlier roots only add to the prefix), so
    // the remaining roots contribute nothing to the final output and can
    // be skipped. The exit depends only on this range's own contents, so
    // the surviving output stays identical for any thread count, while
    // materialized work per range is bounded by ~2 * max_cliques (the
    // last root admitted at exactly max_cliques can itself emit up to
    // per_root_cap more) instead of roots * max_cliques.
    for (size_t i = begin; i < end && out.size() <= options.max_cliques;
         ++i) {
      // Cooperative preemption point #1: between roots.
      if (cancel_check.ShouldStop()) {
        range_cancelled[ri] = 1;
        break;
      }
      NodeId v = order[i];
      if (g.Degree(v) == 0) continue;
      // The whole subproblem lives inside N(v): relabel it to a compact
      // local subgraph so the recursion works on short rows. P: neighbors
      // later in the ordering; X: earlier.
      work.local.BuildRows(g, v, &work.rows);
      const std::vector<NodeId>& globals = work.local.globals;
      const size_t root_start = out.size();
      auto emit = [&](const std::vector<NodeId>& r) {
        // Cooperative preemption point #2: between emissions, bounding a
        // trip's latency inside one root by a single emission-free
        // Bron–Kerbosch stretch.
        if (cancel_check.ShouldStop()) {
          range_cancelled[ri] = 1;
          return false;
        }
        clique_buf.clear();
        clique_buf.push_back(v);
        for (NodeId local_id : r) clique_buf.push_back(globals[local_id]);
        std::sort(clique_buf.begin(), clique_buf.end());
        out.PushClique(clique_buf);
        return out.size() - root_start < per_root_cap;
      };
      RunLocalBronKerbosch(
          &work, [&](size_t w) { return pos[globals[w]] > i; }, emit);
    }
  });

  for (char flag : range_cancelled) result.cancelled |= flag != 0;

  // Concatenate sub-arenas in range (= root) order; the global cap is
  // applied to this deterministic sequence, then the survivors are sorted.
  size_t total = 0;
  size_t total_nodes = 0;
  for (const CliqueStore& sub : sub_arenas) {
    total += sub.size();
    total_nodes += sub.total_nodes();
  }
  result.truncated = total > options.max_cliques;
  if (sub_arenas.size() == 1 && !result.truncated) {
    // Single range (the 1-thread default) under the cap: the sub-arena
    // already is the concatenation, so adopt it without a copy pass.
    result.cliques = std::move(sub_arenas.front());
  } else {
    result.cliques.Reserve(std::min(total, options.max_cliques),
                           total_nodes);
    for (const CliqueStore& sub : sub_arenas) {
      if (result.cliques.size() + sub.size() <= options.max_cliques) {
        result.cliques.Append(sub);
        continue;
      }
      for (CliqueView q : sub) {
        if (result.cliques.size() >= options.max_cliques) break;
        result.cliques.PushClique(q);
      }
      break;
    }
  }
  result.cliques.Sort();
  return result;
}

MaximalCliqueResult EnumerateMaximalCliques(const ProjectedGraph& g,
                                            const CliqueOptions& options) {
  // Enumeration reads no MHH, so this snapshot goes without the column.
  CsrGraph csr(g, options.num_threads, CsrGraph::MhhColumn::kSkip);
  return EnumerateMaximalCliques(csr, options);
}

namespace {

/// Node-indexed set that empties in O(1): a node is in it while its stamp
/// equals the current generation. Grows to the largest graph it has seen.
class NodeMark {
 public:
  /// Makes the set exactly `ids`, all below `num_nodes`.
  void Assign(std::span<const NodeId> ids, size_t num_nodes) {
    if (stamps_.size() < num_nodes) stamps_.resize(num_nodes, 0);
    if (++generation_ == 0) {  // wrapped: old stamps would match again
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
    for (NodeId v : ids) stamps_[v] = generation_;
  }
  bool Contains(NodeId v) const { return stamps_[v] == generation_; }

 private:
  std::vector<uint16_t> stamps_;  // 16 bits: wraps and refills rarely
  uint16_t generation_ = 0;
};

/// One thread's working state for the dirty-clique pass, kept across
/// calls (like ScoreAll's FeatureScratch) so the pass stops allocating
/// after warm-up. Every field is reset before each use.
struct UpdateScratch {
  LocalScratch work;
  NodeMark mark;
  std::vector<size_t> hit;           ///< positions of touched members
  std::vector<char> broken;          ///< per position: lost an edge
  /// Whole members, their common neighbors outside the clique, scratch.
  std::vector<NodeId> whole, outside, common, next;
  NodeSet clique;
};

/// Per-range output of the dirty-clique pass of UpdateMaximalCliques.
struct UpdateRange {
  std::vector<size_t> kept;  ///< previous indices kept, ascending
  CliqueStore candidates;    ///< new maximal cliques of g found in range
  bool cancelled = false;
};

}  // namespace

MaximalCliqueUpdate UpdateMaximalCliques(const CsrGraph& g,
                                         const MaximalCliqueResult* previous,
                                         std::span<const NodeId> touched,
                                         const CliqueOptions& options) {
  MaximalCliqueUpdate update;
  auto enumerate_all = [&] {
    update.result = EnumerateMaximalCliques(g, options);
    update.previous_index.assign(update.result.cliques.size(), kNewClique);
    return std::move(update);
  };
  if (previous == nullptr || previous->truncated || previous->cancelled) {
    return enumerate_all();
  }
  const CliqueStore& before = previous->cliques;
  const size_t n = g.num_nodes();
  std::vector<char> is_touched(n, 0);
  for (NodeId u : touched) is_touched[u] = 1;

  // One pass over the previous cliques: a clique none of whose touched
  // pairs lost its edge is still a maximal clique. A dirty one q
  // contributes the maximal cliques of the subgraph it induces now that
  // are maximal in g. Its members that lost no edge inside it ("whole",
  // W) are adjacent to every other member, so they belong to each of
  // those cliques, and only the "broken" members need a Bron–Kerbosch
  // run. A candidate W ∪ R is maximal in q's subgraph, so it is maximal
  // in g iff no node outside q is adjacent to all of it; W's common
  // neighbors outside q are intersected once per q.
  std::vector<UpdateRange> ranges(
      util::RangeCount(before.size(), options.num_threads));
  auto dirty_pass = [&](size_t ri, size_t begin, size_t end) {
    UpdateRange& out = ranges[ri];
    util::CancelChecker cancel_check(options.cancel);
    thread_local UpdateScratch s;
    for (size_t i = begin; i < end; ++i) {
      if (cancel_check.ShouldStop()) {
        out.cancelled = true;
        return;
      }
      CliqueView q = before[i];
      const size_t m = q.size();
      s.hit.clear();
      for (size_t a = 0; a < m; ++a) {
        if (is_touched[q[a]] != 0) s.hit.push_back(a);
      }
      // Each touched pair is tested against a mark of one end's row.
      s.broken.assign(m, 0);
      bool dirty = false;
      for (size_t a = 0; a + 1 < s.hit.size(); ++a) {
        s.mark.Assign(g.Neighbors(q[s.hit[a]]), n);
        for (size_t b = a + 1; b < s.hit.size(); ++b) {
          if (s.mark.Contains(q[s.hit[b]])) continue;
          s.broken[s.hit[a]] = s.broken[s.hit[b]] = 1;
          dirty = true;
        }
      }
      if (!dirty) {
        out.kept.push_back(i);
        continue;
      }
      std::vector<NodeId>& globals = s.work.local.globals;
      globals.clear();
      s.whole.clear();
      for (size_t a = 0; a < m; ++a) {
        (s.broken[a] != 0 ? globals : s.whole).push_back(q[a]);
      }
      if (s.work.rows.size() < m) s.work.rows.resize(m);
      for (size_t a = 0; a < globals.size(); ++a) {
        s.mark.Assign(g.Neighbors(globals[a]), n);
        s.work.rows[a].clear();
        for (NodeId b = 0; b < globals.size(); ++b) {
          if (s.mark.Contains(globals[b])) s.work.rows[a].push_back(b);
        }
      }
      s.mark.Assign(q, n);
      auto outside_row = [&](NodeId u, std::vector<NodeId>* row) {
        row->clear();
        for (NodeId v : g.Neighbors(u)) {
          if (!s.mark.Contains(v)) row->push_back(v);
        }
      };
      auto narrow = [&](std::vector<NodeId>* set, NodeId u) {
        IntersectInto(*set, g.Neighbors(u), &s.next);
        std::swap(*set, s.next);
      };
      if (!s.whole.empty()) {
        const NodeId low = *std::ranges::min_element(
            s.whole, {}, [&](NodeId u) { return g.Degree(u); });
        outside_row(low, &s.outside);
        for (NodeId u : s.whole) {
          if (u != low && !s.outside.empty()) narrow(&s.outside, u);
        }
      }
      auto emit = [&](const std::vector<NodeId>& r) {
        // A lone node is a maximal clique only once isolated, and
        // enumeration emits no isolated nodes.
        if (s.whole.size() + r.size() < 2) return true;
        size_t k = 0;
        if (s.whole.empty()) {
          outside_row(globals[r[k++]], &s.common);
        } else {
          s.common = s.outside;
        }
        while (!s.common.empty() && k < r.size()) {
          narrow(&s.common, globals[r[k++]]);
        }
        if (!s.common.empty()) return true;  // not maximal in g
        s.clique.assign(s.whole.begin(), s.whole.end());
        for (NodeId local_id : r) s.clique.push_back(globals[local_id]);
        std::sort(s.clique.begin(), s.clique.end());
        out.candidates.PushClique(s.clique);
        return true;
      };
      RunLocalBronKerbosch(&s.work, [](size_t) { return true; }, emit);
    }
  };
  util::ParallelForRanges(before.size(), options.num_threads, dirty_pass);

  CliqueStore candidates;
  size_t kept = 0;
  for (UpdateRange& range : ranges) {
    update.result.cancelled |= range.cancelled;
    kept += range.kept.size();
    candidates.Append(range.candidates);
    range.candidates = CliqueStore();  // lowers the peak of the sort below
  }
  if (update.result.cancelled) return update;

  // Two dirty cliques can yield the same new clique. None of them equals
  // a kept clique (a kept clique is in no other old maximal one).
  candidates.Sort();
  std::vector<size_t> distinct;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i == 0 || !std::ranges::equal(candidates[i], candidates[i - 1])) {
      distinct.push_back(i);
    }
  }
  if (kept + distinct.size() > options.max_cliques) return enumerate_all();

  // Merge the kept cliques (ascending, as `before` is sorted) with the
  // new ones in canonical order.
  CliqueStore& out = update.result.cliques;
  out.Reserve(kept + distinct.size(),
              before.total_nodes() + candidates.total_nodes());
  update.previous_index.reserve(kept + distinct.size());
  size_t next_new = 0;
  auto push_new_below = [&](CliqueView limit, bool bounded) {
    for (; next_new < distinct.size(); ++next_new) {
      CliqueView c = candidates[distinct[next_new]];
      if (bounded && !std::ranges::lexicographical_compare(c, limit)) return;
      out.PushClique(c);
      update.previous_index.push_back(kNewClique);
    }
  };
  for (const UpdateRange& range : ranges) {
    for (size_t i : range.kept) {
      push_new_below(before[i], /*bounded=*/true);
      out.PushClique(before[i]);
      update.previous_index.push_back(i);
    }
  }
  push_new_below({}, /*bounded=*/false);
  return update;
}

std::vector<NodeSet> MaximalCliquesHashMapReference(
    const ProjectedGraph& g, const CliqueOptions& options) {
  std::vector<NodeSet> out;
  const size_t n = g.num_nodes();
  if (n == 0) return out;
  std::vector<NodeId> order = DegeneracyOrdering(g, nullptr);
  std::vector<size_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[order[i]] = i;

  HashMapBronKerbosch bk(g, options, &out);
  for (size_t i = 0; i < n; ++i) {
    NodeId v = order[i];
    if (g.Degree(v) == 0) continue;
    // Rows ascend, so p and x come out sorted.
    std::vector<NodeId> p, x;
    for (NodeId w : NeighborIds(g, v)) {
      if (pos[w] > i) {
        p.push_back(w);
      } else {
        x.push_back(w);
      }
    }
    NodeSet r = {v};
    bk.Expand(&r, std::move(p), std::move(x));
    if (out.size() >= options.max_cliques) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace marioh
