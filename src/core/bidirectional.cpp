#include "core/bidirectional.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "hypergraph/clique.hpp"
#include "util/check.hpp"

namespace marioh::core {
namespace {

/// A clique of the iteration's arena, addressed by index; the node data
/// stays in the `CliqueStore` until (and unless) the clique is accepted.
struct IndexedScore {
  uint32_t index;
  double score;
};

/// Sorts by score (descending when `best_first`, else ascending); ties
/// broken by the node sequence ascending for determinism — the single
/// source of the selection-order tie-break rule (the lexicographic order
/// `std::vector<NodeSet>` sorting would give), for Phase 1, the Phase 2
/// pick and the Phase 2 sub-clique order alike.
void SortByScore(const CliqueStore& store, bool best_first,
                 std::vector<IndexedScore>* cliques) {
  std::sort(cliques->begin(), cliques->end(),
            [&store, best_first](const IndexedScore& a,
                                 const IndexedScore& b) {
              if (a.score != b.score) {
                return best_first ? a.score > b.score : a.score < b.score;
              }
              CliqueView va = store[a.index];
              CliqueView vb = store[b.index];
              return std::lexicographical_compare(va.begin(), va.end(),
                                                  vb.begin(), vb.end());
            });
}

}  // namespace

BidirectionalStats BidirectionalSearch(ProjectedGraph* g,
                                       const CsrGraph& snapshot,
                                       const CliqueClassifier& classifier,
                                       const BidirectionalOptions& options,
                                       util::Rng* rng, Hypergraph* h,
                                       CarriedCliques* carried) {
  MARIOH_CHECK(classifier.trained());
  MARIOH_CHECK_EQ(snapshot.num_nodes(), g->num_nodes());
  BidirectionalStats stats;

  // Enumeration and scoring only read, so they run on the cache-friendly
  // immutable snapshot across all cores while the hash-map graph stays
  // untouched until the peel phase. Cliques live in the enumeration
  // arena end-to-end; only accepted ones materialize a NodeSet below.
  // With a carried store, the cliques untouched by the last iteration's
  // peels are carried over and only the rest are re-derived.
  CliqueOptions clique_options;
  clique_options.num_threads = options.num_threads;
  clique_options.cancel = options.cancel;
  const MaximalCliqueResult* previous =
      carried != nullptr && carried->previous ? &*carried->previous
                                              : nullptr;
  MaximalCliqueUpdate found = UpdateMaximalCliques(
      snapshot, previous,
      previous != nullptr ? std::span<const NodeId>(carried->touched)
                          : std::span<const NodeId>(),
      clique_options);
  const CliqueStore& maximal = found.result.cliques;
  stats.maximal_cliques = maximal.size();
  stats.cliques_truncated = found.result.truncated;
  if (found.result.cancelled || util::ShouldStop(options.cancel)) {
    // The clique pool is a timing-dependent subset — nothing downstream
    // may consume it (scoring or peeling it would make the output depend
    // on when the trip landed, on top of being doomed work).
    stats.cancelled = true;
    if (carried != nullptr) carried->previous.reset();
    return stats;
  }

  // Score all maximal cliques against the frozen snapshot; each score is
  // independent, so this is embarrassingly parallel and deterministic for
  // any thread count. When features read member rows only, a carried
  // clique none of whose members' rows changed has last iteration's
  // features, hence its score; every other clique is scored.
  std::vector<double> scores(maximal.size());
  std::vector<size_t> rescore;
  std::vector<char> is_touched;
  const bool reuse = previous != nullptr &&
                     classifier.extractor().ReadsOnlyMemberRows();
  if (reuse) {
    is_touched.assign(snapshot.num_nodes(), 0);
    for (NodeId u : carried->touched) is_touched[u] = 1;
  }
  for (size_t i = 0; i < maximal.size(); ++i) {
    const size_t from = found.previous_index[i];
    if (from != kNewClique) {
      ++stats.cliques_carried;
      if (reuse && std::ranges::none_of(maximal[i], [&](NodeId u) {
            return is_touched[u] != 0;
          })) {
        scores[i] = carried->scores[from];
        ++stats.scores_reused;
        continue;
      }
    }
    rescore.push_back(i);
  }
  if (rescore.size() == maximal.size()) {
    scores = classifier.ScoreAll(snapshot, maximal, /*is_maximal=*/true,
                                 options.num_threads, options.cancel);
  } else if (!rescore.empty()) {
    CliqueStore subset;
    for (size_t i : rescore) subset.PushClique(maximal[i]);
    std::vector<double> fresh =
        classifier.ScoreAll(snapshot, subset, /*is_maximal=*/true,
                            options.num_threads, options.cancel);
    for (size_t j = 0; j < rescore.size(); ++j) scores[rescore[j]] = fresh[j];
  }
  if (util::ShouldStop(options.cancel)) {
    stats.cancelled = true;
    if (carried != nullptr) carried->previous.reset();
    return stats;
  }
  std::vector<IndexedScore> pos, rest;
  for (size_t i = 0; i < maximal.size(); ++i) {
    IndexedScore entry{static_cast<uint32_t>(i), scores[i]};
    if (scores[i] > options.theta) {
      pos.push_back(entry);
    } else {
      rest.push_back(entry);
    }
  }

  // Applies a candidate as a hyperedge if all its edges still exist in
  // `g`: adds it to `h` and peels one unit of weight from each clique
  // edge, recording the members as touched rows.
  auto try_apply = [&](CliqueView clique) {
    if (!g->IsClique(clique)) return false;
    h->AddEdge(NodeSet(clique.begin(), clique.end()), 1);
    g->PeelClique(clique);
    stats.touched_nodes.insert(stats.touched_nodes.end(), clique.begin(),
                               clique.end());
    return true;
  };

  // Phase 1: most promising cliques, best first, re-validated against the
  // shrinking graph. The peel loop polls the token per clique: stopping
  // early only leaves accepted hyperedges behind, which the cancelled
  // run discards wholesale anyway.
  util::CancelChecker cancel_check(options.cancel);
  SortByScore(maximal, /*best_first=*/true, &pos);
  for (const IndexedScore& sc : pos) {
    if (cancel_check.ShouldStop()) {
      stats.cancelled = true;
      break;
    }
    if (try_apply(maximal[sc.index])) ++stats.accepted_phase1;
  }

  if (!stats.cancelled && options.explore_subcliques && !rest.empty()) {
    // Phase 2: the lowest-r% scored cliques among the non-promising ones.
    SortByScore(maximal, /*best_first=*/false, &rest);
    size_t take = static_cast<size_t>(std::ceil(
        options.r_percent / 100.0 * static_cast<double>(rest.size())));
    take = std::min(take, rest.size());

    // Phase 2 scores against the graph Phase 1 left behind, not the
    // iteration snapshot: sub-clique scores must see the residual weights
    // they would be applied to. Every sample is drawn first, in the order
    // a sample-then-score loop would draw it (scoring draws nothing from
    // `rng`); then all are scored in one batched, parallel pass over the
    // snapshot patched with Phase 1's peels. The patch equals a rebuild,
    // and CSR scores equal hash-map scores, so this is bit-identical to
    // scoring each sample on `*g`. If Phase 1 peeled nothing, the
    // snapshot itself is that graph.
    CliqueStore samples;
    for (size_t i = 0; i < take && !stats.cancelled; ++i) {
      CliqueView q = maximal[rest[i].index];
      // One random sample per sub-clique size k in [2, |Q|-1].
      for (size_t k = 2; k < q.size(); ++k) {
        if (cancel_check.ShouldStop()) {
          stats.cancelled = true;
          break;
        }
        NodeSet sub = rng->SampleWithoutReplacement(q, k);
        Canonicalize(&sub);
        samples.PushClique(sub);
      }
    }
    std::vector<IndexedScore> subs;
    if (!stats.cancelled && !samples.empty()) {
      std::optional<CsrGraph> after_phase1;
      if (!stats.touched_nodes.empty()) {
        after_phase1.emplace(snapshot, *g, stats.touched_nodes,
                             options.num_threads);
      }
      std::vector<double> sub_scores = classifier.ScoreAll(
          after_phase1 ? *after_phase1 : snapshot, samples,
          /*is_maximal=*/false, options.num_threads, options.cancel);
      // A trip leaves unwritten slots: no partial score is consumed.
      if (util::ShouldStop(options.cancel)) {
        stats.cancelled = true;
      } else {
        stats.subcliques_scored = samples.size();
        for (size_t i = 0; i < samples.size(); ++i) {
          if (sub_scores[i] > options.theta) {
            subs.push_back({static_cast<uint32_t>(i), sub_scores[i]});
          }
        }
      }
    }
    SortByScore(samples, /*best_first=*/true, &subs);
    for (const IndexedScore& sc : subs) {
      if (cancel_check.ShouldStop()) {
        stats.cancelled = true;
        break;
      }
      if (try_apply(samples[sc.index])) ++stats.accepted_phase2;
    }
  }

  Canonicalize(&stats.touched_nodes);
  if (carried != nullptr) {
    if (stats.cancelled) {
      carried->previous.reset();
    } else {
      carried->previous = std::move(found.result);
      carried->scores = std::move(scores);
    }
  }
  return stats;
}

}  // namespace marioh::core
