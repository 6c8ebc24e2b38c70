#include "core/marioh.hpp"

#include <algorithm>

#include "hypergraph/clique.hpp"
#include "util/check.hpp"

namespace marioh::core {

MariohOptions OptionsForVariant(MariohVariant variant, MariohOptions base) {
  switch (variant) {
    case MariohVariant::kFull:
      break;
    case MariohVariant::kNoMulti:
      base.feature_mode = FeatureMode::kStructural;
      break;
    case MariohVariant::kNoFilter:
      base.use_filtering = false;
      break;
    case MariohVariant::kNoBidir:
      base.use_bidirectional = false;
      break;
  }
  return base;
}

Marioh::Marioh(MariohOptions options)
    : options_(options),
      classifier_(options.feature_mode, options.classifier) {}

void Marioh::Train(const ProjectedGraph& g_source,
                   const Hypergraph& h_source) {
  util::Rng rng(options_.seed);
  classifier_.Train(g_source, h_source, &rng, options_.cancel);
}

Hypergraph Marioh::Reconstruct(const ProjectedGraph& g_target,
                               ReconstructionStats* stats) const {
  ReconstructionStats unused;
  ReconstructionStats& run = stats != nullptr ? *stats : unused;
  run = {};
  // A tripped token may have interrupted Train and left no model: stop
  // at this first preemption point, flagged like any mid-run trip.
  if (util::ShouldStop(options_.cancel)) {
    run.cancelled = true;
    return Hypergraph(g_target.num_nodes());
  }
  MARIOH_CHECK(classifier_.trained());
  ProjectedGraph g = g_target;  // working copy G'
  Hypergraph h(g.num_nodes());

  // The loop owns one CSR snapshot of `g` and keeps it fresh across
  // iterations: when an iteration's peels touch at most a
  // `MariohOptions::snapshot_reuse` fraction of the nodes, the snapshot is
  // patched (only touched rows rebuilt — the common case late in a run,
  // when a phase accepts a handful of cliques); otherwise it is rebuilt
  // from scratch. Both routes yield bit-identical snapshots, so the
  // reconstruction output does not depend on the route taken.
  CsrGraph snapshot;
  auto refresh_snapshot = [&](CsrGraph prev,
                              std::span<const NodeId> touched) {
    if (touched.empty()) return prev;  // no peels: still exact
    double fraction = static_cast<double>(touched.size()) /
                      static_cast<double>(g.num_nodes());
    if (fraction <= MariohOptions::snapshot_reuse) {
      ++run.snapshot_patches;
      return CsrGraph(prev, g, touched, options_.num_threads);
    }
    ++run.snapshot_rebuilds;
    return CsrGraph(g, options_.num_threads);
  };

  if (options_.use_filtering) {
    util::Timer watch;
    CsrGraph pre_filter;
    FilteringStats fstats = Filtering(&g, &h, options_.num_threads,
                                      &pre_filter, options_.cancel);
    run.filtering_edges = fstats.edges_identified;
    if (util::ShouldStop(options_.cancel)) {
      run.cancelled = true;
      run.filtering_seconds = watch.Seconds();
      return h;
    }
    // Filtering already paid for a snapshot of the pre-filter graph;
    // reuse it for the first iteration instead of building a third.
    snapshot = refresh_snapshot(std::move(pre_filter),
                                fstats.touched_nodes);
    run.filtering_seconds = watch.Seconds();
  } else {
    snapshot = CsrGraph(g, options_.num_threads);
    ++run.snapshot_rebuilds;
  }

  util::Rng rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  double theta = options_.theta_init;
  size_t iterations = 0;
  util::Timer watch;
  // Each iteration carries its maximal cliques and their scores to the
  // next, which re-derives only what the peels in between touched.
  CarriedCliques carried;
  while (!g.Empty() && iterations < options_.max_iterations &&
         !run.cancelled) {
    BidirectionalOptions bopt;
    bopt.theta = theta;
    bopt.r_percent = options_.r_percent;
    bopt.explore_subcliques = options_.use_bidirectional;
    bopt.num_threads = options_.num_threads;
    bopt.cancel = options_.cancel;
    BidirectionalStats iteration =
        BidirectionalSearch(&g, snapshot, classifier_, bopt, &rng, &h,
                            &carried);
    run.maximal_cliques += iteration.maximal_cliques;
    run.cliques_carried += iteration.cliques_carried;
    run.scores_reused += iteration.scores_reused;
    run.accepted_phase1 += iteration.accepted_phase1;
    run.accepted_phase2 += iteration.accepted_phase2;
    run.subcliques_scored += iteration.subcliques_scored;
    run.cliques_truncated |= iteration.cliques_truncated;
    run.cancelled |= iteration.cancelled;
    theta = std::max(theta - options_.alpha * options_.theta_init, 0.0);
    ++iterations;
    std::vector<NodeId> touched = std::move(iteration.touched_nodes);
    // Termination safeguard: once theta is 0 every maximal clique scores
    // above the threshold (sigmoid output > 0), so Phase 1 must accept at
    // least one clique per iteration. If nothing was accepted anyway
    // (degenerate classifier), peel the first maximal clique in the
    // enumerator's canonical (lexicographic) order, unscored, to
    // guarantee progress. Nothing was peeled this iteration, so the
    // carried store is exactly the snapshot's enumeration.
    if (theta == 0.0 && iteration.accepted_phase1 == 0 &&
        iteration.accepted_phase2 == 0 && !g.Empty() &&
        !run.cancelled) {
      MARIOH_CHECK(carried.previous && !carried.previous->cliques.empty());
      NodeSet first = carried.previous->cliques.Materialize(0);
      h.AddEdge(first, 1);
      g.PeelClique(first);
      touched.insert(touched.end(), first.begin(), first.end());
      Canonicalize(&touched);
    }
    carried.touched = std::move(touched);
    if (!g.Empty() && iterations < options_.max_iterations &&
        !run.cancelled) {
      snapshot = refresh_snapshot(std::move(snapshot), carried.touched);
    }
  }
  run.bidirectional_seconds = watch.Seconds();
  // Catch a trip that landed after the last kernel poll (e.g. between
  // iterations, or with filtering disabled on a graph the loop never
  // entered) so callers get a consistent cancelled flag.
  run.cancelled |= util::ShouldStop(options_.cancel);
  run.iterations = iterations;
  return h;
}

}  // namespace marioh::core
