/// \file builtin_methods.cpp
/// \brief The method roster: one `{MethodInfo, factory}` row per method,
/// in Table II row order. A method's name, supervision and table rows
/// live here and nowhere else; its TU only exports the factory.

#include "api/marioh_method.hpp"
#include "api/registry.hpp"
#include "baselines/bayesian_mdl.hpp"
#include "baselines/cfinder.hpp"
#include "baselines/clique_covering.hpp"
#include "baselines/demon.hpp"
#include "baselines/maxclique.hpp"
#include "baselines/shyre.hpp"
#include "baselines/shyre_unsup.hpp"

namespace marioh::api {

const MethodRegistry& MethodRegistry::Global() {
  static const MethodRegistry* registry = new MethodRegistry({
      {{.name = "CFinder",
        .summary = "k-clique percolation communities as hyperedges",
        .supervised = true,
        .table2_order = 0},
       &baselines::MakeCFinder},
      {{.name = "Demon",
        .summary = "local-first overlapping community detection (ego-net "
                   "label propagation)",
        .table2_order = 1},
       &baselines::MakeDemon},
      {{.name = "MaxClique",
        .summary = "every maximal clique of the projected graph becomes a "
                   "hyperedge",
        .table2_order = 2},
       &baselines::MakeMaxClique},
      {{.name = "CliqueCovering",
        .summary = "greedy edge clique cover emitted as hyperedges",
        .table2_order = 3},
       &baselines::MakeCliqueCovering},
      {{.name = "Bayesian-MDL",
        .summary = "minimum-description-length clique cover with "
                   "simulated-annealing refinement",
        .multiplicity_aware = true,
        .table2_order = 4,
        .table3_order = 0},
       &baselines::MakeBayesianMdl},
      {{.name = "SHyRe-Unsup",
        .summary = "unsupervised multiplicity-aware maximal-clique peeling",
        .multiplicity_aware = true,
        .table2_order = 5,
        .table3_order = 1},
       &baselines::MakeShyreUnsup},
      {{.name = "SHyRe-Motif",
        .summary = "supervised clique sampling + classification with "
                   "count + motif features",
        .supervised = true,
        .table2_order = 6},
       &baselines::MakeShyreMotif},
      {{.name = "SHyRe-Count",
        .summary = "supervised clique sampling + classification with "
                   "structural count features",
        .supervised = true,
        .table2_order = 7},
       &baselines::MakeShyreCount},
      {{.name = "MARIOH-M",
        .summary = "MARIOH ablation: structural features only (no "
                   "multiplicity-aware features)",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 8,
        .table3_order = 2},
       &MakeMariohM},
      {{.name = "MARIOH-F",
        .summary = "MARIOH ablation: no guaranteed-recovery filtering",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 9,
        .table3_order = 3},
       &MakeMariohF},
      {{.name = "MARIOH-B",
        .summary = "MARIOH ablation: no bidirectional sub-clique search",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 10,
        .table3_order = 4},
       &MakeMariohB},
      {{.name = "MARIOH",
        .summary = "multiplicity-aware supervised reconstruction "
                   "(filtering + bidirectional search, the paper's full "
                   "method)",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 11,
        .table3_order = 5},
       &MakeMarioh},
  });
  return *registry;
}

}  // namespace marioh::api
