// Adapter exposing core::Marioh (any ablation variant) through the common
// `api::Reconstructor` interface, and the registry entries for MARIOH /
// MARIOH-M / MARIOH-F / MARIOH-B.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/method.hpp"
#include "api/registry.hpp"
#include "core/marioh.hpp"

namespace marioh::api {
namespace {

class MariohMethod : public Reconstructor {
 public:
  MariohMethod(core::MariohVariant variant, core::MariohOptions options);

  std::string Name() const override;
  bool IsSupervised() const override { return true; }
  void Train(const ProjectedGraph& g_source,
             const Hypergraph& h_source) override;
  Hypergraph Reconstruct(const ProjectedGraph& g_target) override;
  std::vector<std::pair<std::string, double>> ReconstructionStats()
      const override;

 private:
  core::MariohVariant variant_;
  core::Marioh marioh_;
};

MariohMethod::MariohMethod(core::MariohVariant variant,
                           core::MariohOptions options)
    : variant_(variant),
      marioh_(core::OptionsForVariant(variant, std::move(options))) {}

std::string MariohMethod::Name() const {
  switch (variant_) {
    case core::MariohVariant::kFull:
      return "MARIOH";
    case core::MariohVariant::kNoMulti:
      return "MARIOH-M";
    case core::MariohVariant::kNoFilter:
      return "MARIOH-F";
    case core::MariohVariant::kNoBidir:
      return "MARIOH-B";
  }
  return "MARIOH";
}

void MariohMethod::Train(const ProjectedGraph& g_source,
                         const Hypergraph& h_source) {
  marioh_.Train(g_source, h_source);
}

Hypergraph MariohMethod::Reconstruct(const ProjectedGraph& g_target) {
  return marioh_.Reconstruct(g_target);
}

std::vector<std::pair<std::string, double>>
MariohMethod::ReconstructionStats() const {
  const core::ReconstructionStats& s = marioh_.last_reconstruction_stats();
  return {
      {"iterations", static_cast<double>(s.iterations)},
      {"maximal_cliques", static_cast<double>(s.maximal_cliques)},
      {"accepted_phase1", static_cast<double>(s.accepted_phase1)},
      {"accepted_phase2", static_cast<double>(s.accepted_phase2)},
      {"subcliques_scored", static_cast<double>(s.subcliques_scored)},
      {"filtering_edges", static_cast<double>(s.filtering_edges)},
      {"snapshot_patches", static_cast<double>(s.snapshot_patches)},
      {"snapshot_rebuilds", static_cast<double>(s.snapshot_rebuilds)},
      {"cliques_truncated", s.cliques_truncated ? 1.0 : 0.0},
      {"cancelled", s.cancelled ? 1.0 : 0.0},
      {"filtering_seconds", s.filtering_seconds},
      {"bidirectional_seconds", s.bidirectional_seconds},
  };
}

/// Shared factory body for the four registered variants: typed base
/// options (if provided) + string overrides + the config seed.
StatusOr<std::unique_ptr<Reconstructor>> MakeVariant(
    core::MariohVariant variant, const std::string& name,
    const MethodConfig& config) {
  core::MariohOptions options =
      config.marioh_base != nullptr ? *config.marioh_base
                                    : core::MariohOptions{};
  OverrideReader reader(config);
  reader.Get("theta_init", &options.theta_init);
  reader.Get("r_percent", &options.r_percent);
  reader.Get("alpha", &options.alpha);
  reader.Get("max_iterations", &options.max_iterations);
  reader.Get("num_threads", &options.num_threads);
  reader.Get("snapshot_reuse", &options.snapshot_reuse);
  MARIOH_RETURN_IF_ERROR(reader.Finish(name));
  options.seed = config.seed;
  std::unique_ptr<Reconstructor> method =
      std::make_unique<MariohMethod>(variant, std::move(options));
  return method;
}

}  // namespace
}  // namespace marioh::api

MARIOH_REGISTER_METHOD(
    Marioh,
    (marioh::api::MethodInfo{
        .name = "MARIOH",
        .summary = "multiplicity-aware supervised reconstruction "
                   "(filtering + bidirectional search, the paper's full "
                   "method)",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 11,
        .table3_order = 5}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::api::MakeVariant(marioh::core::MariohVariant::kFull,
                                      "MARIOH", config);
    })

MARIOH_REGISTER_METHOD(
    MariohM,
    (marioh::api::MethodInfo{
        .name = "MARIOH-M",
        .summary = "MARIOH ablation: structural features only (no "
                   "multiplicity-aware features)",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 8,
        .table3_order = 2}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::api::MakeVariant(marioh::core::MariohVariant::kNoMulti,
                                      "MARIOH-M", config);
    })

MARIOH_REGISTER_METHOD(
    MariohF,
    (marioh::api::MethodInfo{
        .name = "MARIOH-F",
        .summary = "MARIOH ablation: no guaranteed-recovery filtering",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 9,
        .table3_order = 3}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::api::MakeVariant(marioh::core::MariohVariant::kNoFilter,
                                      "MARIOH-F", config);
    })

MARIOH_REGISTER_METHOD(
    MariohB,
    (marioh::api::MethodInfo{
        .name = "MARIOH-B",
        .summary = "MARIOH ablation: no bidirectional sub-clique search",
        .supervised = true,
        .multiplicity_aware = true,
        .table2_order = 10,
        .table3_order = 4}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::api::MakeVariant(marioh::core::MariohVariant::kNoBidir,
                                      "MARIOH-B", config);
    })
