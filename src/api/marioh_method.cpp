// Adapter exposing core::Marioh (any ablation variant) through the common
// `api::Reconstructor` interface, and the factories for MARIOH /
// MARIOH-M / MARIOH-F / MARIOH-B.

#include "api/marioh_method.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "core/marioh.hpp"

namespace marioh::api {
namespace {

class MariohMethod : public Reconstructor {
 public:
  MariohMethod(core::MariohVariant variant, core::MariohOptions options)
      : marioh_(core::OptionsForVariant(variant, std::move(options))) {}

  void Train(const ProjectedGraph& g_source,
             const Hypergraph& h_source) override {
    marioh_.Train(g_source, h_source);
  }
  Reconstruction Reconstruct(const ProjectedGraph& g_target) const override;

 private:
  core::Marioh marioh_;
};

Reconstruction MariohMethod::Reconstruct(
    const ProjectedGraph& g_target) const {
  core::ReconstructionStats s;
  Hypergraph h = marioh_.Reconstruct(g_target, &s);
  return {
      std::move(h),
      {
          {"iterations", static_cast<double>(s.iterations)},
          {"maximal_cliques", static_cast<double>(s.maximal_cliques)},
          {"cliques_carried", static_cast<double>(s.cliques_carried)},
          {"scores_reused", static_cast<double>(s.scores_reused)},
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
          {"update_seconds", s.update_seconds},
          {"score_seconds", s.score_seconds},
          {"peel_seconds", s.peel_seconds},
          {"patch_seconds", s.patch_seconds},
      },
  };
}

/// kInvalidArgument naming the first option outside its domain, checked
/// on the final options so typed bases and string overrides are held to
/// the same rules: a non-finite theta never converges, a non-positive
/// alpha never lowers theta to the termination safeguard, and r is a
/// percentage.
Status CheckRunSettings(const core::MariohOptions& options) {
  if (!std::isfinite(options.theta_init)) {
    return Status::InvalidArgument("option 'theta_init' must be finite");
  }
  if (!std::isfinite(options.alpha) || options.alpha <= 0.0) {
    return Status::InvalidArgument(
        "option 'alpha' must be finite and > 0");
  }
  if (!(options.r_percent >= 0.0 && options.r_percent <= 100.0)) {
    return Status::InvalidArgument("option 'r_percent' must be in [0, 100]");
  }
  return Status::Ok();
}

/// Shared factory body for the four variants: typed base options (if
/// provided) + string overrides + the config seed.
StatusOr<std::unique_ptr<Reconstructor>> MakeVariant(
    core::MariohVariant variant, const MethodConfig& config) {
  core::MariohOptions options =
      config.marioh_base != nullptr ? *config.marioh_base
                                    : core::MariohOptions{};
  OverrideReader reader(config);
  reader.Get("theta_init", &options.theta_init);
  reader.Get("r_percent", &options.r_percent);
  reader.Get("alpha", &options.alpha);
  reader.Get("max_iterations", &options.max_iterations);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  MARIOH_RETURN_IF_ERROR(CheckRunSettings(options));
  options.seed = config.seed;
  std::unique_ptr<Reconstructor> method =
      std::make_unique<MariohMethod>(variant, std::move(options));
  return method;
}

}  // namespace

StatusOr<std::unique_ptr<Reconstructor>> MakeMarioh(
    const MethodConfig& config) {
  return MakeVariant(core::MariohVariant::kFull, config);
}

StatusOr<std::unique_ptr<Reconstructor>> MakeMariohM(
    const MethodConfig& config) {
  return MakeVariant(core::MariohVariant::kNoMulti, config);
}

StatusOr<std::unique_ptr<Reconstructor>> MakeMariohF(
    const MethodConfig& config) {
  return MakeVariant(core::MariohVariant::kNoFilter, config);
}

StatusOr<std::unique_ptr<Reconstructor>> MakeMariohB(
    const MethodConfig& config) {
  return MakeVariant(core::MariohVariant::kNoBidir, config);
}

}  // namespace marioh::api
