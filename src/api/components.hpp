#pragma once

// The global component registries of the epismc::api facade.
//
// Five registries cover the pluggable pieces of a calibration run:
//
//   simulators()      "seir-event" | "chain-binomial" | "abm" ("agent-based")
//   likelihoods()     "gaussian-sqrt" | "nb-sqrt" | "poisson" | "gaussian-count"
//   bias_models()     "binomial" | "identity" | "deterministic-thinning"
//   jitter_policies() "paper-default" | "tight" | "wide"
//   inference_strategies()
//                     "single-stage" | "tempered" | "tempered+rejuvenate"
//
// The likelihood and bias registries are the single source of truth:
// core::make_likelihood / core::make_bias_model delegate here, so a
// component registered once is reachable from CalibrationConfig names,
// CLI flags, and direct api calls alike. Simulators get the same factory
// treatment (they previously had none): every backend is constructed from
// a common SimulatorSpec, so swapping "seir-event" for "abm" is a string
// change, which is the paper's "applies equally well to other stochastic
// simulation models" claim turned into an interface.

#include <cstdint>
#include <memory>

#include "abm/agent_model.hpp"
#include "api/registry.hpp"
#include "core/bias_model.hpp"
#include "core/likelihood.hpp"
#include "core/particle_system.hpp"
#include "core/prior.hpp"
#include "core/simulator.hpp"
#include "epi/parameters.hpp"

namespace epismc::api {

/// Agent-based-model knobs (two-level mixing topology plus the day-step
/// engine); shared between SimulatorSpec and ScenarioPreset so the
/// calibration setup and the truth-generation setup cannot silently
/// diverge. Defaults come from abm::AbmConfig itself, so retuning the abm
/// layer propagates here.
struct AbmTopology {
  double mean_household_size = abm::AbmConfig{}.mean_household_size;
  double household_share = abm::AbmConfig{}.household_share;
  std::uint64_t network_seed = abm::AbmConfig{}.network_seed;
  /// Day-step engine: "fast" (event-driven, default) or "reference" (the
  /// original per-agent scans, kept selectable for A/B equivalence runs);
  /// see abm::AbmEngine.
  abm::AbmEngine engine = abm::AbmConfig{}.engine;
};

/// Backend-agnostic simulator construction parameters. Compartmental
/// backends read params/burnin_theta/initial_exposed; the agent-based
/// backend additionally reads the topology knobs.
struct SimulatorSpec {
  epi::DiseaseParameters params;
  double burnin_theta = 0.3;           // transmission during shared burn-in
  std::int64_t initial_exposed = 400;  // seeding at day 0
  AbmTopology abm;  // ignored by the compartmental backends
};

/// The one mapping from (disease parameters, topology) to the abm layer's
/// config -- used by both the "abm" simulator factory and the agent-based
/// truth generator, so calibration and truth always share a network.
[[nodiscard]] inline abm::AbmConfig make_abm_config(
    const epi::DiseaseParameters& params, const AbmTopology& topology) {
  abm::AbmConfig cfg;
  cfg.disease = params;
  cfg.mean_household_size = topology.mean_household_size;
  cfg.household_share = topology.household_share;
  cfg.network_seed = topology.network_seed;
  cfg.engine = topology.engine;
  return cfg;
}

/// Posterior-jitter kernels for both calibrated parameters -- the window
/// m > 1 proposal (paper §IV-C), selectable by name.
struct JitterPolicy {
  core::JitterKernel theta;
  core::JitterKernel rho;
};

using SimulatorRegistry =
    Registry<std::unique_ptr<core::Simulator>, const SimulatorSpec&>;
using LikelihoodRegistry = Registry<std::unique_ptr<core::Likelihood>, double>;
using BiasModelRegistry = Registry<std::unique_ptr<core::BiasModel>>;
using JitterRegistry = Registry<JitterPolicy>;
using InferenceRegistry = Registry<core::InferenceStrategy>;

/// Global registries; built-ins are registered on first access. Safe for
/// concurrent create()/contains() once registration has finished.
[[nodiscard]] SimulatorRegistry& simulators();
[[nodiscard]] LikelihoodRegistry& likelihoods();
[[nodiscard]] BiasModelRegistry& bias_models();
[[nodiscard]] JitterRegistry& jitter_policies();
[[nodiscard]] InferenceRegistry& inference_strategies();

}  // namespace epismc::api
