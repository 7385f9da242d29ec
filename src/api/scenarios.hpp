#pragma once

// Named scenario presets: synthetic ground truths the facade can fan
// calibration runs across.
//
// A preset bundles a core::ScenarioConfig (schedules, population, horizon)
// with the engine that generates the truth realization -- including the
// agent-based model, which core::simulate_ground_truth does not cover --
// and knows how to derive the matching SimulatorSpec so a calibration
// session against that truth starts from consistent disease parameters.
//
// Built-in presets (scenarios() registry):
//   "paper-baseline"        the paper's §V-A schedule (theta 0.30/0.27/
//                           0.25/0.40, rho 0.60/0.70/0.85/0.80, days 100)
//   "sharp-jump"            regime shift at day 62 to theta 0.48 -- beyond
//                           the jitter-kernel reach, stressing the
//                           defensive mixture
//   "low-reporting"         rho stuck in the 0.35-0.45 band: weak case
//                           signal, the regime where the death stream earns
//                           its keep
//   "sharp-likelihood"      rho 0.95 flat: observed counts track the truth
//                           closely, so window likelihoods are sharp and
//                           single-stage weights degenerate -- the regime
//                           the tempered inference strategies recover
//   "chain-binomial-truth"  baseline engine generates the truth (model
//                           mis-specification when calibrating seir-event)
//   "abm-truth"             agent-based truth over a town-scale population
//                           (model-family generality, paper §VI)

#include <string>

#include "api/components.hpp"
#include "api/registry.hpp"
#include "core/scenario.hpp"

namespace epismc::api {

struct ScenarioPreset {
  /// Engine that generates the ground-truth realization. The only engine
  /// selector: make_truth() overwrites scenario.use_chain_binomial from it.
  enum class TruthEngine { kSeirEvent, kChainBinomial, kAgentBased };

  std::string name;
  std::string summary;
  core::ScenarioConfig scenario;
  TruthEngine truth_engine = TruthEngine::kSeirEvent;

  /// Agent-based truth topology (only read when truth_engine ==
  /// kAgentBased); forwarded into simulator_spec() so calibration always
  /// runs on the truth's network.
  AbmTopology abm;

  /// Simulate the preset's ground truth (observed cases are a binomial
  /// thinning of true cases under the preset's rho schedule; deaths are
  /// observed without bias), whatever the engine.
  [[nodiscard]] core::GroundTruth make_truth() const;

  /// SimulatorSpec consistent with this truth: same disease parameters,
  /// same seeding, and -- for the agent-based engine -- same topology.
  [[nodiscard]] SimulatorSpec simulator_spec(double burnin_theta = 0.3) const;
};

using ScenarioRegistry = Registry<ScenarioPreset>;

/// Global scenario-preset registry; built-ins registered on first access.
[[nodiscard]] ScenarioRegistry& scenarios();

}  // namespace epismc::api
