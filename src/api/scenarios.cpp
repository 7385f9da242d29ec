#include "api/scenarios.hpp"

#include "abm/agent_model.hpp"

namespace epismc::api {

namespace {

core::GroundTruth agent_based_truth(const ScenarioPreset& preset) {
  const core::ScenarioConfig& config = preset.scenario;
  const abm::AbmConfig abm_cfg = make_abm_config(config.params, preset.abm);
  abm_cfg.validate();

  epi::PiecewiseSchedule theta(config.theta_segments);
  epi::PiecewiseSchedule rho(config.rho_segments);
  // core::ground_truth_from_model owns the truth assembly and thinning, so
  // the agent-based truth derives its randomness exactly like the
  // compartmental ones.
  return core::ground_truth_from_model(
      abm::AgentBasedModel(abm_cfg, theta, core::truth_seed(config)), config,
      theta, rho);
}

}  // namespace

core::GroundTruth ScenarioPreset::make_truth() const {
  switch (truth_engine) {
    case TruthEngine::kAgentBased:
      return agent_based_truth(*this);
    case TruthEngine::kChainBinomial: {
      core::ScenarioConfig cfg = scenario;
      cfg.use_chain_binomial = true;
      return core::simulate_ground_truth(cfg);
    }
    case TruthEngine::kSeirEvent:
    default: {
      core::ScenarioConfig cfg = scenario;
      cfg.use_chain_binomial = false;
      return core::simulate_ground_truth(cfg);
    }
  }
}

SimulatorSpec ScenarioPreset::simulator_spec(double burnin_theta) const {
  SimulatorSpec spec;
  spec.params = scenario.params;
  spec.burnin_theta = burnin_theta;
  spec.initial_exposed = scenario.initial_exposed;
  spec.abm = abm;
  return spec;
}

ScenarioRegistry& scenarios() {
  static ScenarioRegistry registry = [] {
    ScenarioRegistry r("scenario registry");

    r.add("paper-baseline", [] {
      ScenarioPreset p;
      p.name = "paper-baseline";
      p.summary =
          "Paper §V-A: theta 0.30/0.27/0.25/0.40 and rho 0.60/0.70/0.85/0.80 "
          "switching at days 34/48/62, Chicago-scale population, 100 days";
      // ScenarioConfig defaults ARE the §V-A values.
      return p;
    });

    r.add("sharp-jump", [] {
      ScenarioPreset p;
      p.name = "sharp-jump";
      p.summary =
          "Day-62 regime shift amplified to theta 0.25 -> 0.48: a jump wider "
          "than the posterior-jitter kernel, reachable only through the "
          "defensive prior mixture";
      p.scenario.theta_segments = {{0, 0.30}, {34, 0.27}, {48, 0.25},
                                   {62, 0.48}};
      return p;
    });

    r.add("low-reporting", [] {
      ScenarioPreset p;
      p.name = "low-reporting";
      p.summary =
          "Reporting probability stuck at 0.35-0.45 for the whole epidemic: "
          "weak case signal, strong (theta, rho) ridge, death stream "
          "informative";
      p.scenario.rho_segments = {{0, 0.35}, {34, 0.40}, {48, 0.45}, {62, 0.45}};
      return p;
    });

    r.add("sharp-likelihood", [] {
      ScenarioPreset p;
      p.name = "sharp-likelihood";
      p.summary =
          "Near-complete reporting (rho 0.95 for the whole epidemic): "
          "observed counts track true cases closely, so window likelihoods "
          "are sharp relative to the jittered proposal -- the "
          "weight-degeneracy regime the adaptive (tempered) inference "
          "strategies are built for";
      p.scenario.rho_segments = {{0, 0.95}};
      return p;
    });

    r.add("chain-binomial-truth", [] {
      ScenarioPreset p;
      p.name = "chain-binomial-truth";
      p.summary =
          "Ground truth generated by the memoryless chain-binomial engine "
          "under the paper schedules; calibrating seir-event against it "
          "probes model mis-specification";
      p.truth_engine = ScenarioPreset::TruthEngine::kChainBinomial;
      return p;
    });

    r.add("abm-truth", [] {
      ScenarioPreset p;
      p.name = "abm-truth";
      p.summary =
          "Agent-based ground truth over a town-scale population (60k agents, "
          "household + community mixing) under the paper schedules -- the "
          "§VI generality case";
      p.truth_engine = ScenarioPreset::TruthEngine::kAgentBased;
      p.scenario.params.population = 60000;
      p.scenario.initial_exposed = 150;
      p.scenario.total_days = 80;
      return p;
    });

    r.add("abm-city", [] {
      ScenarioPreset p;
      p.name = "abm-city";
      p.summary =
          "Agent-based truth at the paper's CityCOVID scale (2.7M agents, "
          "Chicago order of magnitude) under the paper schedules -- only "
          "tractable on the event-driven fast engine, whose day cost tracks "
          "epidemic activity instead of population";
      p.truth_engine = ScenarioPreset::TruthEngine::kAgentBased;
      p.scenario.params.population = 2'700'000;
      p.scenario.initial_exposed = 1000;
      p.scenario.total_days = 80;
      return p;
    });

    return r;
  }();
  return registry;
}

}  // namespace epismc::api
