#include "api/components.hpp"

#include "abm/abm_simulator.hpp"

namespace epismc::api {

namespace {

core::EpiSimulatorConfig epi_config(const SimulatorSpec& spec) {
  return core::EpiSimulatorConfig{spec.params, spec.burnin_theta,
                                  spec.initial_exposed};
}

abm::AbmSimulatorConfig abm_config(const SimulatorSpec& spec) {
  abm::AbmSimulatorConfig cfg;
  cfg.abm = make_abm_config(spec.params, spec.abm);
  cfg.burnin_theta = spec.burnin_theta;
  cfg.initial_exposed = spec.initial_exposed;
  return cfg;
}

}  // namespace

SimulatorRegistry& simulators() {
  static SimulatorRegistry registry = [] {
    SimulatorRegistry r("simulator registry");
    r.add("seir-event", [](const SimulatorSpec& spec) {
      return std::unique_ptr<core::Simulator>(
          std::make_unique<core::SeirSimulator>(epi_config(spec)));
    });
    r.add("chain-binomial", [](const SimulatorSpec& spec) {
      return std::unique_ptr<core::Simulator>(
          std::make_unique<core::ChainBinomialSimulator>(epi_config(spec)));
    });
    r.add("abm", [](const SimulatorSpec& spec) {
      return std::unique_ptr<core::Simulator>(
          std::make_unique<abm::AbmSimulator>(abm_config(spec)));
    });
    // AbmSimulator::name() reports "agent-based"; accept it as a key too so
    // sim.name() round-trips through the registry.
    r.alias("agent-based", "abm");
    return r;
  }();
  return registry;
}

LikelihoodRegistry& likelihoods() {
  static LikelihoodRegistry registry = [] {
    LikelihoodRegistry r("likelihood registry");
    r.add("gaussian-sqrt", [](double sigma) {
      return std::unique_ptr<core::Likelihood>(
          std::make_unique<core::GaussianSqrtLikelihood>(sigma));
    });
    r.add("nb-sqrt", [](double dispersion_k) {
      return std::unique_ptr<core::Likelihood>(
          std::make_unique<core::NegBinSqrtLikelihood>(dispersion_k));
    });
    // The Poisson error model has no free parameter in the paper's sense:
    // the parameter is ignored (matching the historical make_likelihood
    // behaviour), so switching --likelihood=poisson while a gaussian/nb
    // parameter is staged cannot silently become a huge rate floor.
    r.add("poisson", [](double /*unused*/) {
      return std::unique_ptr<core::Likelihood>(
          std::make_unique<core::PoissonLikelihood>());
    });
    r.add("gaussian-count", [](double phi) {
      return std::unique_ptr<core::Likelihood>(
          std::make_unique<core::GaussianCountLikelihood>(phi));
    });
    return r;
  }();
  return registry;
}

BiasModelRegistry& bias_models() {
  static BiasModelRegistry registry = [] {
    BiasModelRegistry r("bias-model registry");
    r.add("binomial", [] {
      return std::unique_ptr<core::BiasModel>(
          std::make_unique<core::BinomialBias>());
    });
    r.add("identity", [] {
      return std::unique_ptr<core::BiasModel>(
          std::make_unique<core::IdentityBias>());
    });
    r.add("deterministic-thinning", [] {
      return std::unique_ptr<core::BiasModel>(
          std::make_unique<core::DeterministicThinning>());
    });
    return r;
  }();
  return registry;
}

InferenceRegistry& inference_strategies() {
  static InferenceRegistry registry = [] {
    InferenceRegistry r("inference-strategy registry");
    // The paper's scheme: one importance-sampling stage per window.
    // Bit-identical to the historical path (the golden tests pin it).
    r.add("single-stage",
          [] { return core::InferenceStrategy::kSingleStage; });
    // ESS-triggered adaptive tempering: pure re-weighting of the cached
    // log-likelihoods through a bisected likelihood^phi ladder.
    r.add("tempered", [] { return core::InferenceStrategy::kTempered; });
    // Tempering plus independence-rejuvenation rounds on the final
    // posterior draws (extra propagation, better diversity).
    r.add("tempered+rejuvenate",
          [] { return core::InferenceStrategy::kTemperedRejuvenate; });
    // Shell-friendly spelling ('+' needs quoting in some shells).
    r.alias("tempered-rejuvenate", "tempered+rejuvenate");
    return r;
  }();
  return registry;
}

JitterRegistry& jitter_policies() {
  static JitterRegistry registry = [] {
    JitterRegistry r("jitter-policy registry");
    // The paper's kernels: symmetric for theta, asymmetric/upward for rho
    // ("reflecting the reduced reporting error in later epidemic stages").
    r.add("paper-default", [] {
      return JitterPolicy{{0.10, 0.10, 0.02, 0.65}, {0.08, 0.12, 0.05, 1.0}};
    });
    // Half-width kernels: slower exploration, tighter posteriors when the
    // schedule is smooth.
    r.add("tight", [] {
      return JitterPolicy{{0.05, 0.05, 0.02, 0.65}, {0.04, 0.06, 0.05, 1.0}};
    });
    // Double-width kernels: regime shifts beyond the paper's jitter reach
    // without leaning on the defensive mixture.
    r.add("wide", [] {
      return JitterPolicy{{0.20, 0.20, 0.02, 0.65}, {0.16, 0.24, 0.05, 1.0}};
    });
    return r;
  }();
  return registry;
}

}  // namespace epismc::api
