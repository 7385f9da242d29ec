#include "core/sequential_calibrator.hpp"

#include <stdexcept>

#include "api/components.hpp"
#include "fault/fault.hpp"
#include "random/engines.hpp"

namespace epismc::core {

void CalibrationConfig::validate() const {
  if (windows.empty()) {
    throw std::invalid_argument("CalibrationConfig: no windows");
  }
  // Per-window checks (inverted window, zero budget, inference knobs) live
  // in WindowSpec::validate; contiguity and the whole-run settings below.
  for (std::size_t m = 0; m < windows.size(); ++m) {
    make_window_spec(*this, m).validate();
    if (m > 0 && windows[m].first != windows[m - 1].second + 1) {
      throw std::invalid_argument(
          "CalibrationConfig: windows must be contiguous");
    }
  }
  if (!(defensive_fraction > 0.0 && defensive_fraction <= 1.0)) {
    // A zero (or negative) fraction silently disables the defensive prior
    // mixture -- the safeguard that keeps regime shifts wider than the
    // jitter kernel reachable (the paper's day-62 jump). Disabling a
    // safeguard must be an explicit decision, so the config rejects it
    // instead of accepting a footgun default.
    throw std::invalid_argument(
        "CalibrationConfig: defensive_fraction must be in (0, 1], got " +
        std::to_string(defensive_fraction) +
        " (a zero/negative fraction disables the defensive prior mixture "
        "that keeps regime shifts reachable; use a small positive fraction "
        "such as 0.01 to approximate 'off')");
  }
  if (burnin_day < 0 || burnin_day >= windows.front().first) {
    throw std::invalid_argument(
        "CalibrationConfig: burnin_day must be in [0, first window start)");
  }
  if (!theta_prior || !rho_prior) {
    throw std::invalid_argument("CalibrationConfig: null prior");
  }
  // Resolve every named component now: a typo'd likelihood (including the
  // death-stream one, which a cases-only run never touches) or bias model
  // must fail here, before any window has burned compute -- not on the run
  // that first exercises it.
  (void)api::likelihoods().create(likelihood_name, likelihood_parameter);
  (void)api::likelihoods().create(death_likelihood_name,
                                  death_likelihood_parameter);
  (void)api::bias_models().create(bias_name);
}

PosteriorDraws PosteriorDraws::from_window(const WindowResult& w) {
  const std::size_t n = w.n_draws();
  PosteriorDraws d;
  d.theta.resize(n);
  d.rho.resize(n);
  d.parent_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.theta[i] = w.draw_theta(i);
    d.rho[i] = w.draw_rho(i);
    d.parent_slot[i] = w.draw_state_slot(i);
  }
  return d;
}

ParamProposal make_prior_proposal(const CalibrationConfig& config,
                                  bool needs_rho) {
  return [theta_prior = config.theta_prior, rho_prior = config.rho_prior,
          needs_rho](rng::Engine& eng, std::uint32_t) {
    ProposedParams p;
    p.theta = theta_prior->sample(eng);
    p.rho = needs_rho ? rho_prior->sample(eng) : 1.0;
    p.parent = 0;
    return p;
  };
}

ParamProposal make_posterior_proposal(
    const CalibrationConfig& config,
    std::shared_ptr<const PosteriorDraws> draws, bool needs_rho) {
  if (!draws || draws->size() == 0) {
    throw std::invalid_argument(
        "make_posterior_proposal: empty posterior draw set");
  }
  return [draws = std::move(draws), theta_prior = config.theta_prior,
          rho_prior = config.rho_prior, theta_jitter = config.theta_jitter,
          rho_jitter = config.rho_jitter,
          defensive_fraction = config.defensive_fraction,
          needs_rho](rng::Engine& eng, std::uint32_t j) {
    const std::size_t draw = j % draws->size();
    ProposedParams p;
    if (rng::uniform_double(eng) < defensive_fraction) {
      // Defensive component: fresh draw from the window-1 priors so that
      // parameter jumps beyond the jitter width stay reachable.
      p.theta = theta_prior->sample(eng);
      p.rho = needs_rho ? rho_prior->sample(eng) : 1.0;
    } else {
      p.theta = theta_jitter.sample(eng, draws->theta[draw]);
      p.rho = needs_rho ? rho_jitter.sample(eng, draws->rho[draw]) : 1.0;
    }
    p.parent = draws->parent_slot[draw];
    return p;
  };
}

WindowSpec make_window_spec(const CalibrationConfig& config, std::size_t m) {
  if (m >= config.windows.size()) {
    throw std::out_of_range("make_window_spec: window " + std::to_string(m) +
                            " of " + std::to_string(config.windows.size()));
  }
  WindowSpec spec;
  spec.from_day = config.windows[m].first;
  spec.to_day = config.windows[m].second;
  spec.window_index = static_cast<std::uint32_t>(m);
  spec.n_params = config.n_params;
  spec.replicates = config.replicates;
  spec.resample_size = config.resample_size;
  spec.common_random_numbers = config.common_random_numbers;
  spec.use_deaths = config.use_deaths;
  spec.scheme = config.scheme;
  spec.seed = rng::hash_combine(config.seed, m);
  spec.inline_state_budget = config.inline_state_budget;
  spec.inference = config.inference;
  spec.ess_threshold = config.ess_threshold;
  spec.max_temper_stages = config.max_temper_stages;
  spec.rejuvenation_moves = config.rejuvenation_moves;
  spec.on_degenerate = config.on_degenerate;
  return spec;
}

SequentialCalibrator::SequentialCalibrator(const Simulator& sim,
                                           ObservedData data,
                                           CalibrationConfig config)
    : sim_(sim), data_(std::move(data)), config_(std::move(config)) {
  config_.validate();
  // The window count is fixed, so reserving keeps WindowResult references
  // returned by run_next_window stable across later windows.
  results_.reserve(config_.windows.size());
  likelihood_ =
      make_likelihood(config_.likelihood_name, config_.likelihood_parameter);
  death_likelihood_ = make_likelihood(config_.death_likelihood_name,
                                      config_.death_likelihood_parameter);
  bias_ = make_bias_model(config_.bias_name);

  const auto [first_from, first_to] = config_.windows.front();
  const auto [last_from, last_to] = config_.windows.back();
  if (data_.first_day() > first_from || data_.last_day() < last_to) {
    throw std::invalid_argument(
        "SequentialCalibrator: observed data does not cover the windows");
  }
  if (config_.use_deaths && !data_.has_deaths()) {
    throw std::invalid_argument(
        "SequentialCalibrator: use_deaths set but no death series");
  }
}

const epi::Checkpoint& SequentialCalibrator::initial_state() const {
  if (!initial_pool_ || initial_pool_->empty()) {
    throw std::logic_error("SequentialCalibrator: no window has run yet");
  }
  return initial_ckpt_;
}

const WindowResult& SequentialCalibrator::run_next_window() {
  const std::size_t m = results_.size();
  if (m >= config_.windows.size()) {
    throw std::logic_error("SequentialCalibrator: all windows already run");
  }
  const WindowSpec spec = make_window_spec(config_, m);
  const bool needs_rho = bias_->uses_rho();

  if (m == 0) {
    // Shared initial state; with the default burnin_day = 0 every particle
    // simulates its own early path and only the seeding is shared. The
    // checkpoint crosses the io boundary exactly once, into the pool.
    initial_ckpt_ = sim_.initial_state(
        config_.burnin_day, rng::hash_combine(config_.seed, 0x494E4954ull));
    initial_pool_ = sim_.make_pool();
    initial_pool_->append_checkpoint(initial_ckpt_);

    results_.push_back(run_importance_window(
        sim_, *likelihood_, *death_likelihood_, *bias_, data_, *initial_pool_,
        spec, make_prior_proposal(config_, needs_rho)));
    fault::hit("window-boundary");
    progress_.beat();
    return results_.back();
  }

  // Later windows: posterior draws of window m-1 are the proposal centers,
  // and their pooled end states are the restart points -- live typed
  // states, never re-parsed from bytes.
  const WindowResult& prev = results_[m - 1];
  if (!prev.state_pool || prev.state_pool->empty()) {
    throw std::logic_error("SequentialCalibrator: previous window kept no states");
  }
  const ParamProposal propose = make_posterior_proposal(
      config_, std::make_shared<PosteriorDraws>(PosteriorDraws::from_window(prev)),
      needs_rho);
  results_.push_back(run_importance_window(sim_, *likelihood_,
                                           *death_likelihood_, *bias_, data_,
                                           *prev.state_pool, spec, propose));
  fault::hit("window-boundary");
  progress_.beat();
  return results_.back();
}

void SequentialCalibrator::run_all() {
  while (!finished()) run_next_window();
}

}  // namespace epismc::core
