#include "api/session.hpp"

#include <stdexcept>

namespace epismc::api {

void CalibrationSession::require_unbuilt(const char* call) const {
  if (calibrator_ || streamed_) {
    throw std::logic_error(std::string("CalibrationSession::") + call +
                           ": session already materialized; configure before "
                           "the first run_*/stream()/results call");
  }
}

CalibrationSession& CalibrationSession::with_simulator(std::string name) {
  require_unbuilt("with_simulator");
  // Eager: a typo'd backend name must fail here, not after the scenario's
  // ground truth (possibly a full agent-based run) has been simulated.
  if (!simulators().contains(name)) {
    throw UnknownComponentError(simulators().kind(), name,
                                simulators().names());
  }
  simulator_name_ = std::move(name);
  return *this;
}

CalibrationSession& CalibrationSession::with_simulator(std::string name,
                                                       SimulatorSpec spec) {
  with_simulator(std::move(name));
  spec_override_ = spec;
  return *this;
}

CalibrationSession& CalibrationSession::with_scenario(
    const std::string& preset_name) {
  return with_scenario(scenarios().create(preset_name));
}

CalibrationSession& CalibrationSession::with_scenario(ScenarioPreset preset) {
  require_unbuilt("with_scenario");
  preset_ = std::move(preset);
  return *this;
}

CalibrationSession& CalibrationSession::with_data(core::ObservedData data) {
  require_unbuilt("with_data");
  data_ = std::move(data);
  return *this;
}

CalibrationSession& CalibrationSession::with_abm_engine(
    const std::string& engine_name) {
  require_unbuilt("with_abm_engine");
  abm_engine_ = abm::engine_from_name(engine_name);
  return *this;
}

CalibrationSession& CalibrationSession::with_windows(
    std::vector<std::pair<std::int32_t, std::int32_t>> windows) {
  require_unbuilt("with_windows");
  config_.windows = std::move(windows);
  return *this;
}

CalibrationSession& CalibrationSession::with_budget(std::size_t n_params,
                                                    std::size_t replicates,
                                                    std::size_t resample_size) {
  require_unbuilt("with_budget");
  config_.n_params = n_params;
  config_.replicates = replicates;
  config_.resample_size = resample_size;
  return *this;
}

CalibrationSession& CalibrationSession::with_likelihood(const std::string& name,
                                                        double parameter) {
  require_unbuilt("with_likelihood");
  config_.likelihood_name = name;
  config_.likelihood_parameter = parameter;
  return *this;
}

CalibrationSession& CalibrationSession::with_bias(const std::string& name) {
  require_unbuilt("with_bias");
  config_.bias_name = name;
  return *this;
}

CalibrationSession& CalibrationSession::with_deaths(bool use) {
  require_unbuilt("with_deaths");
  config_.use_deaths = use;
  return *this;
}

CalibrationSession& CalibrationSession::with_seed(std::uint64_t seed) {
  require_unbuilt("with_seed");
  config_.seed = seed;
  return *this;
}

CalibrationSession& CalibrationSession::with_inference(
    const std::string& strategy_name) {
  require_unbuilt("with_inference");
  config_.inference = inference_strategies().create(strategy_name);
  return *this;
}

CalibrationSession& CalibrationSession::with_ess_threshold(double fraction) {
  require_unbuilt("with_ess_threshold");
  config_.ess_threshold = fraction;
  return *this;
}

CalibrationSession& CalibrationSession::with_rejuvenation_moves(
    std::size_t rounds) {
  require_unbuilt("with_rejuvenation_moves");
  config_.rejuvenation_moves = rounds;
  return *this;
}

CalibrationSession& CalibrationSession::with_on_degenerate(
    const std::string& policy_name) {
  require_unbuilt("with_on_degenerate");
  config_.on_degenerate = core::degeneracy_policy_from_name(policy_name);
  return *this;
}

CalibrationSession& CalibrationSession::with_jitter(
    const std::string& policy_name) {
  require_unbuilt("with_jitter");
  const JitterPolicy policy = jitter_policies().create(policy_name);
  config_.theta_jitter = policy.theta;
  config_.rho_jitter = policy.rho;
  return *this;
}

CalibrationSession& CalibrationSession::with_config(
    core::CalibrationConfig config) {
  require_unbuilt("with_config");
  config_ = std::move(config);
  return *this;
}

CalibrationSession& CalibrationSession::with_progress(
    core::ProgressReporter progress) {
  // Deliberately allowed after build(): a progress hook changes no
  // result, so late attachment is harmless (and supervised children
  // attach theirs after materialization).
  progress_ = std::move(progress);
  if (calibrator_) calibrator_->set_progress(progress_);
  return *this;
}

void CalibrationSession::materialize_data() {
  if (preset_ && !data_) {
    truth_ = preset_->make_truth();
    data_ = truth_->observed();
  }
  if (!data_) {
    throw std::logic_error(
        "CalibrationSession: no data -- call with_scenario() or with_data() "
        "before running");
  }
}

void CalibrationSession::materialize_simulator() {
  if (simulator_) return;
  // Explicit spec override first, then the scenario preset's, then defaults.
  SimulatorSpec spec = spec_override_ ? *spec_override_
                       : preset_      ? preset_->simulator_spec()
                                      : SimulatorSpec{};
  if (abm_engine_) spec.abm.engine = *abm_engine_;
  simulator_ = simulators().create(simulator_name_, spec);
}

void CalibrationSession::build() {
  if (calibrator_) return;
  // Validate the staged config (windows, budget, component names) before
  // simulating any ground truth: a typo'd likelihood must not cost a full
  // agent-based truth run first. SequentialCalibrator validates again on
  // construction; the duplicate check is cheap.
  config_.validate();
  materialize_data();
  materialize_simulator();
  calibrator_ = std::make_unique<core::SequentialCalibrator>(*simulator_,
                                                             *data_, config_);
  calibrator_->set_progress(progress_);
}

stream::StreamingCalibrator CalibrationSession::stream(StreamOptions options) {
  config_.validate();
  materialize_simulator();
  streamed_ = true;
  stream::StreamConfig stream_config;
  stream_config.calibration = config_;
  stream_config.checkpoint_every = options.checkpoint_every;
  stream_config.checkpoint_path = std::move(options.checkpoint_path);
  stream_config.resample_mid_window = options.resample_mid_window;
  stream::StreamingCalibrator calibrator(*simulator_,
                                         std::move(stream_config));
  calibrator.set_progress(progress_);
  if (options.resume_latest) calibrator.resume_latest();
  return calibrator;
}

supervise::SupervisionReport CalibrationSession::supervised(
    StreamOptions options, supervise::SupervisorOptions sup) {
  config_.validate();
  if (options.checkpoint_path.empty() || options.checkpoint_every <= 0) {
    throw std::invalid_argument(
        "CalibrationSession::supervised: checkpoint_every > 0 and a "
        "checkpoint_path are required (retries resume from the rotated "
        "slots)");
  }
  // Materialize the feed in the parent: every attempt's forked child
  // inherits the same observations copy-on-write instead of re-simulating
  // ground truth per retry.
  materialize_data();
  if (sup.report_path.empty()) {
    sup.report_path = options.checkpoint_path.string() + ".supervision";
  }

  supervise::SupervisedTask task;
  task.name = "stream:" + options.checkpoint_path.filename().string();
  task.kind = "stream";
  task.checkpoint_base = options.checkpoint_path;
  task.body = [this, options](supervise::TaskContext& ctx) -> int {
    // Runs in the forked child: `this` is the child's COW copy of the
    // session, so mutating it (stream() marks it streamed) never leaks
    // back into the parent.
    StreamOptions o = options;
    // Attempt 0 with empty slots starts fresh (resume_latest returns
    // nullopt); any attempt after a checkpointed crash resumes.
    o.resume_latest = true;
    stream::StreamingCalibrator calibrator = stream(o);
    if (calibrator.last_recovery()) {
      ctx.report_recovery(*calibrator.last_recovery());
    }
    calibrator.set_progress(
        core::ProgressReporter::chain(progress_, ctx.progress()));
    const core::ObservedData& feed = *data_;
    while (!calibrator.finished()) {
      stream::DailyObservation obs;
      obs.day = calibrator.next_expected_day();
      obs.cases = feed.cases_at(obs.day);
      if (config_.use_deaths) obs.deaths = feed.deaths_at(obs.day);
      calibrator.ingest(obs);
    }
    // The final state must be durable even when the feed length is not a
    // multiple of the checkpoint cadence -- it is what the parent loads.
    calibrator.checkpoint_now();
    return 0;
  };

  supervise::Supervisor supervisor(std::move(sup));
  supervisor.add_task(std::move(task));
  return supervisor.run_all();
}

const core::WindowResult& CalibrationSession::run_next_window() {
  build();
  return calibrator_->run_next_window();
}

CalibrationSession& CalibrationSession::run_all() {
  build();
  calibrator_->run_all();
  return *this;
}

bool CalibrationSession::finished() {
  build();
  return calibrator_->finished();
}

core::SequentialCalibrator& CalibrationSession::calibrator() {
  build();
  return *calibrator_;
}

const core::Simulator& CalibrationSession::simulator() {
  build();
  return *simulator_;
}

const std::vector<core::WindowResult>& CalibrationSession::results() {
  build();
  return calibrator_->results();
}

const core::EnsembleBuffer& CalibrationSession::ensemble(std::size_t window) {
  const auto& all = results();
  if (window >= all.size()) {
    throw std::out_of_range("CalibrationSession: window " +
                            std::to_string(window) + " has not run (" +
                            std::to_string(all.size()) + " completed)");
  }
  return all[window].ensemble;
}

core::WindowPosteriorSummary CalibrationSession::posterior_summary(
    std::size_t window) {
  const auto& all = results();
  if (window >= all.size()) {
    throw std::out_of_range("CalibrationSession: window " +
                            std::to_string(window) + " has not run (" +
                            std::to_string(all.size()) + " completed)");
  }
  return core::summarize_window(all[window]);
}

std::vector<core::WindowPosteriorSummary>
CalibrationSession::posterior_summaries() {
  std::vector<core::WindowPosteriorSummary> out;
  for (const auto& w : results()) out.push_back(core::summarize_window(w));
  return out;
}

const epi::Checkpoint& CalibrationSession::initial_state() {
  build();
  return calibrator_->initial_state();
}

const core::GroundTruth& CalibrationSession::truth() {
  build();
  if (!truth_) {
    throw std::logic_error(
        "CalibrationSession: no ground truth -- session was built from user "
        "data, not a scenario preset");
  }
  return *truth_;
}

bool CalibrationSession::has_truth() {
  build();
  return truth_.has_value();
}

const core::ObservedData& CalibrationSession::data() {
  build();
  return *data_;
}

core::Forecast CalibrationSession::forecast(std::int32_t horizon_day,
                                            std::size_t n_draws,
                                            std::uint64_t seed) {
  build();
  if (calibrator_->results().empty()) {
    throw std::logic_error("CalibrationSession::forecast: no window has run");
  }
  return core::posterior_forecast(*simulator_, calibrator_->results().back(),
                                  horizon_day, n_draws, seed);
}

core::Forecast CalibrationSession::forecast_with_theta(double theta,
                                                       std::int32_t horizon_day,
                                                       std::size_t n_draws,
                                                       std::uint64_t seed) {
  build();
  if (calibrator_->results().empty()) {
    throw std::logic_error(
        "CalibrationSession::forecast_with_theta: no window has run");
  }
  // Shares forecast() streams, so (status quo, intervention) pairs with the
  // same seed are common-random-number comparisons.
  return core::posterior_forecast(*simulator_, calibrator_->results().back(),
                                  horizon_day, n_draws, seed, theta);
}

}  // namespace epismc::api
