#pragma once

// CalibrationSession: the fluent single entry point for calibration runs.
//
// A session owns the whole wiring that call sites used to assemble by hand
// -- simulator backend, ground-truth scenario (or user data), calibration
// config, and the SequentialCalibrator -- behind registry names:
//
//   auto session = api::CalibrationSession()
//                      .with_simulator("seir-event")
//                      .with_scenario("paper-baseline")
//                      .with_windows({{20, 33}, {34, 47}})
//                      .with_likelihood("gaussian-sqrt", 1.0)
//                      .with_budget(1000, 10, 2000);
//   session.run_all();
//   for (const auto& s : session.posterior_summaries()) ...
//
// Builder calls stage configuration; the first call that needs results
// (run_*, calibrator(), simulator(), results(), ...) materializes the
// simulator and calibrator. After that point further with_* calls throw --
// a session is one run, not a mutable sweep (ScenarioSweep does sweeps).
//
// Each knob has one setter. The with_* calls below cover the components
// chosen by registry name and the knobs the examples and benches turn;
// every other core::CalibrationConfig field (priors, resampling scheme,
// death likelihood, defensive fraction, burn-in day, common random
// numbers, ...) is set on a config passed to with_config. Process-wide
// engine switches are not session state: the thread count, the SIMD level
// and the parallel_for backend belong to parallel::set_threads,
// simd::set_level and parallel::set_backend (or --threads/--simd/--pool).
//
// Wiring is value-identical to hand construction: a session with the same
// config and seed reproduces a hand-wired SequentialCalibrator bit for bit
// (api_session_test locks this in).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/components.hpp"
#include "api/scenarios.hpp"
#include "core/data.hpp"
#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "core/sequential_calibrator.hpp"
#include "core/simulator.hpp"
#include "stream/streaming_calibrator.hpp"
#include "supervise/supervisor.hpp"

namespace epismc::api {

/// Streaming-only knobs of CalibrationSession::stream() (the calibration
/// knobs come from the session's staged config; see stream::StreamConfig).
struct StreamOptions {
  std::int64_t checkpoint_every = 0;
  std::filesystem::path checkpoint_path;
  bool resample_mid_window = true;
  /// Crash recovery on start-up: before the calibrator is returned it
  /// restores the newest CRC-passing rotated slot of checkpoint_path
  /// (falling back to the older slot on corruption; see
  /// StreamingCalibrator::resume_latest). A fresh session -- no slot on
  /// disk yet -- starts clean; inspect last_recovery() for what happened.
  bool resume_latest = false;
};

class CalibrationSession {
 public:
  CalibrationSession() = default;
  CalibrationSession(const CalibrationSession&) = delete;
  CalibrationSession& operator=(const CalibrationSession&) = delete;
  CalibrationSession(CalibrationSession&&) = default;
  CalibrationSession& operator=(CalibrationSession&&) = default;

  // --- Component selection (registry names). -------------------------------
  CalibrationSession& with_simulator(std::string name);
  CalibrationSession& with_simulator(std::string name, SimulatorSpec spec);
  /// Generate ground truth from a named preset; the observed data and
  /// (unless overridden) the simulator spec come from the preset.
  CalibrationSession& with_scenario(const std::string& preset_name);
  CalibrationSession& with_scenario(ScenarioPreset preset);
  /// Calibrate against user-provided data instead of a synthetic scenario.
  CalibrationSession& with_data(core::ObservedData data);
  /// Agent-based day-step engine ("fast" | "reference"); applied on top of
  /// whatever SimulatorSpec the session ends up with (explicit spec or
  /// scenario-derived). Ignored by the compartmental backends.
  CalibrationSession& with_abm_engine(const std::string& engine_name);

  // --- Calibration knobs (each writes core::CalibrationConfig fields). ----
  CalibrationSession& with_windows(
      std::vector<std::pair<std::int32_t, std::int32_t>> windows);
  CalibrationSession& with_budget(std::size_t n_params, std::size_t replicates,
                                  std::size_t resample_size);
  CalibrationSession& with_likelihood(const std::string& name,
                                      double parameter);
  CalibrationSession& with_bias(const std::string& name);
  CalibrationSession& with_deaths(bool use = true);
  CalibrationSession& with_seed(std::uint64_t seed);
  /// Window inference strategy by registry name ("single-stage" |
  /// "tempered" | "tempered+rejuvenate"). Sets only the strategy: the
  /// ess_threshold, max_temper_stages and rejuvenation_moves already staged
  /// (defaults, with_config, or the setters below) are kept, in whatever
  /// order the calls come.
  CalibrationSession& with_inference(const std::string& strategy_name);
  /// Temper trigger/target as a fraction of n_sims, in (0, 1).
  CalibrationSession& with_ess_threshold(double fraction);
  CalibrationSession& with_rejuvenation_moves(std::size_t rounds);
  /// Non-finite log-likelihood policy by name ("quarantine" | "throw");
  /// see core::DegeneracyPolicy.
  CalibrationSession& with_on_degenerate(const std::string& policy_name);
  /// Posterior-jitter kernels by registry name (jitter_policies()).
  CalibrationSession& with_jitter(const std::string& policy_name);
  /// Wholesale config replacement: the way to set any CalibrationConfig
  /// field that has no setter above. Later with_* calls edit the result.
  CalibrationSession& with_config(core::CalibrationConfig config);
  /// Liveness/progress hook, beaten per window (batch) or per day
  /// (streaming). Composes with the supervision heartbeat when the
  /// session runs under supervised().
  CalibrationSession& with_progress(core::ProgressReporter progress);

  // --- Running. ------------------------------------------------------------
  /// Online streaming calibration: materialize the simulator from the
  /// staged config (exactly like build(), minus data/calibrator -- the
  /// observations arrive through ingest()) and hand back a
  /// StreamingCalibrator over it. The session must outlive the returned
  /// calibrator (it owns the simulator), and like the batch path a
  /// session is one run: further with_* calls throw after stream().
  [[nodiscard]] stream::StreamingCalibrator stream(StreamOptions options = {});
  /// Hands-off streaming run under process supervision: the whole feed
  /// (the session's scenario/user data) is assimilated day by day inside
  /// a forked worker that heartbeats per day; a crash, hang or stall is
  /// killed, backed off, and retried from the newest CRC-passing
  /// checkpoint slot (resume_latest) up to the retry budget. Requires
  /// checkpoint_every > 0 and a checkpoint_path. The parent session
  /// stays un-streamed: after a successful report, load the final state
  /// with stream({.checkpoint_path = ..., .resume_latest = true}).
  supervise::SupervisionReport supervised(
      StreamOptions options, supervise::SupervisorOptions sup = {});
  /// Calibrate the next window (materializes the pipeline on first call).
  const core::WindowResult& run_next_window();
  /// Calibrate all remaining windows.
  CalibrationSession& run_all();
  [[nodiscard]] bool finished();

  // --- Results and introspection. ------------------------------------------
  [[nodiscard]] core::SequentialCalibrator& calibrator();
  [[nodiscard]] const core::Simulator& simulator();
  [[nodiscard]] const core::CalibrationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<core::WindowResult>& results();
  /// Structure-of-arrays ensemble of a completed window: day-major series
  /// rows plus flat identity/parameter/weight columns (the execution
  /// engine's native layout; see docs/API.md "Execution engine").
  [[nodiscard]] const core::EnsembleBuffer& ensemble(std::size_t window);
  [[nodiscard]] core::WindowPosteriorSummary posterior_summary(
      std::size_t window);
  [[nodiscard]] std::vector<core::WindowPosteriorSummary>
  posterior_summaries();
  /// Shared burn-in checkpoint (valid once the first window has run).
  [[nodiscard]] const epi::Checkpoint& initial_state();

  /// Ground truth backing the session; throws std::logic_error when the
  /// session was fed user data instead of a scenario.
  [[nodiscard]] const core::GroundTruth& truth();
  [[nodiscard]] bool has_truth();
  [[nodiscard]] const core::ObservedData& data();

  // --- Posterior-predictive forecasting. -----------------------------------
  /// Branch the last completed window's posterior ensemble through
  /// `horizon_day`, each draw keeping its own theta.
  [[nodiscard]] core::Forecast forecast(std::int32_t horizon_day,
                                        std::size_t n_draws,
                                        std::uint64_t seed);
  /// Same, but every branch runs under `theta` -- intervention what-ifs.
  [[nodiscard]] core::Forecast forecast_with_theta(double theta,
                                                   std::int32_t horizon_day,
                                                   std::size_t n_draws,
                                                   std::uint64_t seed);

 private:
  void require_unbuilt(const char* call) const;
  /// Simulate the preset's ground truth unless data is already staged;
  /// throws std::logic_error when the session has neither.
  void materialize_data();
  /// Resolve the simulator spec (explicit override, else the preset's,
  /// else defaults; then the ABM engine) and create the simulator once.
  void materialize_simulator();
  void build();  // idempotent

  std::string simulator_name_ = "seir-event";
  std::optional<SimulatorSpec> spec_override_;
  std::optional<abm::AbmEngine> abm_engine_;
  std::optional<ScenarioPreset> preset_;
  std::optional<core::GroundTruth> truth_;
  std::optional<core::ObservedData> data_;
  core::CalibrationConfig config_;
  std::unique_ptr<core::Simulator> simulator_;
  std::unique_ptr<core::SequentialCalibrator> calibrator_;
  core::ProgressReporter progress_;
  bool streamed_ = false;
};

}  // namespace epismc::api
