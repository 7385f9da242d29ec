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
  CalibrationSession& with_abm_engine(abm::AbmEngine engine);

  // --- Calibration knobs (mirror core::CalibrationConfig). -----------------
  CalibrationSession& with_windows(
      std::vector<std::pair<std::int32_t, std::int32_t>> windows);
  CalibrationSession& with_budget(std::size_t n_params, std::size_t replicates,
                                  std::size_t resample_size);
  CalibrationSession& with_likelihood(const std::string& name,
                                      double parameter);
  CalibrationSession& with_death_likelihood(const std::string& name,
                                            double parameter);
  CalibrationSession& with_bias(const std::string& name);
  CalibrationSession& with_deaths(bool use = true);
  CalibrationSession& with_seed(std::uint64_t seed);
  CalibrationSession& with_resampling(stats::ResamplingScheme scheme);
  /// Window inference strategy by registry name ("single-stage" |
  /// "tempered" | "tempered+rejuvenate"): applies the policy's strategy
  /// and adaptive defaults. Call with_ess_threshold /
  /// with_rejuvenation_moves afterwards to override individual knobs.
  CalibrationSession& with_inference(const std::string& policy_name);
  CalibrationSession& with_inference(InferencePolicy policy);
  CalibrationSession& with_inference(core::InferenceStrategy strategy);
  /// Temper trigger/target as a fraction of n_sims, in (0, 1).
  CalibrationSession& with_ess_threshold(double fraction);
  CalibrationSession& with_rejuvenation_moves(std::size_t rounds);
  /// Non-finite log-likelihood policy by name ("quarantine" | "throw");
  /// see core::DegeneracyPolicy.
  CalibrationSession& with_on_degenerate(const std::string& policy_name);
  CalibrationSession& with_on_degenerate(core::DegeneracyPolicy policy);
  CalibrationSession& with_common_random_numbers(bool crn);
  CalibrationSession& with_defensive_fraction(double fraction);
  CalibrationSession& with_jitter(const std::string& policy_name);
  CalibrationSession& with_jitter(core::JitterKernel theta,
                                  core::JitterKernel rho);
  CalibrationSession& with_burnin_day(std::int32_t day);
  /// SIMD dispatch level for the vectorized kernels ("scalar" | "sse41" |
  /// "avx2" | "avx512" | "auto"). Applied process-wide immediately (the
  /// dispatcher is global state, like the thread count); levels above
  /// what the binary/host supports clamp down rather than fail. The
  /// default is the scalar reference path -- see docs/API.md "SIMD kernels
  /// & ISA dispatch" for the determinism contract.
  CalibrationSession& with_simd_level(const std::string& level_name);
  /// parallel_for backend ("serial" | "pool"). Applied process-wide
  /// immediately, same global-state caveat as with_simd_level.
  /// Results are bit-identical across backends -- this selects the engine,
  /// not the answer. See docs/API.md "Task pool & thread scaling".
  CalibrationSession& with_pool_backend(const std::string& backend_name);
  CalibrationSession& with_priors(std::shared_ptr<const core::Prior> theta,
                                  std::shared_ptr<const core::Prior> rho);
  /// Wholesale config replacement (escape hatch for ported call sites).
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
