#pragma once

// ScenarioSweep: fan named scenario presets across simulator backends in
// one call.
//
// The ROADMAP asks for "as many scenarios as you can imagine"; a sweep is
// the cartesian product {scenario preset} x {simulator backend}, each cell
// a full sequential calibration, run in parallel over cells on the pool:
//
//   auto runs = api::ScenarioSweep()
//                   .add_scenarios({"paper-baseline", "sharp-jump",
//                                   "low-reporting", "chain-binomial-truth"})
//                   .add_simulator("seir-event")
//                   .add_simulator("chain-binomial")
//                   .with_windows({{20, 33}, {34, 47}})
//                   .with_budget(200, 5, 400)
//                   .run_all();
//
// Determinism contract: every cell derives its randomness from
// (sweep seed, preset), never from thread id or schedule order, and the
// per-cell calibrator is itself thread-count invariant -- so run_all()
// returns byte-identical results whatever parallel::set_threads says.
// Ground truths are simulated once per scenario and shared across the
// backends calibrating against them.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/particle.hpp"
#include "core/posterior.hpp"
#include "supervise/supervisor.hpp"

namespace epismc::api {

/// Outcome of one (scenario, simulator) cell.
struct SweepRun {
  std::string scenario;
  std::string simulator;
  std::vector<core::WindowPosteriorSummary> windows;  // one per window
  std::vector<core::WindowDiagnostics> diagnostics;   // one per window
  std::vector<double> truth_theta;  // schedule truth at each window start
  std::vector<double> truth_rho;
  double wall_seconds = 0.0;
  std::string error;  // non-empty when the cell threw

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

class ScenarioSweep {
 public:
  /// Names are validated against the registries eagerly, so a typo fails
  /// at sweep construction, not inside the parallel region.
  ScenarioSweep& add_scenario(const std::string& preset_name);
  ScenarioSweep& add_scenarios(const std::vector<std::string>& preset_names);
  ScenarioSweep& add_simulator(const std::string& name);
  ScenarioSweep& add_simulators(const std::vector<std::string>& names);

  ScenarioSweep& with_windows(
      std::vector<std::pair<std::int32_t, std::int32_t>> windows);
  ScenarioSweep& with_budget(std::size_t n_params, std::size_t replicates,
                             std::size_t resample_size);
  ScenarioSweep& with_likelihood(const std::string& name, double parameter);
  ScenarioSweep& with_deaths(bool use = true);
  ScenarioSweep& with_seed(std::uint64_t seed);
  /// Extra per-cell session configuration applied after the sweep-level
  /// knobs (e.g. `s.with_bias("identity")`).
  ScenarioSweep& with_session_setup(
      std::function<void(CalibrationSession&)> hook);

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return scenario_names_.size() * simulator_names_.size();
  }

  /// Run every (scenario, simulator) cell; results ordered scenario-major,
  /// identical regardless of thread count.
  [[nodiscard]] std::vector<SweepRun> run_all() const;

  /// A supervised sweep: the cell results (same order and, for surviving
  /// cells, same values as run_all) plus the per-task attempt record.
  struct SupervisedSweep {
    std::vector<SweepRun> runs;
    supervise::SupervisionReport report;

    [[nodiscard]] bool all_ok() const noexcept { return report.all_ok(); }
  };

  /// Liveness hook threaded into every cell's session (per-window beats).
  /// run_supervised composes it with the supervision heartbeat.
  ScenarioSweep& with_progress(core::ProgressReporter progress);

  /// Run every cell in its own forked, heartbeat-monitored child process:
  /// a crashed, hung or stalled cell is killed and retried with backoff up
  /// to sup.max_retries, and a cell whose budget is exhausted fails alone
  /// -- its SweepRun carries the supervision error while every surviving
  /// cell completes normally. Cells that succeed first try are
  /// bit-identical to run_all() (same per-cell seeds; the fork changes no
  /// stream). Ground truths are still simulated once, in the parent, and
  /// inherited copy-on-write by every child.
  [[nodiscard]] SupervisedSweep run_supervised(
      supervise::SupervisorOptions sup = {}) const;

 private:
  struct ScenarioTruth;  // a preset and its simulated ground truth

  /// One ground truth per scenario; throws std::logic_error when the sweep
  /// has no scenario or no simulator.
  [[nodiscard]] std::vector<ScenarioTruth> simulate_truths() const;
  [[nodiscard]] std::uint64_t scenario_seed(std::size_t si) const;
  /// Calibrate one (scenario, simulator) cell into `out`; whatever the
  /// session throws propagates. run_all and each supervised child share it.
  void run_cell(const std::vector<ScenarioTruth>& truths, std::size_t cell,
                core::ProgressReporter progress, SweepRun& out) const;

  std::vector<std::string> scenario_names_;
  std::vector<std::string> simulator_names_;
  std::vector<std::pair<std::int32_t, std::int32_t>> windows_ = {
      {20, 33}, {34, 47}, {48, 61}, {62, 75}};
  std::size_t n_params_ = 400;
  std::size_t replicates_ = 5;
  std::size_t resample_size_ = 800;
  std::string likelihood_name_ = "nb-sqrt";
  double likelihood_parameter_ = 500.0;
  bool use_deaths_ = false;
  std::uint64_t seed_ = 20240306;
  std::function<void(CalibrationSession&)> session_setup_;
  core::ProgressReporter progress_;
};

}  // namespace epismc::api
