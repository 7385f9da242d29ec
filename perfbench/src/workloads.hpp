#pragma once

// The benchmark's three workloads and one measured pass of each.
//
// A pass is: set-up (scenario truth, session build, pool spawn), then the
// calibration itself -- a batch run_all window by window, or a day-by-day
// streaming feed with a rotated checkpoint every seven days. Every call
// into the library is made from here and timed from outside.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// Window likelihood (count-magnitude-aware sqrt scale, as in the paper
/// benches) and reporting-bias model shared by every workload.
inline constexpr const char* kLikelihood = "nb-sqrt";
inline constexpr double kLikelihoodParameter = 500.0;
inline constexpr const char* kBias = "binomial";

struct WorkloadSpec {
  std::string name;
  std::string scenario;
  std::string simulator;
  std::string inference;
  std::size_t n_params = 0;
  std::size_t replicates = 0;
  std::size_t resample = 0;
  std::size_t rejuvenation_moves = 0;  // 0: keep the policy default
  bool streaming = false;
  /// The CRPS metrics average the first crps_passes passes of a timed run,
  /// so they repeat exactly for a seed when that many fit --seconds.
  /// Per-pass CRPS varies by about 30% (theta) and 50% (rho) between
  /// seeds, so the count sets the run-to-run spread of those metrics.
  std::size_t crps_passes = 0;
};

/// The workload table; throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

struct WindowStats {
  double ess_frac = 0;
  std::size_t rungs = 0;
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;
  double statepool_mb = 0;
  bool inline_capture = false;
};

struct PassResult {
  std::uint64_t seed = 0;
  double setup_s = 0;
  double wall_s = 0;             // calibration after set-up
  double weighted_sim_days = 0;  // trajectory-days of the weighted passes
  std::vector<double> day_latency_ms;
  double theta_crps = 0;  // mean over windows
  double rho_crps = 0;
  std::vector<double> window_theta_crps;
  std::vector<double> window_rho_crps;
  std::uint64_t digest = 0;  // weights, resampled ids, posterior draws
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<WindowStats> windows;

  // Streaming only.
  std::int64_t resample_days = 0;
  std::vector<double> window_close_ms;
  std::int64_t checkpoint_saves = 0;
  double checkpoint_save_s = 0;
  double checkpoint_bytes = 0;  // summed over saves
  double checkpoint_load_s = 0;
};

/// Run one pass of `spec` with scenario and calibration seed `seed`.
/// `traced` selects the "traced:" decorators (register_traced first).
/// `work_dir` holds the streaming checkpoints; it is emptied afterwards.
/// `verify_reload` (streaming only) reloads the newest checkpoint slot
/// into a fresh calibrator after the feed and checks its snapshot.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                                  bool traced,
                                  const std::filesystem::path& work_dir,
                                  int lanes, bool verify_reload);

/// Seed of pass `k` of a run with workload seed `seed`.
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t k);

}  // namespace perfbench
