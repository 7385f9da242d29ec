#pragma once

// Sequential calibration across time windows (paper §IV-C).
//
// Window 1 draws (theta, rho) from fixed priors and weights trajectories
// branched from a shared burn-in checkpoint. Every later window m uses the
// posterior draws of window m-1 as its proposal -- each draw is jittered by
// a uniform kernel (symmetric for theta, asymmetric/upward for rho) and the
// simulation restarts from that draw's *checkpointed end state*, never from
// day zero. This is the paper's computational-savings mechanism: window m
// costs O(window length), not O(t_m).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bias_model.hpp"
#include "core/data.hpp"
#include "core/importance_sampler.hpp"
#include "core/likelihood.hpp"
#include "core/particle.hpp"
#include "core/prior.hpp"
#include "core/progress.hpp"
#include "core/simulator.hpp"

namespace epismc::core {

struct CalibrationConfig {
  /// Inclusive [from, to] day ranges; must be contiguous and increasing.
  std::vector<std::pair<std::int32_t, std::int32_t>> windows = {
      {20, 33}, {34, 47}, {48, 61}, {62, 75}};

  std::size_t n_params = 1250;
  std::size_t replicates = 10;
  std::size_t resample_size = 2500;
  bool common_random_numbers = true;
  bool use_deaths = false;
  stats::ResamplingScheme scheme = stats::ResamplingScheme::kSystematic;
  std::uint64_t seed = 20240306;

  std::string likelihood_name = "gaussian-sqrt";
  double likelihood_parameter = 1.0;  // sigma for gaussian-sqrt
  /// Error model for the death stream (paper: "a Gaussian error model on
  /// the square-root counts similar to reported case counts").
  std::string death_likelihood_name = "gaussian-sqrt";
  double death_likelihood_parameter = 1.0;
  std::string bias_name = "binomial";

  /// Day of the shared initial checkpoint from which window-1 particles
  /// branch. The default 0 means each particle simulates its own full
  /// early path (matching the wide pre-window trajectory spread in the
  /// paper's Fig. 3); setting it to first_window_start - 1 makes all
  /// particles share one burn-in realization (cheaper, but any burn-in
  /// noise is then absorbed into the rho estimate).
  std::int32_t burnin_day = 0;

  /// Window-1 priors (defaults are the paper's).
  std::shared_ptr<const Prior> theta_prior =
      std::make_shared<UniformPrior>(0.1, 0.5);
  std::shared_ptr<const Prior> rho_prior = std::make_shared<BetaPrior>(4.0, 1.0);

  /// Posterior-jitter kernels for windows m > 1. Theta: symmetric. Rho:
  /// asymmetric with more mass above the center ("reflecting the reduced
  /// reporting error in later epidemic stages", §V-B).
  JitterKernel theta_jitter{0.10, 0.10, 0.02, 0.65};
  JitterKernel rho_jitter{0.08, 0.12, 0.05, 1.0};

  /// Defensive mixture: this fraction of each later window's proposals is
  /// drawn from the window-1 priors instead of the jitter kernel. Keeps
  /// regime shifts larger than the jitter width (the paper's day-62 jump
  /// from theta 0.25 to 0.40) reachable, at a small efficiency cost --
  /// the standard remedy for the degeneracy risk §VI discusses.
  double defensive_fraction = 0.10;

  /// Per-window memory ceiling for inline end-state capture (see
  /// WindowSpec::inline_state_budget).
  std::size_t inline_state_budget = std::size_t{512} << 20;

  /// Inference strategy per window (see core::InferenceStrategy):
  /// single-stage (the paper's scheme, bit-identical to the historical
  /// path), or the adaptive variants whose temper ladder engages whenever
  /// a window's ESS collapses below ess_threshold * n_sims.
  InferenceStrategy inference = InferenceStrategy::kSingleStage;
  double ess_threshold = 0.5;        // trigger/target fraction, in (0, 1)
  std::size_t max_temper_stages = 12;
  std::size_t rejuvenation_moves = 1;  // rounds (tempered+rejuvenate)

  /// What a window does with draws whose log-likelihood scores non-finite
  /// (NaN / +inf): quarantine to -inf with a DegeneracyReport (default --
  /// one pathological trajectory must not take down a session), or throw
  /// CalibrationError. See core::DegeneracyPolicy.
  DegeneracyPolicy on_degenerate = DegeneracyPolicy::kQuarantine;

  /// Fail-fast validation: runs WindowSpec::validate on every window's
  /// make_window_spec (inverted windows, zero budgets, out-of-range
  /// inference knobs), then rejects non-contiguous windows, a non-positive
  /// defensive mixture (a zero fraction silently disables the paper's
  /// regime-shift safeguard, so it is rejected rather than accepted), a
  /// bad burn-in day, null priors, and unknown component names.
  void validate() const;
};

/// Draw-level view of a completed window's posterior: the proposal inputs
/// of the next window (jitter centers plus parent state slots), detached
/// from the full WindowResult so a streaming checkpoint can carry it
/// across processes. Slot i indexes the producing window's state pool.
struct PosteriorDraws {
  std::vector<double> theta;
  std::vector<double> rho;
  std::vector<std::uint32_t> parent_slot;

  [[nodiscard]] std::size_t size() const noexcept { return theta.size(); }
  /// Identical to indexing the window through draw_theta/draw_rho/
  /// draw_state_slot (rejuvenation overlays included).
  [[nodiscard]] static PosteriorDraws from_window(const WindowResult& w);
};

/// First-window proposal: fresh (theta, rho) from the configured priors,
/// branching from parent slot 0 (the shared burn-in state). `needs_rho`
/// is BiasModel::uses_rho() -- a bias model that ignores rho must not
/// consume a prior draw for it.
[[nodiscard]] ParamProposal make_prior_proposal(const CalibrationConfig& config,
                                                bool needs_rho);

/// Window-(m > 1) proposal: jittered draws centered on the previous
/// posterior plus the defensive prior mixture. `draws` is captured by
/// shared_ptr so the proposal outlives the caller's frame (end-of-window
/// rejuvenation re-invokes it).
[[nodiscard]] ParamProposal make_posterior_proposal(
    const CalibrationConfig& config,
    std::shared_ptr<const PosteriorDraws> draws, bool needs_rho);

/// The WindowSpec of window m under a calibration config -- the single
/// mapping both the batch and the streaming calibrators use, so their
/// windows share every knob and the per-window seed hash_combine(seed, m).
[[nodiscard]] WindowSpec make_window_spec(const CalibrationConfig& config,
                                          std::size_t m);

class SequentialCalibrator {
 public:
  SequentialCalibrator(const Simulator& sim, ObservedData data,
                       CalibrationConfig config);

  /// Calibrate the next window; returns its result.
  const WindowResult& run_next_window();

  /// Calibrate all remaining windows.
  void run_all();

  [[nodiscard]] const std::vector<WindowResult>& results() const noexcept {
    return results_;
  }
  [[nodiscard]] std::size_t windows_completed() const noexcept {
    return results_.size();
  }
  [[nodiscard]] bool finished() const noexcept {
    return results_.size() == config_.windows.size();
  }
  [[nodiscard]] const CalibrationConfig& config() const noexcept {
    return config_;
  }
  /// Shared burn-in checkpoint (valid after the first window has run).
  [[nodiscard]] const epi::Checkpoint& initial_state() const;

  /// Liveness hook, beaten once after every completed window (the
  /// supervision layer's stall detector rides this; see core/progress.hpp).
  void set_progress(ProgressReporter progress) {
    progress_ = std::move(progress);
  }

 private:
  const Simulator& sim_;
  ObservedData data_;
  CalibrationConfig config_;
  std::unique_ptr<Likelihood> likelihood_;
  std::unique_ptr<Likelihood> death_likelihood_;
  std::unique_ptr<BiasModel> bias_;
  epi::Checkpoint initial_ckpt_;           // io-boundary copy (initial_state())
  std::shared_ptr<StatePool> initial_pool_;  // pooled shared burn-in state
  std::vector<WindowResult> results_;
  ProgressReporter progress_;
};

}  // namespace epismc::core
