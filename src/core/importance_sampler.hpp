#pragma once

// Single-window importance sampling (paper Algorithm 1), single-pass.
//
//   1. Sample (theta_i, s_i, rho_i) from the window proposal.
//   2. Propagate all tuples through one fused Simulator::run_batch call
//      over a structure-of-arrays EnsembleBuffer (pool-parallel inside
//      the backend; every trajectory owns a counter-based RNG stream
//      addressed by its identity, so results are independent of thread
//      count). The same sweep applies the reporting bias, scores the
//      window likelihood against a precomputed observation cache, and --
//      under inline capture -- snapshots each sim's end-of-window state
//      into a typed StatePool, so the ensemble is touched exactly once.
//   3. Normalize weights with a single log-sum-exp pass shared with the
//      log-marginal diagnostic (core::ParticleSystem owns this
//      bookkeeping), then resample the posterior. Under an adaptive
//      InferenceStrategy, a window whose ESS collapses below the
//      configured threshold instead re-scores through a tempering ladder
//      likelihood^phi over the cached per-sim log-likelihoods (each phi
//      bisected to hold the rung ESS at the target -- pure re-weighting,
//      no extra propagation), optionally followed by PMMH-style
//      independence-rejuvenation moves drawn from the window's own
//      proposal (whose density cancels, so acceptance is exactly the
//      likelihood ratio) and propagated through the same fused batch
//      kernel. The full trace lands in WindowResult::smc.
//   4. Keep end states for the unique resampled survivors only. When
//      holding every candidate's end state fits WindowSpec's
//      inline_state_budget, the weighted pass captures them all and the
//      pool is compacted down to the survivors (O(survivors) pointer moves,
//      no re-simulation, no serialization). Otherwise the survivors are
//      replayed through the window with capture -- the fallback for states
//      too large to hold for every candidate (the ABM's agent arrays at
//      scale): re-runs cost one window of compute, and survivors are few.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>

#include "core/bias_model.hpp"
#include "core/data.hpp"
#include "core/likelihood.hpp"
#include "core/particle.hpp"
#include "core/particle_system.hpp"
#include "core/simulator.hpp"
#include "core/state_pool.hpp"
#include "stats/resampling.hpp"

namespace epismc::core {

/// Parameters proposed for one particle.
struct ProposedParams {
  double theta = 0.0;
  double rho = 1.0;
  std::uint32_t parent = 0;  // index into the parent-state pool
};

/// Callable drawing the j-th proposal; receives a dedicated engine whose
/// stream is derived from (window seed, j) so proposals are reproducible.
using ParamProposal =
    std::function<ProposedParams(rng::Engine& eng, std::uint32_t j)>;

struct WindowSpec {
  std::int32_t from_day = 0;
  std::int32_t to_day = 0;
  std::uint32_t window_index = 0;
  std::size_t n_params = 1000;      // unique (theta, rho) draws
  std::size_t replicates = 10;      // seeds per draw
  std::size_t resample_size = 2000; // posterior draws
  bool common_random_numbers = true;
  bool use_deaths = false;
  stats::ResamplingScheme scheme = stats::ResamplingScheme::kSystematic;
  std::uint64_t seed = 0;  // base randomness identity for this window

  /// Memory ceiling for inline end-state capture: the weighted pass
  /// captures every candidate's end state iff n_sims * approx_state_bytes
  /// fits; otherwise the survivors are replayed with capture afterwards.
  /// Both paths give the same bits.
  std::size_t inline_state_budget = std::size_t{512} << 20;  // 512 MiB

  /// How scored likelihoods become the posterior sample (see
  /// core::InferenceStrategy). kSingleStage is the paper's scheme and
  /// reproduces the historical path bit for bit; the adaptive strategies
  /// engage a temper ladder only when the window degenerates.
  InferenceStrategy inference = InferenceStrategy::kSingleStage;
  /// Degeneracy trigger and per-rung target, as a fraction of n_sims: the
  /// ladder engages when single-stage ESS < ess_threshold * n_sims, and
  /// each rung's temperature is bisected so the rung ESS stays at that
  /// level. Must lie in (0, 1).
  double ess_threshold = 0.5;
  /// Hard cap on ladder rungs; the last rung always completes to phi = 1
  /// (possibly below the ESS target, which the diagnostics record).
  std::size_t max_temper_stages = 12;
  /// Rejuvenation rounds after a triggered ladder (kTemperedRejuvenate).
  std::size_t rejuvenation_moves = 1;

  /// What to do with a draw whose log-likelihood scores non-finite (NaN /
  /// +inf): quarantine it to -inf with a DegeneracyReport entry, or throw
  /// CalibrationError. See core::DegeneracyPolicy.
  DegeneracyPolicy on_degenerate = DegeneracyPolicy::kQuarantine;

  /// Throws std::invalid_argument on an inverted window, zero-sized
  /// budget, or out-of-range inference knobs (ESS threshold outside
  /// (0, 1), zero ladder/move caps); `data` (when provided) must cover
  /// [from_day, to_day] and carry a death series whenever use_deaths is
  /// set. run_importance_window calls this before doing any work, so a
  /// misconfigured window fails up front instead of mid-propagation.
  void validate(const ObservedData* data = nullptr) const;
};

/// Run one calibration window; `parents` must outlive the call and must
/// come from this simulator's make_pool().
/// `case_likelihood` scores the reported-case stream, `death_likelihood`
/// the death stream (paper eq. 4 composes the two as independent factors;
/// the streams live on very different count magnitudes, so they get
/// separate error models).
[[nodiscard]] WindowResult run_importance_window(
    const Simulator& sim, const Likelihood& case_likelihood,
    const Likelihood& death_likelihood, const BiasModel& bias,
    const ObservedData& data, const StatePool& parents, const WindowSpec& spec,
    const ParamProposal& propose);

/// io-boundary overload: parent states arrive as portable checkpoints and
/// are pooled through the simulator's typed converter before the window
/// runs (one parse per parent).
[[nodiscard]] WindowResult run_importance_window(
    const Simulator& sim, const Likelihood& case_likelihood,
    const Likelihood& death_likelihood, const BiasModel& bias,
    const ObservedData& data, std::span<const epi::Checkpoint> parents,
    const WindowSpec& spec, const ParamProposal& propose);

/// Convenience overload: one error model for both streams. The forwarded
/// call validates the spec against the data up front, so a deaths-enabled
/// spec over case-only data fails with a precise message rather than deep
/// in the window loop.
[[nodiscard]] inline WindowResult run_importance_window(
    const Simulator& sim, const Likelihood& likelihood, const BiasModel& bias,
    const ObservedData& data, std::span<const epi::Checkpoint> parents,
    const WindowSpec& spec, const ParamProposal& propose) {
  return run_importance_window(sim, likelihood, likelihood, bias, data,
                               parents, spec, propose);
}

/// Pool-parent variant of the single-error-model convenience overload.
[[nodiscard]] inline WindowResult run_importance_window(
    const Simulator& sim, const Likelihood& likelihood, const BiasModel& bias,
    const ObservedData& data, const StatePool& parents, const WindowSpec& spec,
    const ParamProposal& propose) {
  return run_importance_window(sim, likelihood, likelihood, bias, data,
                               parents, spec, propose);
}

namespace detail {

// --- Shared window internals (the streaming calibrator reuses these). ------
//
// src/stream/ splits a window's weighted pass into per-day increments but
// must land on the same posterior bits as run_importance_window. These
// helpers are the single source of truth for a window's stream identities
// and for the post-scoring pipeline (normalize -> strategy dispatch ->
// survivor compaction -> rejuvenation), so the streaming path re-uses the
// batch machinery instead of re-implementing it.

/// The degeneracy classification both scoring paths share: NaN and +inf
/// are numerical failures (demote / throw per policy); -inf is a
/// legitimate impossible trajectory and passes through untouched.
[[nodiscard]] inline bool nonfinite_score(double logw) noexcept {
  return std::isnan(logw) ||
         logw == std::numeric_limits<double>::infinity();
}

/// Fold per-sim quarantine flags (1 = demoted this pass) into a report.
[[nodiscard]] DegeneracyReport collect_degenerate(
    std::span<const std::uint8_t> flags);

/// The kThrow action, shared by the batch window and the streaming day:
/// raises CalibrationError naming `where` and the first offending draws.
[[noreturn]] void throw_degenerate(const std::string& where,
                                   const DegeneracyReport& report);

/// Engine drawing the j-th proposal of a window.
[[nodiscard]] rng::PhiloxEngine proposal_engine(const WindowSpec& spec,
                                                std::uint32_t j);
/// Model-stream key of sim (draw j, replicate r); depends only on r under
/// common random numbers.
[[nodiscard]] std::uint64_t model_stream_key(const WindowSpec& spec,
                                             std::uint32_t j, std::uint32_t r);
/// Bias engine of sim (draw j, replicate r) at its start-of-window
/// position. Bias draws are consumed day-sequentially, so a per-day split
/// that persists this engine across days is bit-identical to one
/// whole-window apply_into call.
[[nodiscard]] rng::PhiloxEngine bias_engine(const WindowSpec& spec,
                                            std::uint32_t j, std::uint32_t r);
/// Engine of the single-stage posterior resample.
[[nodiscard]] rng::PhiloxEngine resample_engine(const WindowSpec& spec);

/// Stages 1-2 of a window: draw the spec's n_params proposals from their
/// per-(window, j) engines and fill the ensemble's identity / parameter /
/// RNG columns. `ens` must be presized to n_params * replicates rows.
void layout_window_ensemble(const WindowSpec& spec, const StatePool& parents,
                            const ParamProposal& propose, EnsembleBuffer& ens);

/// Everything the post-scoring pipeline reads. References must outlive the
/// resolve_window_posterior call (they are call-scoped, not stored).
struct WindowPosteriorInputs {
  const Simulator& sim;
  const Likelihood& case_likelihood;
  const Likelihood& death_likelihood;
  const BiasModel& bias;
  const StatePool& parents;
  const WindowSpec& spec;
  const ParamProposal& propose;
  const ObservationCache& case_cache;   // prepared over the full window
  const ObservationCache& death_cache;  // empty unless spec.use_deaths
  /// Full-window log-likelihood per sim for rejuvenation acceptance.
  /// Empty means "use the ensemble's log_weight column" (the batch case);
  /// the streaming driver passes its own accumulators here because after a
  /// mid-window resample the log_weight column only covers the tail.
  std::span<const double> rejuvenation_loglik = {};
  /// The window's observed case (and, under use_deaths, death) counts, one
  /// per window day: rejuvenation scores proposals day by day from one-day
  /// caches of them to stop hopeless ones early.
  std::span<const double> observed_cases = {};
  std::span<const double> observed_deaths = {};
  /// Draws the scoring pass quarantined (log-likelihood demoted to -inf
  /// under DegeneracyPolicy::kQuarantine); copied onto result.smc and
  /// cited when the whole window turns out degenerate.
  DegeneracyReport degeneracy = {};
};

/// Stages 3-6 of a window, operating on result.ensemble (whose log_weight
/// column must hold the scored per-sim log-likelihoods): normalize weights
/// and diagnostics, dispatch the inference strategy (single resample or
/// ESS-triggered temper ladder), keep end states for the unique survivors
/// (compacting `capture` under inline capture, deferred replay otherwise),
/// and run rejuvenation moves when the strategy asks for them. Fills
/// result.{weights, resampled, state_pool, sim_to_state, rejuvenated,
/// diag, smc} exactly as run_importance_window does.
void resolve_window_posterior(const WindowPosteriorInputs& in,
                              std::shared_ptr<StatePool> capture,
                              bool inline_capture, WindowResult& result);

}  // namespace detail

}  // namespace epismc::core
