#pragma once

// Particle bookkeeping for one calibration window.
//
// A "particle" is the paper's (theta, s, rho) tuple: transmission rate,
// random seed, reporting probability. Each unique (theta, rho) draw is
// replicated over R seeds (with common random numbers across draws, as in
// §V-B), so a window propagates n_params * R simulated trajectories. The
// trajectories live in a batched structure-of-arrays EnsembleBuffer (see
// core/ensemble.hpp) rather than per-sim records: one flat day-major
// matrix per output series plus flat identity/parameter/weight columns.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/ensemble.hpp"
#include "core/particle_system.hpp"
#include "core/state_pool.hpp"
#include "epi/seir_model.hpp"

namespace epismc::core {

/// Health metrics of one importance-sampling window.
struct WindowDiagnostics {
  double ess = 0.0;             // Kish effective sample size
  double perplexity = 0.0;      // exp(entropy)/N in (0, 1]
  double max_weight = 0.0;      // largest normalized weight
  double log_marginal = 0.0;    // log (1/N sum w): evidence increment
  std::size_t unique_resampled = 0;
  std::size_t n_sims = 0;
  /// Wall time of the fused batched sweep: propagate + bias + likelihood
  /// (+ inline end-state capture when inline_capture is set).
  double propagate_seconds = 0.0;
  /// Wall time of keeping the survivors' end states: a pool compaction
  /// under inline capture, a replay of the survivors otherwise.
  double checkpoint_seconds = 0.0;
  /// True when end states were captured inline during the weighted pass
  /// (n_sims * approx_state_bytes fit WindowSpec::inline_state_budget);
  /// false when the survivors were replayed with capture afterwards.
  bool inline_capture = false;

  /// Field by field through the binary archive, as SmcDiagnostics; the
  /// stream checkpoint and the sweep cell archive share this layout.
  static constexpr std::size_t kArchiveBytes =
      6 * sizeof(double) + 2 * sizeof(std::uint64_t) + sizeof(std::uint8_t);
  void serialize(io::BinaryWriter& out) const;
  [[nodiscard]] static WindowDiagnostics deserialize(io::BinaryReader& in);
};

/// Post-rejuvenation overlay: when the window's inference strategy ran
/// PMMH-style rejuvenation moves, some posterior draws were replaced by
/// freshly propagated particles that have no row in the weighted ensemble.
/// The overlay carries the final per-draw parameters, the per-draw state
/// slot, and the moved draws' output series, so every consumer reads the
/// posterior through the draw_* accessors below and never notices whether
/// a draw is an original sim or a moved particle.
struct RejuvenatedDraws {
  std::vector<std::uint8_t> moved;       // per draw: 1 if an MH move landed
  std::vector<double> theta;             // final per-draw parameters
  std::vector<double> rho;
  std::vector<std::uint32_t> state_slot; // per draw -> state_pool slot
  /// Output series of the moved draws only (one row per accepted move;
  /// un-moved draws keep reading the weighted ensemble), addressed through
  /// series_row: draw -> row of `series`, kNoRow where not moved.
  EnsembleBuffer series;
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> series_row;
};

/// Everything produced by calibrating one window.
struct WindowResult {
  std::int32_t from_day = 0;
  std::int32_t to_day = 0;

  /// All propagated trajectories: series rows + identity/parameter/weight
  /// columns, indexed by sim (sim = param_index * replicates + replicate).
  EnsembleBuffer ensemble;
  std::vector<double> weights;      // normalized importance weights per sim
  std::vector<std::uint32_t> resampled;  // posterior draws: sim indices

  /// End-of-window states of the *unique* resampled sims, held in the
  /// backend's typed state pool (slot u = u-th unique survivor in sim
  /// order). No byte serialization: the next window, forecasts and the
  /// api layer branch straight from the pooled typed states; use
  /// state_checkpoint() to cross the io boundary.
  std::shared_ptr<StatePool> state_pool;
  static constexpr std::uint32_t kNoState =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> sim_to_state;  // sim index -> pool slot

  /// Present only when rejuvenation moves ran (see RejuvenatedDraws).
  std::optional<RejuvenatedDraws> rejuvenated;

  WindowDiagnostics diag;
  /// Adaptive-SMC trace: temper ladder, ESS recovery, move acceptance.
  SmcDiagnostics smc;

  [[nodiscard]] std::size_t n_sims() const noexcept { return ensemble.size(); }

  // --- Draw-level posterior view. ------------------------------------------
  // Draw i of the final posterior sample: an original ensemble sim
  // (resampled[i]) unless a rejuvenation move replaced it. All posterior
  // consumers (summaries, forecasts, the next window's proposal) go
  // through these accessors so the strategies stay interchangeable.
  [[nodiscard]] std::size_t n_draws() const noexcept {
    return resampled.size();
  }
  [[nodiscard]] double draw_theta(std::size_t i) const;
  [[nodiscard]] double draw_rho(std::size_t i) const;
  /// Pool slot of draw i's end-of-window state; throws std::logic_error
  /// when no state was kept for it.
  [[nodiscard]] std::uint32_t draw_state_slot(std::size_t i) const;
  /// Output-series row backing draw i (moved draws read the overlay).
  [[nodiscard]] std::span<const double> draw_series(EnsembleBuffer::Series s,
                                                    std::size_t i) const;

  /// Number of kept end-of-window states: the unique resampled survivors
  /// (== diag.unique_resampled) plus, after rejuvenation moves, one state
  /// per accepted move.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return state_pool ? state_pool->size() : 0;
  }

  /// Serialize sim `s`'s end-of-window state into the portable checkpoint
  /// format (io boundary). Throws std::logic_error when `s` was not a
  /// resampled survivor (no state was kept for it).
  [[nodiscard]] epi::Checkpoint state_checkpoint(std::uint32_t s) const;

  /// Posterior parameter samples, expanded over the resampled draws.
  [[nodiscard]] std::vector<double> posterior_thetas() const;
  [[nodiscard]] std::vector<double> posterior_rhos() const;

  /// Per-day posterior quantile band over a resampled output series.
  /// `field` selects which matrix of the ensemble to summarize.
  using Series = EnsembleBuffer::Series;
  [[nodiscard]] std::vector<double> posterior_quantile(Series field,
                                                       double q) const;

  [[nodiscard]] std::size_t window_length() const {
    return static_cast<std::size_t>(to_day - from_day + 1);
  }
};

/// Dump the adaptive-SMC diagnostics of completed windows as CSV, one row
/// per ladder rung plus one row per rejuvenation round:
///   window,from_day,to_day,strategy,kind,index,phi,ess,
///   log_marginal_increment,acceptance_rate
/// kind is "stage" (acceptance_rate empty) or "move" (phi/ess are the
/// final rung's values, acceptance_rate is the round's fraction).
void write_smc_diagnostics_csv(std::ostream& os,
                               std::span<const WindowResult> windows);

}  // namespace epismc::core
