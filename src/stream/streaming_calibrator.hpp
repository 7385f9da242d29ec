#pragma once

// Online streaming calibration: assimilate surveillance counts one day at
// a time instead of replaying whole windows.
//
// The batch SequentialCalibrator scores a window only once all of its days
// are known. A StreamingCalibrator is the long-lived counterpart for live
// surveillance feeds: each ingest() advances every particle's *live* model
// state exactly one day through the fused batch kernel (no window replay
// -- Simulator::advance_batch continues each model's own RNG engine in
// place), applies the reporting bias through a per-sim engine persisted
// across days, folds the day's likelihood term into per-sim accumulators,
// and re-commits the particle weights. At a window boundary the
// accumulated ensemble is handed to the *batch* post-scoring pipeline
// (core::detail::resolve_window_posterior -- normalize, strategy dispatch,
// survivor compaction, rejuvenation), so the streaming path re-uses the
// PR-5 inference machinery rather than re-implementing it.
//
// Equivalence contract (locked in by tests/stream_calibrator_test.cpp):
// with mid-window resampling off (or never triggered), streaming days
// [from, to] is *bit-identical* to run_importance_window over the same
// window -- same proposal engines, same model streams, same bias draws,
// same left-to-right likelihood fold, same resample engine. With
// mid-window resamples the posterior is distribution-equivalent
// (paired-seed moment bound), which is the point: the cloud is steered
// toward the data mid-window instead of degenerating at the boundary.
//
// The whole session serializes to a versioned StreamState archive
// (snapshot()/save()); restore()/load() resumes bit-exactly on another
// process, mid-window included.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/particle_system.hpp"
#include "core/sequential_calibrator.hpp"
#include "io/checkpoint_rotation.hpp"
#include "stream/stream_state.hpp"

namespace epismc::stream {

class StreamingCalibrator {
 public:
  /// Validates `config` (StreamConfig::validate) and resolves the
  /// likelihood/bias components eagerly. `sim` must outlive the
  /// calibrator.
  StreamingCalibrator(const core::Simulator& sim, StreamConfig config);

  /// Assimilate one day of observations. Days must arrive contiguously,
  /// starting at the first window's first day; throws std::logic_error
  /// once all windows are assimilated and std::invalid_argument on an
  /// out-of-order day, a gap, or a missing death count under use_deaths
  /// -- each message names the offending day. Returns this day's
  /// diagnostics record.
  const StreamDayRecord& ingest(const DailyObservation& obs);

  // --- Cursor. --------------------------------------------------------------
  /// Day the next ingest() must carry; stays past-the-end once finished().
  [[nodiscard]] std::int32_t next_expected_day() const;
  /// Last assimilated day; throws std::logic_error before the first ingest.
  [[nodiscard]] std::int32_t last_assimilated_day() const;
  [[nodiscard]] bool window_open() const noexcept { return window_open_; }
  [[nodiscard]] bool finished() const noexcept {
    return window_index_ ==
               static_cast<std::uint32_t>(
                   config_.calibration.windows.size()) &&
           !window_open_;
  }
  [[nodiscard]] std::size_t windows_completed() const noexcept {
    return history_.size();
  }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  // --- Results. -------------------------------------------------------------
  /// Full WindowResults of windows completed *by this process*. A resumed
  /// session starts this list empty (full results are too heavy for the
  /// checkpoint archive); history() always covers the whole run.
  [[nodiscard]] const std::vector<core::WindowResult>& results()
      const noexcept {
    return results_;
  }
  /// Per-window diagnostics + posterior summaries over the whole session,
  /// resumes included.
  [[nodiscard]] const std::vector<StreamWindowRecord>& history()
      const noexcept {
    return history_;
  }
  /// Per-day assimilation records over the whole session.
  [[nodiscard]] const std::vector<StreamDayRecord>& day_records()
      const noexcept {
    return days_;
  }

  // --- Checkpoint / resume. -------------------------------------------------
  /// Full-session snapshot; valid between ingest() calls (never inside
  /// one). Restoring it -- on this or another process, via restore() --
  /// continues the stream bit-exactly.
  [[nodiscard]] StreamState snapshot() const;
  /// Throws std::invalid_argument when the snapshot's config fingerprint
  /// or simulator backend does not match this calibrator's.
  void restore(const StreamState& state);
  void save(const std::filesystem::path& path) const;
  void load(const std::filesystem::path& path);

  /// Force a rotated checkpoint right now, regardless of the
  /// checkpoint_every cadence (supervised sessions call this once at end
  /// of feed so the terminal state is always durable). Requires a
  /// configured checkpoint_path; resets the cadence counter.
  void checkpoint_now();

  /// Crash recovery over the rotated checkpoint slots of the configured
  /// checkpoint_path: restores the newest CRC-passing slot, falling back
  /// to the older one when the newest is torn/corrupt, and reports what
  /// was recovered (path, generation, whether a fallback happened).
  /// Returns nullopt -- leaving the session fresh -- when neither slot
  /// exists yet; throws io::ArchiveError when slots exist but none is
  /// usable, std::logic_error when no checkpoint_path is configured, and
  /// std::invalid_argument when a usable slot belongs to a different
  /// config/simulator (a fingerprint mismatch is not recoverable by
  /// falling back -- both slots came from the same session).
  std::optional<io::RecoveredSlot> resume_latest();
  /// The last resume_latest recovery, if one happened this process.
  [[nodiscard]] const std::optional<io::RecoveredSlot>& last_recovery()
      const noexcept {
    return last_recovery_;
  }

  /// Liveness hook, beaten once per assimilated day (after any window
  /// finalization and checkpoint for that day). See core/progress.hpp.
  void set_progress(core::ProgressReporter progress) {
    progress_ = std::move(progress);
  }

 private:
  void open_window();
  void assimilate_day(const DailyObservation& obs);
  void resample_cloud(std::int32_t day);
  void finalize_window();
  void close_window_members();
  void maybe_checkpoint();
  /// The one rotated-save path behind maybe_checkpoint and checkpoint_now:
  /// resets the cadence counter, snapshots, and returns once the slot is
  /// durable.
  void save_rotated();
  [[nodiscard]] std::size_t n_sims() const noexcept {
    return config_.calibration.n_params * config_.calibration.replicates;
  }

  const core::Simulator& sim_;
  StreamConfig config_;
  std::unique_ptr<core::Likelihood> likelihood_;
  std::unique_ptr<core::Likelihood> death_likelihood_;
  std::unique_ptr<core::BiasModel> bias_;
  bool needs_rho_ = false;

  // Cursor.
  std::int32_t cursor_ = 0;
  bool any_assimilated_ = false;
  std::uint32_t window_index_ = 0;
  bool window_open_ = false;
  std::uint64_t days_since_checkpoint_ = 0;

  // Cross-window state.
  bool has_initial_ = false;
  epi::Checkpoint initial_ckpt_;  // shared burn-in state (window 0)
  std::shared_ptr<const core::PosteriorDraws> prev_draws_;
  std::shared_ptr<core::StatePool> parents_;

  // Open-window state (valid while window_open_).
  core::WindowSpec spec_;
  core::ParamProposal propose_;
  core::EnsembleBuffer win_ens_;  // full-window rows, filled day by day
  core::EnsembleBuffer day_ens_;  // 1-day scratch the kernels write into
  std::shared_ptr<core::StatePool> cloud_;  // live states, slot per sim
  std::vector<double> win_obs_cases_, win_obs_deaths_;
  std::vector<double> case_acc_, death_acc_;       // since last resample
  std::vector<double> full_case_acc_, full_death_acc_;  // whole window
  // Day-scoring scratch: raw per-day terms land here first so a kThrow
  // degeneracy can abort before any accumulator is touched; quarantined
  // (demoted) terms then fold in as -inf. win_degen_ marks draws with at
  // least one demoted day this window (remapped by ancestor on resample).
  std::vector<double> day_case_term_, day_death_term_;
  std::vector<std::uint8_t> day_degen_, win_degen_;
  std::vector<rng::PhiloxEngine> bias_eng_;
  double log_marginal_acc_ = 0.0;
  std::uint32_t midwindow_resamples_ = 0;
  double propagate_seconds_ = 0.0;
  core::ParticleSystem ps_;
  std::vector<double> lw_scratch_;

  // Results.
  std::vector<core::WindowResult> results_;
  std::vector<StreamWindowRecord> history_;
  std::vector<StreamDayRecord> days_;
  std::optional<io::RecoveredSlot> last_recovery_;
  core::ProgressReporter progress_;
};

}  // namespace epismc::stream
