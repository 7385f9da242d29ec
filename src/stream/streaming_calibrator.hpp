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
// process, mid-window included. Everything valid only while a window is
// open lives in one OpenWindow record, which open_window() and restore()
// build through the same make_window(); restore then overlays the
// archived values, after checking the snapshot's shape.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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
  [[nodiscard]] bool window_open() const noexcept { return win_.has_value(); }
  [[nodiscard]] bool finished() const noexcept {
    return window_index_ ==
               static_cast<std::uint32_t>(
                   config_.calibration.windows.size()) &&
           !win_;
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
  /// or simulator backend does not match this calibrator's, and
  /// io::ArchiveError(kCorrupt) naming the field when the snapshot's shape
  /// is inconsistent (a vector of the wrong length, a cursor outside its
  /// window, a parent slot past the parent pool, ...). Either way the
  /// calibrator is left exactly as it was.
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
  /// Everything that lives only while a window is open.
  struct OpenWindow {
    core::WindowSpec spec;
    core::ParamProposal propose;
    core::EnsembleBuffer ens;      // full-window rows, filled day by day
    core::EnsembleBuffer day_ens;  // 1-day scratch the kernels write into
    std::shared_ptr<core::StatePool> cloud;  // live states, slot per sim
    std::vector<double> obs_cases, obs_deaths;
    std::vector<double> case_acc, death_acc;            // since last resample
    std::vector<double> full_case_acc, full_death_acc;  // whole window
    // Day-scoring scratch: raw per-day terms land here first so a kThrow
    // degeneracy can abort before any accumulator is touched; quarantined
    // (demoted) terms then fold in as -inf. `degen` marks draws with at
    // least one demoted day this window (remapped by ancestor on resample).
    std::vector<double> day_case_term, day_death_term;
    std::vector<std::uint8_t> day_degen, degen;
    std::vector<rng::PhiloxEngine> bias_eng;
    double log_marginal_acc = 0.0;
    std::uint32_t midwindow_resamples = 0;
    double propagate_seconds = 0.0;
    core::ParticleSystem ps;
    std::vector<double> lw_scratch;
  };

  /// The one set-up of window `m` behind open_window() and restore(): spec,
  /// proposal, identity layout over `parents`, 1-day buffer, an empty cloud,
  /// zeroed accumulators, start-of-window bias engines and the particle
  /// system. Touches no member.
  [[nodiscard]] OpenWindow make_window(
      std::uint32_t m, const core::StatePool& parents,
      const std::shared_ptr<const core::PosteriorDraws>& prev) const;
  /// A pool holding `states`, slot i from states[i].
  [[nodiscard]] std::shared_ptr<core::StatePool> load_pool(
      std::span<const epi::Checkpoint> states) const;
  void open_window();
  void assimilate_day(const DailyObservation& obs);
  void resample_cloud(std::int32_t day);
  void finalize_window();
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
  std::uint64_t days_since_checkpoint_ = 0;

  // Cross-window state.
  bool has_initial_ = false;
  epi::Checkpoint initial_ckpt_;  // shared burn-in state (window 0)
  std::shared_ptr<const core::PosteriorDraws> prev_draws_;
  std::shared_ptr<core::StatePool> parents_;

  std::optional<OpenWindow> win_;  // engaged while a window is open

  // Results.
  std::vector<core::WindowResult> results_;
  std::vector<StreamWindowRecord> history_;
  std::vector<StreamDayRecord> days_;
  std::optional<io::RecoveredSlot> last_recovery_;
  core::ProgressReporter progress_;
};

}  // namespace epismc::stream
