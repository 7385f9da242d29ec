#pragma once

// Ingress types and the versioned checkpoint archive of the streaming
// calibrator (src/stream/streaming_calibrator.hpp is the driver).
//
// StreamState is a full snapshot of a StreamingCalibrator's session:
// particle cloud, ensemble prefix, RNG stream positions, likelihood
// accumulators, diagnostics history and the assimilated-day cursor.
// Restoring it on another process resumes the stream bit-exactly -- the
// equivalence tests compare resumed-vs-uninterrupted posteriors byte for
// byte. The archive is versioned (kArchiveVersion) and tagged
// (kArchiveTag), so a corrupted, truncated or future-format file fails
// with a precise io::ArchiveError instead of garbage state.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/particle.hpp"
#include "core/posterior.hpp"
#include "core/sequential_calibrator.hpp"
#include "epi/seir_model.hpp"
#include "io/binary_archive.hpp"

namespace epismc::stream {

/// One day of observed surveillance counts, the streaming ingress unit.
/// `deaths` is required when the calibration scores the death stream
/// (CalibrationConfig::use_deaths) and ignored otherwise.
struct DailyObservation {
  std::int32_t day = 0;
  double cases = 0.0;
  std::optional<double> deaths;
};

/// Streaming-session configuration: the batch CalibrationConfig (windows,
/// budgets, priors, inference strategy -- the streaming path shares every
/// knob) plus the streaming-only knobs.
struct StreamConfig {
  core::CalibrationConfig calibration;

  /// Automatic checkpointing: every `checkpoint_every` assimilated days
  /// the session is archived through dual-slot rotation derived from
  /// `checkpoint_path` (`<path>.a` / `<path>.b`, generation-stamped; see
  /// io::CheckpointRotation), so a crash at any instant -- mid-save
  /// included -- leaves at least one durable CRC-verified checkpoint.
  /// Both knobs default off; setting either requires the other.
  std::int64_t checkpoint_every = 0;
  std::filesystem::path checkpoint_path;

  /// Under an adaptive inference strategy, resample the live cloud
  /// mid-window whenever a day's cumulative ESS drops below the config's
  /// ess_threshold. Off, the cloud coasts to the window boundary and the
  /// batch machinery handles degeneracy there (bit-identical to batch).
  bool resample_mid_window = true;

  /// Fail-fast validation: delegates to calibration.validate(), then
  /// rejects a non-positive checkpoint interval or a missing checkpoint
  /// path with precise messages.
  void validate() const;
};

/// Per-day assimilation record (the streaming analogue of a window's
/// WindowDiagnostics, at day granularity).
struct StreamDayRecord {
  std::int32_t day = 0;
  std::uint32_t window = 0;  // window index the day belongs to
  double ess = 0.0;          // ESS of the weights accumulated since the
                             // last (mid-window) resample, after this day
  bool resampled = false;    // a mid-window resample fired on this day
  double log_marginal = 0.0; // evidence of the since-resample weights
  double seconds = 0.0;      // wall time of this day's assimilation
  /// Draws whose day-term scored non-finite and were quarantined to -inf
  /// under DegeneracyPolicy::kQuarantine (0 on healthy days).
  std::uint32_t demoted = 0;
};

/// Per-window summary kept in the streaming history. Unlike the full
/// WindowResult (whose ensemble is O(n_sims * window_len)), this is small
/// enough to archive for every completed window, so a resumed session
/// still reports the whole run.
struct StreamWindowRecord {
  std::int32_t from_day = 0;
  std::int32_t to_day = 0;
  core::WindowDiagnostics diag;
  core::SmcDiagnostics smc;
  core::WindowPosteriorSummary summary;
};

/// Snapshot of a streaming session; see the header comment. The
/// `open-window` fields are the calibrator's open-window record (its
/// ensemble prefix flattened to n_sims x days rows) and are meaningful
/// only when `window_open` is set; StreamingCalibrator::restore checks
/// their shape before it commits.
struct StreamState {
  // v2: per-day demoted counts, open-window degenerate-draw flags
  // (fault-tolerant degeneracy handling).
  static constexpr std::uint32_t kArchiveVersion = 2;
  static constexpr const char* kArchiveTag = "epismc-stream";

  /// Guard against resuming under a different configuration: a hash over
  /// the numeric/name config fields (priors excluded -- they are
  /// polymorphic; keep them identical across processes yourself).
  std::uint64_t config_fingerprint = 0;
  std::string simulator_name;

  // --- Cursor. --------------------------------------------------------------
  std::int32_t cursor = 0;          // last assimilated day
  bool any_assimilated = false;
  std::uint32_t window_index = 0;   // window currently open / next to open
  bool window_open = false;
  std::uint64_t days_since_checkpoint = 0;

  // --- History (all completed windows + every assimilated day). ------------
  std::vector<StreamWindowRecord> history;
  std::vector<StreamDayRecord> days;

  // --- Cross-window state. --------------------------------------------------
  bool has_initial = false;
  epi::Checkpoint initial;            // shared burn-in state (window 0)
  bool has_posterior = false;
  core::PosteriorDraws posterior;     // previous window's posterior draws
  std::vector<epi::Checkpoint> parent_pool;  // previous window's end states

  // --- Open-window state. ---------------------------------------------------
  std::vector<double> obs_cases;   // days assimilated so far, in day order
  std::vector<double> obs_deaths;  // parallel to obs_cases iff use_deaths
  std::uint64_t n_sims = 0;
  std::vector<std::uint32_t> param_index, replicate, parent;
  std::vector<double> theta, rho;
  std::vector<std::uint64_t> seed, stream;
  // Assimilated prefix of the window's series matrices, day-major rows of
  // length obs_cases.size() per sim.
  std::vector<double> true_cases_prefix, obs_cases_prefix, deaths_prefix;
  // Likelihood accumulators: since the last mid-window resample (the SMC
  // weights) and over the full window (rejuvenation acceptance).
  std::vector<double> case_acc, death_acc, full_case_acc, full_death_acc;
  // Per-sim bias engines as (stream, position); the seed is the window's.
  std::vector<std::uint64_t> bias_stream, bias_position;
  std::vector<epi::Checkpoint> cloud;  // live particle states, slot per sim
  double log_marginal_acc = 0.0;       // evidence folded at resamples
  std::uint32_t midwindow_resamples = 0;
  double propagate_seconds = 0.0;
  // Per-distinct-draw quarantine flags of the open window (1 = some day
  // term of that draw was demoted to -inf); folded into the window's
  // DegeneracyReport at the boundary.
  std::vector<std::uint8_t> degenerate_draw;

  void serialize(io::BinaryWriter& out) const;
  /// Throws io::ArchiveError on a wrong tag, an unsupported version, or a
  /// truncated payload -- each names what it saw and what it expected.
  [[nodiscard]] static StreamState deserialize(io::BinaryReader& in);

  /// Atomic write of tag + snapshot at kArchiveVersion.
  void save(const std::filesystem::path& path) const;
  [[nodiscard]] static StreamState load(const std::filesystem::path& path);
};

/// The fingerprint StreamState stores; exposed so tests can assert the
/// guard trips on a config drift.
[[nodiscard]] std::uint64_t config_fingerprint(const StreamConfig& config);

/// Per-day diagnostics as CSV (day, window, ess, resampled, log_marginal,
/// seconds, demoted); doubles are written round-trip exact.
void write_stream_day_csv(std::ostream& out,
                          const std::vector<StreamDayRecord>& days);

}  // namespace epismc::stream
