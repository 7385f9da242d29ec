#pragma once

// Batched structure-of-arrays storage for one window's simulated ensemble.
//
// The importance-sampling hot path propagates n_params * replicates
// trajectories per window. Storing each trajectory as its own heap object
// (the pre-refactor SimRecord with three per-record std::vector series)
// cost 3 allocations per sim and scattered the ensemble across the heap.
// An EnsembleBuffer instead owns one flat day-major matrix per output
// series -- true cases, biased observations, deaths -- of shape
// (n_sims, window_len) in a single allocation each, plus flat columns for
// the per-sim identity (param draw, replicate, parent), parameters
// (theta, rho), RNG addressing (seed, stream) and log-weights. Row views
// are std::span, so likelihood and bias evaluation read/write the matrix
// in place and simulator batch backends fill rows without intermediate
// copies. The layout is also the substrate later scaling work (sharding,
// SIMD/GPU batch kernels, SMC^2) operates on.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace epismc::core {

class EnsembleBuffer {
 public:
  /// Which day-major output matrix a row view refers to.
  enum class Series { kTrueCases, kObsCases, kDeaths };

  EnsembleBuffer() = default;
  EnsembleBuffer(std::size_t n_sims, std::size_t window_len) {
    resize(n_sims, window_len);
  }

  /// (Re)shape to `n_sims` rows of `window_len` days. Existing contents are
  /// not preserved; capacity is reused, so resizing a long-lived buffer
  /// between windows (or PMMH iterations) does not reallocate.
  void resize(std::size_t n_sims, std::size_t window_len);

  [[nodiscard]] std::size_t size() const noexcept { return n_sims_; }
  [[nodiscard]] bool empty() const noexcept { return n_sims_ == 0; }
  [[nodiscard]] std::size_t window_len() const noexcept { return window_len_; }

  // --- Day-major row views (row s covers the window's days). --------------
  [[nodiscard]] std::span<double> true_cases(std::size_t s) noexcept {
    return row(true_cases_, s);
  }
  [[nodiscard]] std::span<const double> true_cases(std::size_t s) const noexcept {
    return row(true_cases_, s);
  }
  [[nodiscard]] std::span<double> obs_cases(std::size_t s) noexcept {
    return row(obs_cases_, s);
  }
  [[nodiscard]] std::span<const double> obs_cases(std::size_t s) const noexcept {
    return row(obs_cases_, s);
  }
  [[nodiscard]] std::span<double> deaths(std::size_t s) noexcept {
    return row(deaths_, s);
  }
  [[nodiscard]] std::span<const double> deaths(std::size_t s) const noexcept {
    return row(deaths_, s);
  }
  [[nodiscard]] std::span<const double> series(Series which,
                                               std::size_t s) const;
  [[nodiscard]] std::span<double> series(Series which, std::size_t s);

  /// Store the trailing window_len() days of `full_series` into row `s` of
  /// matrix `which`. A branched run may start before the window (the parent
  /// checkpoint can sit at day 0), so the leading days are dropped; a series
  /// *shorter* than the window means the parent state sits inside the
  /// window, which is a wiring bug -- throws std::logic_error naming the
  /// offending sim. This is the single shared "keep the window tail" helper
  /// used by the weighted pass, the checkpoint-replay pass, and every
  /// run_batch implementation.
  void store_tail(Series which, std::size_t s,
                  std::span<const double> full_series);

  /// Copy row `from` of `src` into row `to`: the seven identity columns
  /// (param_index, replicate, parent, theta, rho, seed, stream) and the
  /// first `days` days of each series; log_weight is left alone. The one
  /// row copy behind resampling, replays and checkpoint prefixes; throws
  /// std::out_of_range when `days` exceeds either row.
  void copy_row(std::size_t to, const EnsembleBuffer& src, std::size_t from,
                std::size_t days = 0);

  /// A whole day-major series matrix: size() rows of window_len() days.
  [[nodiscard]] std::span<double> matrix(Series which) {
    return {series(which, 0).data(), n_sims_ * window_len_};
  }

  // --- Flat per-sim columns (all sized size() by resize()). ----------------
  std::vector<std::uint32_t> param_index;  // which (theta, rho) draw
  std::vector<std::uint32_t> replicate;    // which replicate seed
  std::vector<std::uint32_t> parent;       // index into the parent states
  std::vector<double> theta;
  std::vector<double> rho;
  std::vector<std::uint64_t> seed;    // RNG identity of the model run
  std::vector<std::uint64_t> stream;  // companion stream id
  std::vector<double> log_weight;

 private:
  [[nodiscard]] std::span<double> row(std::vector<double>& m,
                                      std::size_t s) noexcept {
    return {m.data() + s * window_len_, window_len_};
  }
  [[nodiscard]] std::span<const double> row(const std::vector<double>& m,
                                            std::size_t s) const noexcept {
    return {m.data() + s * window_len_, window_len_};
  }

  std::size_t n_sims_ = 0;
  std::size_t window_len_ = 0;
  std::vector<double> true_cases_;  // n_sims x window_len, day-major
  std::vector<double> obs_cases_;
  std::vector<double> deaths_;
};

}  // namespace epismc::core
