#pragma once

// Posterior summaries across calibration windows.
//
// Helpers that turn WindowResults into the quantities the paper reports:
// marginal (theta, rho) summaries per window, credible ribbons over output
// series, joint KDEs for the contour panels, and posterior-predictive
// forecasts branched from posterior checkpoints.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/particle.hpp"
#include "core/simulator.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"

namespace epismc::core {

/// Marginal posterior summary of one scalar parameter in one window.
struct ParameterSummary {
  double mean = 0.0;
  double sd = 0.0;
  double median = 0.0;
  stats::Interval ci50;
  stats::Interval ci90;

  /// Field by field: mean, sd, median, ci50 lo/hi, ci90 lo/hi.
  static constexpr std::size_t kArchiveBytes = 7 * sizeof(double);
  void serialize(io::BinaryWriter& out) const;
  [[nodiscard]] static ParameterSummary deserialize(io::BinaryReader& in);
};

[[nodiscard]] ParameterSummary summarize_parameter(
    const std::vector<double>& draws);

/// Both parameters of one window.
struct WindowPosteriorSummary {
  std::int32_t from_day = 0;
  std::int32_t to_day = 0;
  ParameterSummary theta;
  ParameterSummary rho;

  static constexpr std::size_t kArchiveBytes =
      2 * sizeof(std::int32_t) + 2 * ParameterSummary::kArchiveBytes;
  void serialize(io::BinaryWriter& out) const;
  [[nodiscard]] static WindowPosteriorSummary deserialize(io::BinaryReader& in);
};

[[nodiscard]] WindowPosteriorSummary summarize_window(
    const WindowResult& window);

/// Joint (theta, rho) KDE over the resampled posterior of a window,
/// evaluated on a regular grid (the Fig 4b / 5b contour input).
[[nodiscard]] stats::Kde2dResult joint_posterior_kde(
    const WindowResult& window, double theta_lo, double theta_hi,
    double rho_lo, double rho_hi, std::size_t grid = 64);

/// Credible ribbon over a posterior output series: lower/median/upper per
/// day for the given central mass (e.g. 0.9 -> 5% and 95% quantiles).
struct Ribbon {
  std::vector<double> lo;
  std::vector<double> mid;
  std::vector<double> hi;
};

[[nodiscard]] Ribbon posterior_ribbon(const WindowResult& window,
                                      WindowResult::Series series,
                                      double level);

/// Posterior-predictive forecast: branch fresh-seed runs from the
/// posterior end states of `window` and simulate through `horizon_day`.
/// Returns the per-day forecast matrix (row per run).
struct Forecast {
  std::int32_t from_day = 0;
  std::int32_t to_day = 0;
  std::vector<std::vector<double>> true_cases;  // one row per sampled run
  std::vector<std::vector<double>> deaths;

  [[nodiscard]] Ribbon case_ribbon(double level) const;
};

/// Each draw keeps its own posterior theta unless `theta_override` is set,
/// in which case every branch runs under that rate (intervention what-ifs).
/// Overridden and non-overridden forecasts with the same seed share random
/// streams, so intervention effects are common-random-number paired.
[[nodiscard]] Forecast posterior_forecast(
    const Simulator& sim, const WindowResult& window, std::int32_t horizon_day,
    std::size_t n_draws, std::uint64_t seed,
    std::optional<double> theta_override = std::nullopt);

}  // namespace epismc::core
