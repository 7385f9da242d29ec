#include "core/posterior.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/binary_archive.hpp"
#include "random/seeding.hpp"

namespace epismc::core {

void ParameterSummary::serialize(io::BinaryWriter& out) const {
  out.write(mean);
  out.write(sd);
  out.write(median);
  out.write(ci50.lo);
  out.write(ci50.hi);
  out.write(ci90.lo);
  out.write(ci90.hi);
}

ParameterSummary ParameterSummary::deserialize(io::BinaryReader& in) {
  ParameterSummary s;
  s.mean = in.read<double>();
  s.sd = in.read<double>();
  s.median = in.read<double>();
  s.ci50.lo = in.read<double>();
  s.ci50.hi = in.read<double>();
  s.ci90.lo = in.read<double>();
  s.ci90.hi = in.read<double>();
  return s;
}

void WindowPosteriorSummary::serialize(io::BinaryWriter& out) const {
  out.write(from_day);
  out.write(to_day);
  theta.serialize(out);
  rho.serialize(out);
}

WindowPosteriorSummary WindowPosteriorSummary::deserialize(
    io::BinaryReader& in) {
  WindowPosteriorSummary w;
  w.from_day = in.read<std::int32_t>();
  w.to_day = in.read<std::int32_t>();
  w.theta = ParameterSummary::deserialize(in);
  w.rho = ParameterSummary::deserialize(in);
  return w;
}

ParameterSummary summarize_parameter(const std::vector<double>& draws) {
  if (draws.size() < 2) {
    throw std::invalid_argument("summarize_parameter: need >= 2 draws");
  }
  ParameterSummary s;
  s.mean = stats::mean(draws);
  s.sd = stats::std_dev(draws);
  s.median = stats::quantile(draws, 0.5);
  s.ci50 = stats::credible_interval(draws, 0.5);
  s.ci90 = stats::credible_interval(draws, 0.9);
  return s;
}

WindowPosteriorSummary summarize_window(const WindowResult& window) {
  WindowPosteriorSummary s;
  s.from_day = window.from_day;
  s.to_day = window.to_day;
  s.theta = summarize_parameter(window.posterior_thetas());
  s.rho = summarize_parameter(window.posterior_rhos());
  return s;
}

stats::Kde2dResult joint_posterior_kde(const WindowResult& window,
                                       double theta_lo, double theta_hi,
                                       double rho_lo, double rho_hi,
                                       std::size_t grid) {
  const auto thetas = window.posterior_thetas();
  const auto rhos = window.posterior_rhos();
  // Floor the bandwidths at one grid cell: a (near-)degenerate posterior
  // otherwise produces a kernel narrower than the grid spacing and the
  // density surface evaluates to zero everywhere.
  const double cell_x = (theta_hi - theta_lo) / static_cast<double>(grid);
  const double cell_y = (rho_hi - rho_lo) / static_cast<double>(grid);
  const double bw_x =
      std::max(stats::silverman_bandwidth(thetas, {}), cell_x);
  const double bw_y = std::max(stats::silverman_bandwidth(rhos, {}), cell_y);
  return stats::kde_2d(thetas, rhos, {}, theta_lo, theta_hi, grid, rho_lo,
                       rho_hi, grid, bw_x, bw_y);
}

Ribbon posterior_ribbon(const WindowResult& window,
                        WindowResult::Series series, double level) {
  if (!(level > 0.0 && level < 1.0)) {
    throw std::invalid_argument("posterior_ribbon: level must be in (0,1)");
  }
  const double alpha = (1.0 - level) / 2.0;
  Ribbon r;
  r.lo = window.posterior_quantile(series, alpha);
  r.mid = window.posterior_quantile(series, 0.5);
  r.hi = window.posterior_quantile(series, 1.0 - alpha);
  return r;
}

Forecast posterior_forecast(const Simulator& sim, const WindowResult& window,
                            std::int32_t horizon_day, std::size_t n_draws,
                            std::uint64_t seed,
                            std::optional<double> theta_override) {
  if (window.resampled.empty() || !window.state_pool ||
      window.state_pool->empty()) {
    throw std::invalid_argument("posterior_forecast: window has no posterior");
  }
  if (horizon_day <= window.to_day) {
    throw std::invalid_argument("posterior_forecast: horizon inside window");
  }
  constexpr std::uint64_t kForecastTag = 0x464F5245ull;  // "FORE"

  Forecast fc;
  fc.from_day = window.to_day + 1;
  fc.to_day = horizon_day;
  fc.true_cases.assign(n_draws, {});
  fc.deaths.assign(n_draws, {});

  // One batched sweep straight off the window's pooled end states: each
  // draw branches its typed parent state with a fresh forecast stream (no
  // checkpoint parsing per draw).
  const auto horizon_len =
      static_cast<std::size_t>(horizon_day - window.to_day);
  EnsembleBuffer buf(n_draws, horizon_len);
  for (std::size_t i = 0; i < n_draws; ++i) {
    // Cycle over posterior draws (the draw-level view also covers
    // particles replaced by rejuvenation moves); fresh seeds branch new
    // futures.
    const std::size_t draw = i % window.n_draws();
    buf.param_index[i] = static_cast<std::uint32_t>(draw);
    buf.replicate[i] = static_cast<std::uint32_t>(i);
    buf.parent[i] = window.draw_state_slot(draw);
    buf.theta[i] = theta_override.value_or(window.draw_theta(draw));
    buf.rho[i] = window.draw_rho(draw);
    buf.seed[i] = seed;
    buf.stream[i] = rng::make_stream_id({kForecastTag, i}).key;
  }
  sim.run_batch(*window.state_pool, horizon_day, buf, 0, n_draws);
  for (std::size_t i = 0; i < n_draws; ++i) {
    const auto cases = buf.true_cases(i);
    fc.true_cases[i].assign(cases.begin(), cases.end());
    const auto deaths = buf.deaths(i);
    fc.deaths[i].assign(deaths.begin(), deaths.end());
  }
  return fc;
}

Ribbon Forecast::case_ribbon(double level) const {
  if (true_cases.empty()) {
    throw std::logic_error("Forecast: empty");
  }
  const double alpha = (1.0 - level) / 2.0;
  const std::size_t days = true_cases.front().size();
  Ribbon r;
  r.lo.resize(days);
  r.mid.resize(days);
  r.hi.resize(days);
  std::vector<double> column(true_cases.size());
  for (std::size_t d = 0; d < days; ++d) {
    for (std::size_t i = 0; i < true_cases.size(); ++i) {
      column[i] = true_cases[i][d];
    }
    r.lo[d] = stats::quantile(column, alpha);
    r.mid[d] = stats::quantile(column, 0.5);
    r.hi[d] = stats::quantile(column, 1.0 - alpha);
  }
  return r;
}

}  // namespace epismc::core
