#include "core/ensemble.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace epismc::core {

void EnsembleBuffer::resize(std::size_t n_sims, std::size_t window_len) {
  n_sims_ = n_sims;
  window_len_ = window_len;
  const std::size_t cells = n_sims * window_len;
  true_cases_.resize(cells);
  obs_cases_.resize(cells);
  deaths_.resize(cells);
  param_index.resize(n_sims);
  replicate.resize(n_sims);
  parent.resize(n_sims);
  theta.resize(n_sims);
  rho.resize(n_sims);
  seed.resize(n_sims);
  stream.resize(n_sims);
  log_weight.resize(n_sims);
}

std::span<const double> EnsembleBuffer::series(Series which,
                                               std::size_t s) const {
  switch (which) {
    case Series::kTrueCases: return true_cases(s);
    case Series::kObsCases: return obs_cases(s);
    case Series::kDeaths: return deaths(s);
  }
  throw std::logic_error("EnsembleBuffer::series: bad series");
}

std::span<double> EnsembleBuffer::series(Series which, std::size_t s) {
  switch (which) {
    case Series::kTrueCases: return true_cases(s);
    case Series::kObsCases: return obs_cases(s);
    case Series::kDeaths: return deaths(s);
  }
  throw std::logic_error("EnsembleBuffer::series: bad series");
}

void EnsembleBuffer::store_tail(Series which, std::size_t s,
                                std::span<const double> full_series) {
  if (full_series.size() < window_len_) {
    throw std::logic_error(
        "EnsembleBuffer::store_tail: parent state of sim " +
        std::to_string(s) + " sits inside the window (series covers " +
        std::to_string(full_series.size()) + " days, window needs " +
        std::to_string(window_len_) + ")");
  }
  const std::span<const double> tail =
      full_series.subspan(full_series.size() - window_len_);
  std::copy(tail.begin(), tail.end(), series(which, s).begin());
}

void EnsembleBuffer::copy_row(std::size_t to, const EnsembleBuffer& src,
                              std::size_t from, std::size_t days) {
  if (days > window_len_ || days > src.window_len_) {
    throw std::out_of_range("EnsembleBuffer::copy_row: " +
                            std::to_string(days) + " days exceed a row");
  }
  param_index[to] = src.param_index[from];
  replicate[to] = src.replicate[from];
  parent[to] = src.parent[from];
  theta[to] = src.theta[from];
  rho[to] = src.rho[from];
  seed[to] = src.seed[from];
  stream[to] = src.stream[from];
  std::copy_n(src.true_cases(from).begin(), days, true_cases(to).begin());
  std::copy_n(src.obs_cases(from).begin(), days, obs_cases(to).begin());
  std::copy_n(src.deaths(from).begin(), days, deaths(to).begin());
}

}  // namespace epismc::core
