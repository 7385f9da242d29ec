#include "epi/delay.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace epismc::epi {

double erlang_cdf(int shape, double scale, double x) {
  if (shape < 1) throw std::invalid_argument("erlang_cdf: shape must be >= 1");
  if (!(scale > 0.0)) throw std::invalid_argument("erlang_cdf: scale must be > 0");
  if (x <= 0.0) return 0.0;
  const double z = x / scale;
  // 1 - exp(-z) * sum_{j=0}^{k-1} z^j / j!
  double term = 1.0;
  double sum = 1.0;
  for (int j = 1; j < shape; ++j) {
    term *= z / static_cast<double>(j);
    sum += term;
  }
  return 1.0 - std::exp(-z) * sum;
}

DelayDistribution::DelayDistribution(double mean_days, int erlang_shape,
                                     int max_delay) {
  if (!(mean_days > 0.0)) {
    throw std::invalid_argument("DelayDistribution: mean must be > 0");
  }
  if (erlang_shape < 1) {
    throw std::invalid_argument("DelayDistribution: shape must be >= 1");
  }
  if (max_delay < 2) {
    throw std::invalid_argument("DelayDistribution: max_delay must be >= 2");
  }
  const double scale = mean_days / static_cast<double>(erlang_shape);
  pmf_.resize(static_cast<std::size_t>(max_delay));
  double prev = 0.0;  // CDF at 0.5 folded into day 1 (min sojourn is 1 day)
  for (int d = 1; d <= max_delay; ++d) {
    const double upper = d == max_delay
                             ? 1.0  // fold the tail into the last bin
                             : erlang_cdf(erlang_shape, scale,
                                          static_cast<double>(d) + 0.5);
    pmf_[static_cast<std::size_t>(d - 1)] = upper - prev;
    prev = upper;
  }
  cdf_.resize(pmf_.size());
  std::partial_sum(pmf_.begin(), pmf_.end(), cdf_.begin());
  cdf_.back() = 1.0;

  // The pmf never changes, so rng::multinomial's per-call validation and
  // mass bookkeeping are done once here, in its order and arithmetic. The
  // bins telescope to 1, so a positive total needs no separate check.
  double total = 0.0;
  for (const double p : pmf_) {
    if (p < 0.0) return;  // leaves cond_ empty: large splits are refused
    total += p;
  }
  double mass = total;
  for (std::size_t i = 0; i + 1 < pmf_.size(); ++i) {
    cond_.push_back(std::clamp(pmf_[i] / mass, 0.0, 1.0));
    mass -= pmf_[i];
    if (mass <= 0.0) break;
  }
}

std::size_t DelayDistribution::split_into(rng::Engine& eng, std::int64_t count,
                                          std::span<std::int64_t> out) const {
  if (pmf_.empty()) throw std::logic_error("DelayDistribution: not built");
  if (out.size() < pmf_.size()) {
    throw std::invalid_argument(
        "DelayDistribution::split_into: output shorter than max_delay");
  }
  if (count <= 0) return 0;
  if (count <= 16) {
    // Per-individual sampling beats a full multinomial sweep for the small
    // cohorts that dominate late-pipeline compartments (ICU, deaths).
    std::size_t k = 0;
    for (std::int64_t i = 0; i < count; ++i) {
      const auto d = static_cast<std::size_t>(sample_one(eng) - 1);
      if (d >= k) {
        std::fill(out.begin() + k, out.begin() + d + 1, std::int64_t{0});
        k = d + 1;
      }
      out[d] += 1;
    }
    return k;
  }
  if (cond_.empty()) {
    throw std::invalid_argument(
        "DelayDistribution::split_into: pmf has a negative entry");
  }
  std::int64_t remaining = count;
  std::size_t k = 0;
  for (; k < cond_.size() && remaining > 0; ++k) {
    const std::int64_t draw = rng::binomial(eng, remaining, cond_[k]);
    out[k] = draw;
    remaining -= draw;
  }
  if (remaining == 0) return k;
  const std::size_t last = pmf_.size() - 1;
  std::fill(out.begin() + k, out.begin() + last, std::int64_t{0});
  out[last] = remaining;
  return pmf_.size();
}

int DelayDistribution::sample_one(rng::Engine& eng) const {
  if (cdf_.empty()) throw std::logic_error("DelayDistribution: not built");
  const double u = rng::uniform_double(eng);
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    if (u <= cdf_[i]) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(cdf_.size());
}

double DelayDistribution::mean() const noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    m += static_cast<double>(i + 1) * pmf_[i];
  }
  return m;
}

}  // namespace epismc::epi
