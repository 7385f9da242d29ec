#pragma once

// Discretized sojourn-time distributions.
//
// Cohorts entering a compartment have their future exit *scheduled at entry
// time* -- this is what makes the model state checkpointable as "counts +
// future transition events". Sojourn times follow Erlang(shape, mean)
// distributions discretized to whole days: pmf[d] = P(d - 0.5 < X <= d +
// 0.5) for d = 1..max_delay (day 1 absorbs all mass below 1.5 so every
// transition takes at least one day, which rules out same-day event
// cascades).

#include <cstdint>
#include <span>
#include <vector>

#include "random/distributions.hpp"

namespace epismc::epi {

class DelayDistribution {
 public:
  DelayDistribution() = default;

  /// Build from an Erlang(shape, mean) sojourn law truncated at max_delay.
  DelayDistribution(double mean_days, int erlang_shape, int max_delay);

  /// Split a cohort of `count` individuals across delays 1..max_delay.
  /// Writes out[d] = number of individuals leaving after exactly d+1 days
  /// for d in [0, k) and returns k; bins from k on are left untouched and
  /// stand for zero (count <= 0 returns 0). `out` must hold max_delay()
  /// entries, else std::invalid_argument. Small cohorts are sampled
  /// individually (O(count) cdf lookups), large ones by conditional
  /// binomials (O(max_delay) draws) -- identical distribution, different
  /// constants. The large path consumes exactly the draws of
  /// rng::multinomial(eng, count, pmf()) and yields the same bins, from
  /// conditional probabilities precomputed at construction. Like it, the
  /// large path throws std::invalid_argument when the pmf has a negative
  /// entry, which rounding can produce for long high-shape laws; such a
  /// table still serves sample_one() and small cohorts.
  [[nodiscard]] std::size_t split_into(rng::Engine& eng, std::int64_t count,
                                       std::span<std::int64_t> out) const;

  /// Sample a single delay in days (>= 1).
  [[nodiscard]] int sample_one(rng::Engine& eng) const;

  [[nodiscard]] std::span<const double> pmf() const noexcept { return pmf_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] int max_delay() const noexcept {
    return static_cast<int>(pmf_.size());
  }

 private:
  std::vector<double> pmf_;  // pmf_[i] = P(delay == i + 1 days)
  std::vector<double> cdf_;
  // cond_[i] = P(delay == i + 1 | delay > i), clamped to [0, 1], with the
  // arithmetic and order of rng::multinomial. Bins [0, cond_.size()) get a
  // binomial draw; what is left lands in the last bin. Empty when a pmf
  // entry rounded below zero.
  std::vector<double> cond_;
};

/// Regularized lower incomplete gamma P(k, x) for integer k >= 1
/// (the Erlang CDF): P(X <= x) with X ~ Erlang(k, scale 1).
[[nodiscard]] double erlang_cdf(int shape, double scale, double x);

}  // namespace epismc::epi
