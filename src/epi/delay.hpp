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
#include <memory>
#include <span>
#include <vector>

#include "epi/parameters.hpp"
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
  /// conditional probabilities precomputed at construction, each drawn
  /// with its rng::binomial_q_pow table (see rng::binomial for why the
  /// table changes no value and no engine position). Like it, the
  /// large path throws std::invalid_argument when the pmf has a negative
  /// entry, which rounding can produce for long high-shape laws; such a
  /// table still serves sample_one() and small cohorts.
  [[nodiscard]] std::size_t split_into(rng::Engine& eng, std::int64_t count,
                                       std::span<std::int64_t> out) const;

  /// Sample a single delay in days (>= 1): inverse_cdf of one
  /// rng::uniform_double draw.
  [[nodiscard]] int sample_one(rng::Engine& eng) const;

  /// The delay (>= 1) of the first bin whose cdf is >= u, or max_delay()
  /// when there is none. The scan starts at guide()[floor(u * 128)] for u
  /// in [0, 1) instead of bin 0; every bin it skips has cdf < j/128 <= u,
  /// so the result is the plain linear scan's for every u.
  [[nodiscard]] int inverse_cdf(double u) const;

  /// guide()[j] is the first bin i with cdf[i] >= j/128, j in [0, 128).
  [[nodiscard]] std::span<const std::uint16_t> guide() const noexcept {
    return guide_;
  }

  [[nodiscard]] std::span<const double> pmf() const noexcept { return pmf_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] int max_delay() const noexcept {
    return static_cast<int>(pmf_.size());
  }

 private:
  std::vector<double> pmf_;  // pmf_[i] = P(delay == i + 1 days)
  std::vector<double> cdf_;
  // Guide table of inverse_cdf; uint16_t because max_delay can reach
  // kMaxDelayCeiling = 512 bins. Empty until built.
  std::vector<std::uint16_t> guide_;
  // cond_[i] = P(delay == i + 1 | delay > i), clamped to [0, 1], with the
  // arithmetic and order of rng::multinomial. Bins [0, cond_.size()) get a
  // binomial draw; what is left lands in the last bin. Empty when a pmf
  // entry rounded below zero.
  std::vector<double> cond_;
  // rng::binomial_q_pow(cond_[i], kQPowCap) for every bin, back to back:
  // bin i's table is q_pow_[q_pow_end_[i - 1], q_pow_end_[i]) (from 0 for
  // i = 0).
  std::vector<double> q_pow_;
  std::vector<std::uint32_t> q_pow_end_;
};

/// Immutable bundle of the nine discretized sojourn tables. Durations and
/// the Erlang shape never change across checkpoint restarts (only branching
/// fractions, infectiousness and transmission are restartable), so models
/// share one bundle instead of re-deriving it -- restore sits on the SMC
/// hot path.
struct DelayTables {
  DelayDistribution latent;
  DelayDistribution presym;
  DelayDistribution asym;
  DelayDistribution mild;
  DelayDistribution severe;
  DelayDistribution hosp;
  DelayDistribution hosp_icu;
  DelayDistribution icu;
  DelayDistribution posticu;
};

/// The sojourn tables for `p`'s durations, Erlang shape and max_delay,
/// from a one-entry thread-local cache: particle loops construct and
/// restore thousands of models with identical durations, so the hit rate
/// is ~100%.
[[nodiscard]] std::shared_ptr<const DelayTables> delay_tables(
    const DiseaseParameters& p);

/// Regularized lower incomplete gamma P(k, x) for integer k >= 1
/// (the Erlang CDF): P(X <= x) with X ~ Erlang(k, scale 1).
[[nodiscard]] double erlang_cdf(int shape, double scale, double x);

}  // namespace epismc::epi
