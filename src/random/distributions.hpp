#pragma once

// Sampling distributions over the canonical PhiloxEngine.
//
// Everything here consumes a *bounded, deterministic* number of engine draws
// per call wherever possible (inverse-CDF normal, conditional-binomial
// multinomial); rejection samplers (gamma, large-mean Poisson, large-n
// binomial) consume a variable but stream-local number of draws. Since each
// simulation entity owns its own Philox stream, variable consumption never
// leaks randomness across entities.

#include <cstdint>
#include <span>
#include <vector>

#include "random/philox.hpp"

namespace epismc::rng {

/// Canonical engine type used throughout the library.
using Engine = PhiloxEngine;

// ---------------------------------------------------------------------------
// Uniform primitives (header-inline: they are the innermost hot path).
// ---------------------------------------------------------------------------

/// Uniform double in [0, 1) with 53 random bits.
[[nodiscard]] inline double uniform_double(Engine& eng) {
  return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1): safe as input to log() and quantile functions.
[[nodiscard]] inline double uniform_double_oo(Engine& eng) {
  return (static_cast<double>(eng() >> 12) + 0.5) * 0x1.0p-52;
}

/// Uniform double in [lo, hi).
[[nodiscard]] inline double uniform_range(Engine& eng, double lo, double hi) {
  return lo + (hi - lo) * uniform_double(eng);
}

/// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
[[nodiscard]] std::uint64_t uniform_int(Engine& eng, std::uint64_t bound);

/// Bernoulli(p) draw.
[[nodiscard]] inline bool bernoulli(Engine& eng, double p) {
  return uniform_double(eng) < p;
}

// ---------------------------------------------------------------------------
// Gaussian and friends.
// ---------------------------------------------------------------------------

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x);

/// Standard normal quantile function (inverse CDF). Acklam's rational
/// approximation polished with two Halley refinement steps; accurate to a
/// few ulp across (0, 1).
[[nodiscard]] double normal_quantile(double p);

/// Standard normal draw via inverse CDF: exactly one engine draw, which
/// keeps stream consumption deterministic for checkpoint reproducibility.
[[nodiscard]] double normal(Engine& eng);

/// Normal(mean, sd) draw.
[[nodiscard]] inline double normal(Engine& eng, double mean, double sd) {
  return mean + sd * normal(eng);
}

/// Exponential(rate) draw, rate > 0.
[[nodiscard]] double exponential(Engine& eng, double rate);

/// Gamma(shape, scale) draw via Marsaglia-Tsang squeeze; shape > 0.
[[nodiscard]] double gamma(Engine& eng, double shape, double scale = 1.0);

/// Beta(a, b) draw via two gammas; a, b > 0.
[[nodiscard]] double beta(Engine& eng, double a, double b);

// ---------------------------------------------------------------------------
// Discrete distributions.
// ---------------------------------------------------------------------------

/// Poisson(mean) draw; multiplication method below mean 10, PTRS
/// (Hoermann's transformed rejection) above.
[[nodiscard]] std::int64_t poisson(Engine& eng, double mean);

/// Binomial(n, p) draw; BINV inversion when n*p' < 30, BTPE
/// (Kachitvichyanukul & Schmeiser 1988) otherwise, where p' = min(p, 1-p)
/// is the probability both run on (p > 1/2 is flipped and the draw
/// reflected). O(1) in n for the large regime, which matters: the
/// epidemic simulator thins populations of millions every step.
///
/// BINV draws its uniform u before computing q^n = pow(1-p', n) and
/// returns 0 at once when u < 1 - n*(1-q) - 2^-40. That is exact, not an
/// approximation: q >= 1/2 makes 1-q exact, Bernoulli's inequality gives
/// q^n >= 1 - n*(1-q), and the margin covers the rounding of both sides,
/// so such a u also satisfies u <= pow(q, n) and the search would return
/// 0 for the same single draw. Every value and every engine position
/// match the plain search.
///
/// `q_pow`, when not empty, must be binomial_q_pow(p, ...) for this same
/// p. BINV then reads q^n from q_pow[n] when n < q_pow.size() and calls
/// pow() only past the table's end. The table holds the very expression
/// BINV evaluates, pow(1 - p', n) with p' folded the same way, through the
/// same std::pow of the same binary, so every value and every engine
/// position are those of the call without a table.
[[nodiscard]] std::int64_t binomial(Engine& eng, std::int64_t n, double p,
                                    std::span<const double> q_pow = {});

/// BINV's starting masses for one fixed p: entry n is pow(1 - p', n) for
/// every n < max_len with n*p' < 30, the sizes binomial() inverts. Empty
/// when p is 0 or 1, which never reach BINV. Throws std::invalid_argument
/// for p outside [0, 1].
[[nodiscard]] std::vector<double> binomial_q_pow(double p, std::size_t max_len);

/// Multinomial draw by conditional binomials: partitions `n` across
/// `probs` (probs need not be normalized; they must be non-negative).
void multinomial(Engine& eng, std::int64_t n, std::span<const double> probs,
                 std::span<std::int64_t> out);

/// Convenience overload returning a fresh vector.
[[nodiscard]] std::vector<std::int64_t> multinomial(
    Engine& eng, std::int64_t n, std::span<const double> probs);

}  // namespace epismc::rng
