#include "core/likelihood.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "api/components.hpp"
#include "simd/simd.hpp"
#include "stats/densities.hpp"

namespace epismc::core {

namespace {
void check_lengths(std::size_t a, std::size_t b) {
  if (a != b || a == 0) {
    throw std::invalid_argument("Likelihood: series length mismatch or empty");
  }
}
}  // namespace

ObservationCache Likelihood::prepare(std::span<const double> observed) const {
  ObservationCache cache;
  cache.owner = this;
  cache.observed.assign(observed.begin(), observed.end());
  return cache;
}

double Likelihood::logpdf(const ObservationCache& cache,
                          std::span<const double> simulated) const {
  if (cache.owner != this) {
    throw std::invalid_argument(
        "Likelihood::logpdf: observation cache was prepared by a different "
        "likelihood instance");
  }
  return logpdf_cached(cache, simulated);
}

double Likelihood::logpdf_cached(const ObservationCache& cache,
                                 std::span<const double> simulated) const {
  return logpdf(cache.observed, simulated);
}

GaussianSqrtLikelihood::GaussianSqrtLikelihood(double sigma) : sigma_(sigma) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("GaussianSqrtLikelihood: sigma must be > 0");
  }
}

double GaussianSqrtLikelihood::logpdf(std::span<const double> observed,
                                      std::span<const double> simulated) const {
  check_lengths(observed.size(), simulated.size());
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const double y = std::sqrt(std::max(observed[t], 0.0));
    const double eta = std::sqrt(std::max(simulated[t], 0.0));
    acc += stats::normal_logpdf(y, eta, sigma_);
  }
  return acc;
}

ObservationCache GaussianSqrtLikelihood::prepare(
    std::span<const double> observed) const {
  ObservationCache cache;
  cache.owner = this;
  cache.t0.resize(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    cache.t0[t] = std::sqrt(std::max(observed[t], 0.0));
  }
  // A day scores (-0.5 * z) * z - log(sigma) - log(sqrt(2 pi)), left to
  // right. The first product is <= 0 and rounding is monotone, so no day
  // can score above the z = 0 value: the terms are all <= 0 exactly when
  // that value is, i.e. when sigma >= 1/sqrt(2 pi) to the last ulp.
  cache.nonpositive_day_terms = stats::normal_logpdf(0.0, 0.0, sigma_) <= 0.0;
  return cache;
}

double GaussianSqrtLikelihood::logpdf_cached(
    const ObservationCache& cache, std::span<const double> simulated) const {
  // Same per-day expression as logpdf() with the sqrt(y) transform hoisted
  // into cache.t0; identical operation order keeps the result bit-equal.
  // Vector dispatch levels score through the fused SIMD kernel instead
  // (same sum to rounding; the normalization constant is hoisted out of
  // the per-day loop, so the result differs from this path in the last
  // ulps -- which is why scalar level keeps the historical loop).
  check_lengths(cache.t0.size(), simulated.size());
  const simd::KernelTable& kt = simd::active();
  if (kt.level != simd::SimdLevel::kScalar) {
    return kt.score_gaussian_sqrt(cache.t0.data(), simulated.data(),
                                  simulated.size(), sigma_);
  }
  double acc = 0.0;
  for (std::size_t t = 0; t < cache.t0.size(); ++t) {
    const double eta = std::sqrt(std::max(simulated[t], 0.0));
    acc += stats::normal_logpdf(cache.t0[t], eta, sigma_);
  }
  return acc;
}

PoissonLikelihood::PoissonLikelihood(double rate_floor)
    : rate_floor_(rate_floor) {
  if (!(rate_floor > 0.0)) {
    throw std::invalid_argument("PoissonLikelihood: rate_floor must be > 0");
  }
}

double PoissonLikelihood::logpdf(std::span<const double> observed,
                                 std::span<const double> simulated) const {
  check_lengths(observed.size(), simulated.size());
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const auto y = static_cast<std::int64_t>(
        std::llround(std::max(observed[t], 0.0)));
    const double rate = std::max(simulated[t], rate_floor_);
    acc += stats::poisson_logpmf(y, rate);
  }
  return acc;
}

ObservationCache PoissonLikelihood::prepare(
    std::span<const double> observed) const {
  ObservationCache cache;
  cache.owner = this;
  cache.t0.resize(observed.size());
  cache.t1.resize(observed.size());
  std::int64_t max_count = 0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const auto y = static_cast<std::int64_t>(
        std::llround(std::max(observed[t], 0.0)));
    cache.t0[t] = static_cast<double>(y);
    cache.t1[t] = std::lgamma(static_cast<double>(y) + 1.0);
    max_count = std::max(max_count, y);
  }
  // A day scores y*log(r) - r - lgamma(y+1) with r >= rate_floor_ > 0.
  // y = 0 gives exactly -r (the product is +-0, lgamma(1) = 0). For y >= 1
  // the exact value T is at most -0.5*log(2 pi y) < -0.91 (Stirling).
  // The three operations and the two libm calls (a few ulp each) move the
  // computed term by under 12u * (|y log r| + r + lgamma(y+1)), u = 2^-53,
  // and since T < 0 that sum is at most 2|y log r| + |T|. With
  // |log r| <= 745 for every positive double, counts up to kMaxExactCount
  // keep the shift below 0.02 + 12u|T|, so every computed term is < 0.
  constexpr std::int64_t kMaxExactCount = 10'000'000'000;
  cache.nonpositive_day_terms = max_count <= kMaxExactCount;
  return cache;
}

double PoissonLikelihood::logpdf_cached(
    const ObservationCache& cache, std::span<const double> simulated) const {
  // poisson_logpmf(y, rate) = y*log(rate) - rate - lgamma(y+1) with y >= 0
  // and rate >= rate_floor_ > 0, so the pmf's edge branches never fire;
  // the lgamma term lives in cache.t1 and the remaining expression keeps
  // the uncached operation order (bit-equal scores).
  check_lengths(cache.t0.size(), simulated.size());
  const simd::KernelTable& kt = simd::active();
  if (kt.level != simd::SimdLevel::kScalar) {
    return kt.score_poisson(cache.t0.data(), cache.t1.data(), simulated.data(),
                            simulated.size(), rate_floor_);
  }
  double acc = 0.0;
  for (std::size_t t = 0; t < cache.t0.size(); ++t) {
    const double rate = std::max(simulated[t], rate_floor_);
    acc += cache.t0[t] * std::log(rate) - rate - cache.t1[t];
  }
  return acc;
}

NegBinSqrtLikelihood::NegBinSqrtLikelihood(double dispersion_k)
    : k_(dispersion_k) {
  if (!(dispersion_k > 0.0)) {
    throw std::invalid_argument("NegBinSqrtLikelihood: k must be > 0");
  }
}

double NegBinSqrtLikelihood::logpdf(std::span<const double> observed,
                                    std::span<const double> simulated) const {
  check_lengths(observed.size(), simulated.size());
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const double eta = std::max(simulated[t], 0.0);
    const double sd = 0.5 * std::sqrt(1.0 + eta / k_);
    acc += stats::normal_logpdf(std::sqrt(std::max(observed[t], 0.0)),
                                std::sqrt(eta), sd);
  }
  return acc;
}

ObservationCache NegBinSqrtLikelihood::prepare(
    std::span<const double> observed) const {
  ObservationCache cache;
  cache.owner = this;
  cache.t0.resize(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    cache.t0[t] = std::sqrt(std::max(observed[t], 0.0));
  }
  // sd = 0.5 * sqrt(1 + eta/k) >= 0.5 for every eta >= 0, so a day scores
  // at most log(2) - log(sqrt(2 pi)) = -0.2258.
  cache.nonpositive_day_terms = true;
  return cache;
}

double NegBinSqrtLikelihood::logpdf_cached(
    const ObservationCache& cache, std::span<const double> simulated) const {
  check_lengths(cache.t0.size(), simulated.size());
  const simd::KernelTable& kt = simd::active();
  if (kt.level != simd::SimdLevel::kScalar) {
    return kt.score_nb_sqrt(cache.t0.data(), simulated.data(),
                            simulated.size(), k_);
  }
  double acc = 0.0;
  for (std::size_t t = 0; t < cache.t0.size(); ++t) {
    const double eta = std::max(simulated[t], 0.0);
    const double sd = 0.5 * std::sqrt(1.0 + eta / k_);
    acc += stats::normal_logpdf(cache.t0[t], std::sqrt(eta), sd);
  }
  return acc;
}

GaussianCountLikelihood::GaussianCountLikelihood(double phi) : phi_(phi) {
  if (!(phi > 0.0)) {
    throw std::invalid_argument("GaussianCountLikelihood: phi must be > 0");
  }
}

double GaussianCountLikelihood::logpdf(std::span<const double> observed,
                                       std::span<const double> simulated) const {
  check_lengths(observed.size(), simulated.size());
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const double sd = phi_ * std::sqrt(std::max(simulated[t], 1.0));
    acc += stats::normal_logpdf(observed[t], simulated[t], sd);
  }
  return acc;
}

std::unique_ptr<Likelihood> make_likelihood(const std::string& name,
                                            double parameter) {
  // The api-layer registry is the single source of truth for named
  // likelihoods: components registered there (including user-defined ones)
  // are reachable through CalibrationConfig names with no change here.
  return api::likelihoods().create(name, parameter);
}

}  // namespace epismc::core
