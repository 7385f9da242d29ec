#pragma once

// Window likelihoods (paper eq. 3).
//
// The paper scores simulated against observed series with an independent
// Gaussian on square-root transformed counts, sigma_t = sigma (a variance
// stabilizing transform for counts):
//   log l = sum_t log N( sqrt(y_t) | sqrt(eta_obs_t), sigma^2 ).
// A Poisson likelihood is provided as an alternative error model for the
// likelihood-robustness ablation.

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace epismc::core {

class Likelihood;

/// Per-window cache of observation-side likelihood constants.
///
/// A window scores the *same* observed series against every simulated
/// trajectory -- thousands per window, and for PMMH thousands of windows
/// over one series -- so everything that depends only on the observations
/// (sqrt transforms, lgamma(y+1) factorial terms, rounded counts) is
/// precomputed once by Likelihood::prepare and reused by the cached
/// logpdf overload. The cached path is arithmetic-order-identical to the
/// uncached one, so weights stay bit-for-bit reproducible either way.
struct ObservationCache {
  const Likelihood* owner = nullptr;  // likelihood that prepared the cache
  std::vector<double> observed;       // verbatim copy (generic fallback)
  std::vector<double> t0;             // first per-day transform (model-specific)
  std::vector<double> t1;             // second per-day transform

  /// Set by prepare() only when every day's scored term is <= 0 whatever
  /// the simulated count, and the scalar-level cached window score is the
  /// left-to-right sum of those terms -- the same value as one-day caches
  /// scored and summed in day order. A running day-ordered score can then
  /// only fall, so a partial window already bounds the full score from
  /// above (rejuvenation stops hopeless proposals on it). The default
  /// prepare() leaves it off; a decorator that re-owns a wrapped cache
  /// keeps it, one that changes the scores must clear it.
  bool nonpositive_day_terms = false;
};

class Likelihood {
 public:
  virtual ~Likelihood() = default;

  /// Log-likelihood of `observed` given `simulated` (equal lengths).
  [[nodiscard]] virtual double logpdf(std::span<const double> observed,
                                      std::span<const double> simulated)
      const = 0;

  /// Precompute the observation-side constants for one window of observed
  /// counts. The default caches the series verbatim; built-ins override to
  /// hoist their transforms (see ObservationCache).
  [[nodiscard]] virtual ObservationCache prepare(
      std::span<const double> observed) const;

  /// Cached window score: bit-identical to logpdf(observed, simulated) for
  /// the series the cache was prepared from. Throws std::invalid_argument
  /// when the cache was prepared by a different likelihood instance.
  [[nodiscard]] double logpdf(const ObservationCache& cache,
                              std::span<const double> simulated) const;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Cached-path implementation; `cache` is guaranteed to come from this
  /// instance's prepare(). Default falls back to the uncached logpdf over
  /// the cached observed copy.
  [[nodiscard]] virtual double logpdf_cached(
      const ObservationCache& cache, std::span<const double> simulated) const;
};

/// Gaussian on sqrt-counts with constant sd (the paper's choice, sigma=1).
class GaussianSqrtLikelihood final : public Likelihood {
 public:
  explicit GaussianSqrtLikelihood(double sigma = 1.0);

  using Likelihood::logpdf;  // keep the cached overload visible

  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated) const override;
  /// Caches sqrt(max(y_t, 0)) per day.
  [[nodiscard]] ObservationCache prepare(
      std::span<const double> observed) const override;
  [[nodiscard]] std::string name() const override { return "gaussian-sqrt"; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 protected:
  [[nodiscard]] double logpdf_cached(
      const ObservationCache& cache,
      std::span<const double> simulated) const override;

 private:
  double sigma_;
};

/// Independent Poisson error: y_t ~ Poisson(max(eta_obs_t, floor)).
class PoissonLikelihood final : public Likelihood {
 public:
  explicit PoissonLikelihood(double rate_floor = 0.5);

  using Likelihood::logpdf;  // keep the cached overload visible

  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated) const override;
  /// Caches the rounded count and its lgamma(y+1) factorial term per day
  /// -- the lgamma is by far the most expensive part of the Poisson score.
  [[nodiscard]] ObservationCache prepare(
      std::span<const double> observed) const override;
  [[nodiscard]] std::string name() const override { return "poisson"; }

 protected:
  [[nodiscard]] double logpdf_cached(
      const ObservationCache& cache,
      std::span<const double> simulated) const override;

 private:
  double rate_floor_;
};

/// Gaussian on sqrt-counts whose sd grows with the count magnitude the way
/// a negative-binomial observation's would: sd_t = 0.5 * sqrt(1 + eta_t/k)
/// where k is the NB dispersion. At window-1 magnitudes (counts of a few
/// hundred, k = 500) this matches the paper's sigma ~ 1; at the 30000+
/// counts of the final window it relaxes to sd ~ 4, which keeps the
/// ensemble from degenerating to a single trajectory (see EXPERIMENTS.md,
/// substitution note for Figs. 4/5).
class NegBinSqrtLikelihood final : public Likelihood {
 public:
  explicit NegBinSqrtLikelihood(double dispersion_k = 500.0);

  using Likelihood::logpdf;  // keep the cached overload visible

  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated) const override;
  /// Caches sqrt(max(y_t, 0)) per day.
  [[nodiscard]] ObservationCache prepare(
      std::span<const double> observed) const override;
  [[nodiscard]] std::string name() const override { return "nb-sqrt"; }
  [[nodiscard]] double dispersion() const noexcept { return k_; }

 protected:
  [[nodiscard]] double logpdf_cached(
      const ObservationCache& cache,
      std::span<const double> simulated) const override;

 private:
  double k_;
};

/// Gaussian on raw counts with sd proportional to sqrt(counts)
/// (overdispersion factor `phi`); another robustness comparator.
class GaussianCountLikelihood final : public Likelihood {
 public:
  explicit GaussianCountLikelihood(double phi = 1.0);

  using Likelihood::logpdf;  // keep the cached overload visible

  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated) const override;
  [[nodiscard]] std::string name() const override { return "gaussian-count"; }

 private:
  double phi_;
};

/// Resolve a likelihood by registry name ("gaussian-sqrt", "nb-sqrt",
/// "poisson", "gaussian-count", plus anything registered at startup).
/// Delegates to api::likelihoods(); kept for config-name resolution and
/// source compatibility.
[[nodiscard]] std::unique_ptr<Likelihood> make_likelihood(
    const std::string& name, double parameter);

}  // namespace epismc::core
