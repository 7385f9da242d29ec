#include "random/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace epismc::rng {

std::uint64_t uniform_int(Engine& eng, std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("uniform_int: bound must be > 0");
  // Lemire 2019: multiply-shift with rejection of the biased low region.
  std::uint64_t x = eng();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = eng();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

// ---------------------------------------------------------------------------
// Gaussian.
// ---------------------------------------------------------------------------

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.7071067811865475244);  // 1/sqrt(2)
}

namespace {

/// Standard normal density.
double normal_pdf(double x) {
  return 0.3989422804014326779 * std::exp(-0.5 * x * x);  // 1/sqrt(2*pi)
}

/// Acklam's rational approximation to the normal quantile (|eps| ~ 1.15e-9).
double acklam_quantile(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double plow = 0.02425;

  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::domain_error("normal_quantile: p must be in [0, 1]");
  }
  double x = acklam_quantile(p);
  // Two Halley refinement steps drive the error to a few ulp.
  for (int i = 0; i < 2; ++i) {
    const double e = normal_cdf(x) - p;
    const double u = e / normal_pdf(x);
    x -= u / (1.0 + 0.5 * x * u);
  }
  return x;
}

double normal(Engine& eng) { return normal_quantile(uniform_double_oo(eng)); }

double exponential(Engine& eng, double rate) {
  if (!(rate > 0.0)) throw std::invalid_argument("exponential: rate must be > 0");
  return -std::log(uniform_double_oo(eng)) / rate;
}

double gamma(Engine& eng, double shape, double scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("gamma: shape and scale must be > 0");
  }
  if (shape < 1.0) {
    // Boost shape above 1 and correct with a power of a uniform
    // (Marsaglia-Tsang eq. 10).
    const double u = uniform_double_oo(eng);
    return gamma(eng, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal(eng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform_double_oo(eng);
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double beta(Engine& eng, double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    throw std::invalid_argument("beta: a and b must be > 0");
  }
  const double x = gamma(eng, a, 1.0);
  const double y = gamma(eng, b, 1.0);
  return x / (x + y);
}

// ---------------------------------------------------------------------------
// Poisson.
// ---------------------------------------------------------------------------

namespace {

std::int64_t poisson_mult(Engine& eng, double mean) {
  // Product-of-uniforms (Knuth); expected cost O(mean), fine for mean < 10.
  const double enlam = std::exp(-mean);
  std::int64_t x = 0;
  double prod = uniform_double(eng);
  while (prod > enlam) {
    prod *= uniform_double(eng);
    ++x;
  }
  return x;
}

std::int64_t poisson_ptrs(Engine& eng, double mean) {
  // Hoermann 1993, transformed rejection with squeeze ("PTRS").
  const double slam = std::sqrt(mean);
  const double loglam = std::log(mean);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double invalpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform_double(eng) - 0.5;
    const double v = uniform_double_oo(eng);
    const double us = 0.5 - std::fabs(u);
    const auto k =
        static_cast<std::int64_t>(std::floor((2.0 * a / us + b) * u + mean + 0.43));
    if (us >= 0.07 && v <= vr) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(invalpha) - std::log(a / (us * us) + b) <=
        -mean + static_cast<double>(k) * loglam -
            std::lgamma(static_cast<double>(k) + 1.0)) {
      return k;
    }
  }
}

}  // namespace

std::int64_t poisson(Engine& eng, double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 10.0) return poisson_mult(eng, mean);
  return poisson_ptrs(eng, mean);
}

// ---------------------------------------------------------------------------
// Binomial.
// ---------------------------------------------------------------------------

namespace {

/// The probability BINV and BTPE run on: binomial() flips p > 1/2 and
/// reflects the draw.
double folded(double p) { return p > 0.5 ? 1.0 - p : p; }

/// True when binomial() inverts (BINV) rather than rejects (BTPE).
bool inverts(std::int64_t n, double pp) {
  return static_cast<double>(n) * pp < 30.0;
}

/// BINV's starting mass q^n, the one expression behind both the search
/// and binomial_q_pow.
double start_mass(double q, double nd) { return std::pow(q, nd); }

/// BINV: sequential-search inversion. Requires n*p modest so that q^n does
/// not underflow; the dispatcher guarantees n*p < 30 and p <= 0.5 here.
/// `q_pow` is binomial_q_pow's table for this p, possibly empty.
std::int64_t binomial_inversion(Engine& eng, std::int64_t n, double p,
                                std::span<const double> q_pow) {
  const double q = 1.0 - p;
  const double nd = static_cast<double>(n);
  double u = uniform_double(eng);
  // q >= 0.5 makes 1 - q exact, and Bernoulli's inequality gives
  // q^n >= 1 - n(1 - q). The 2^-40 margin exceeds the rounding of this
  // bound and of pow() by ~2^12, so u below it is u <= pow(q, n): the
  // search would return 0 for this draw without taking a step.
  if (u < 1.0 - nd * (1.0 - q) - 0x1.0p-40) return 0;
  const double s = p / q;
  const double npq_a = static_cast<double>(n + 1) * s;
  const double r0 = static_cast<std::size_t>(n) < q_pow.size()
                        ? q_pow[static_cast<std::size_t>(n)]
                        : start_mass(q, nd);
  // The tail bound 110 + 10*sqrt(np) can only be exceeded with
  // probability ~1e-20; restarting keeps the sampler exact-in-practice
  // without risking an unbounded loop on degenerate float behaviour. It
  // is at least 110, so it is only worked out once x gets past that.
  std::int64_t xmax = 110;
  bool xmax_exact = false;
  for (;;) {
    double r = r0;
    std::int64_t x = 0;
    while (u > r) {
      u -= r;
      ++x;
      if (x > xmax) {
        if (xmax_exact) break;
        xmax += static_cast<std::int64_t>(10.0 * std::sqrt(nd * p));
        xmax_exact = true;
        if (x > xmax) break;
      }
      r *= (npq_a / static_cast<double>(x)) - s;
    }
    if (x <= n && x <= xmax) return x;
    u = uniform_double(eng);
  }
}

/// BTPE (Kachitvichyanukul & Schmeiser 1988): triangle / parallelogram /
/// exponential-tail envelope with squeeze acceptance. O(1) expected cost
/// for any n. Requires n*min(p,1-p) >= 30 (ensured by dispatcher); p <= 0.5.
std::int64_t binomial_btpe(Engine& eng, std::int64_t n, double p) {
  const double r = p;
  const double q = 1.0 - r;
  const double nd = static_cast<double>(n);
  const double fm = nd * r + r;
  const auto m = static_cast<std::int64_t>(std::floor(fm));
  const double md = static_cast<double>(m);
  const double nrq = nd * r * q;
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = md + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + md);
  double a = (fm - xl) / (fm - xl * r);
  const double laml = a * (1.0 + a / 2.0);
  a = (xr - fm) / (xr * q);
  const double lamr = a * (1.0 + a / 2.0);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / laml;
  const double p4 = p3 + c / lamr;

  for (;;) {
    std::int64_t y = 0;
    double v = 0.0;
    const double u = uniform_double(eng) * p4;
    v = uniform_double_oo(eng);
    if (u <= p1) {
      // Triangular central region: immediate acceptance.
      y = static_cast<std::int64_t>(std::floor(xm - p1 * v + u));
      return y;
    }
    if (u <= p2) {
      // Parallelogram region.
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::fabs(md - x + 0.5) / p1;
      if (v > 1.0) continue;
      y = static_cast<std::int64_t>(std::floor(x));
    } else if (u <= p3) {
      // Left exponential tail.
      y = static_cast<std::int64_t>(std::floor(xl + std::log(v) / laml));
      if (y < 0) continue;
      v = v * (u - p2) * laml;
    } else {
      // Right exponential tail.
      y = static_cast<std::int64_t>(std::floor(xr - std::log(v) / lamr));
      if (y > n) continue;
      v = v * (u - p3) * lamr;
    }

    // Acceptance check.
    const std::int64_t k = std::llabs(y - m);
    const double yd = static_cast<double>(y);
    const double kd = static_cast<double>(k);
    if (k <= 20 || kd >= nrq / 2.0 - 1.0) {
      // Evaluate f(y)/f(m) by explicit recursion.
      const double s = r / q;
      const double aa = s * (nd + 1.0);
      double f = 1.0;
      if (m < y) {
        for (std::int64_t i = m + 1; i <= y; ++i) {
          f *= (aa / static_cast<double>(i) - s);
        }
      } else if (m > y) {
        for (std::int64_t i = y + 1; i <= m; ++i) {
          f /= (aa / static_cast<double>(i) - s);
        }
      }
      if (v <= f) return y;
      continue;
    }
    // Squeeze: compare log(v) against quadratic bounds on log f.
    const double rho =
        (kd / nrq) * ((kd * (kd / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
    const double t = -kd * kd / (2.0 * nrq);
    const double logv = std::log(v);
    if (logv < t - rho) return y;
    if (logv > t + rho) continue;
    // Final comparison against Stirling-corrected exact log f.
    const double x1 = yd + 1.0;
    const double f1 = md + 1.0;
    const double z = nd + 1.0 - md;
    const double w = nd - yd + 1.0;
    const double z2 = z * z;
    const double x2 = x1 * x1;
    const double f2 = f1 * f1;
    const double w2 = w * w;
    const auto stirling_corr = [](double sq, double lin) {
      return (13680.0 -
              (462.0 - (132.0 - (99.0 - 140.0 / sq) / sq) / sq) / sq) /
             lin / 166320.0;
    };
    const double stirling = stirling_corr(f2, f1) + stirling_corr(z2, z) +
                            stirling_corr(x2, x1) + stirling_corr(w2, w);
    if (logv <= xm * std::log(f1 / x1) + (nd - md + 0.5) * std::log(z / w) +
                    (yd - md) * std::log(w * r / (x1 * q)) + stirling) {
      return y;
    }
  }
}

}  // namespace

std::int64_t binomial(Engine& eng, std::int64_t n, double p,
                      std::span<const double> q_pow) {
  if (n < 0) throw std::invalid_argument("binomial: n must be >= 0");
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("binomial: p must be in [0, 1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;

  const double pp = folded(p);
  const std::int64_t x = inverts(n, pp) ? binomial_inversion(eng, n, pp, q_pow)
                                        : binomial_btpe(eng, n, pp);
  return p > 0.5 ? n - x : x;
}

std::vector<double> binomial_q_pow(double p, std::size_t max_len) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("binomial_q_pow: p must be in [0, 1]");
  }
  std::vector<double> q_pow;
  if (p == 0.0 || p == 1.0) return q_pow;
  const double pp = folded(p);
  const double q = 1.0 - pp;
  for (std::size_t n = 0; n < max_len; ++n) {
    if (!inverts(static_cast<std::int64_t>(n), pp)) break;
    q_pow.push_back(start_mass(q, static_cast<double>(n)));
  }
  return q_pow;
}

// ---------------------------------------------------------------------------
// Multinomial.
// ---------------------------------------------------------------------------

void multinomial(Engine& eng, std::int64_t n, std::span<const double> probs,
                 std::span<std::int64_t> out) {
  if (probs.size() != out.size()) {
    throw std::invalid_argument("multinomial: probs/out size mismatch");
  }
  double total = 0.0;
  for (const double p : probs) {
    if (p < 0.0) throw std::invalid_argument("multinomial: negative probability");
    total += p;
  }
  std::fill(out.begin(), out.end(), std::int64_t{0});
  if (probs.empty() || n <= 0) return;
  if (total <= 0.0) {
    throw std::invalid_argument("multinomial: probabilities sum to zero");
  }

  std::int64_t remaining = n;
  double mass = total;
  for (std::size_t i = 0; i + 1 < probs.size() && remaining > 0; ++i) {
    const double cond = std::clamp(probs[i] / mass, 0.0, 1.0);
    const std::int64_t draw = binomial(eng, remaining, cond);
    out[i] = draw;
    remaining -= draw;
    mass -= probs[i];
    if (mass <= 0.0) break;
  }
  out[probs.size() - 1] += remaining;
  if (out[probs.size() - 1] < 0) out[probs.size() - 1] = 0;
}

std::vector<std::int64_t> multinomial(Engine& eng, std::int64_t n,
                                      std::span<const double> probs) {
  std::vector<std::int64_t> out(probs.size(), 0);
  multinomial(eng, n, probs, out);
  return out;
}

}  // namespace epismc::rng
