// Distribution samplers: moment checks across parameter regimes
// (parameterized sweeps cross the BINV/BTPE and mult/PTRS regime
// boundaries), BINV draw-for-draw against the plain sequential search and
// with its q^n table against without, quantile function accuracy, and
// input validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "random/distributions.hpp"

namespace {

using epismc::rng::Engine;

double sample_mean_binomial(Engine& eng, std::int64_t n, double p, int draws,
                            double* variance = nullptr) {
  std::vector<double> xs(static_cast<std::size_t>(draws));
  for (auto& x : xs) x = static_cast<double>(epismc::rng::binomial(eng, n, p));
  const double m = std::accumulate(xs.begin(), xs.end(), 0.0) / draws;
  if (variance != nullptr) {
    double acc = 0.0;
    for (const double x : xs) acc += (x - m) * (x - m);
    *variance = acc / (draws - 1);
  }
  return m;
}

// --- Binomial: parameterized over regimes ---------------------------------

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Engine eng(20240001, static_cast<std::uint64_t>(n));
  constexpr int kDraws = 40000;
  double var = 0.0;
  const double mean = sample_mean_binomial(eng, n, p, kDraws, &var);
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = static_cast<double>(n) * p * (1.0 - p);
  const double mean_tol = 6.0 * std::sqrt(true_var / kDraws) + 1e-9;
  EXPECT_NEAR(mean, true_mean, mean_tol) << "n=" << n << " p=" << p;
  if (true_var > 0.0) {
    EXPECT_NEAR(var, true_var, 0.1 * true_var + 1e-9) << "n=" << n << " p=" << p;
  }
}

TEST_P(BinomialMoments, SupportRespected) {
  const auto [n, p] = GetParam();
  Engine eng(20240002, static_cast<std::uint64_t>(n));
  for (int i = 0; i < 2000; ++i) {
    const auto x = epismc::rng::binomial(eng, n, p);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMoments,
    ::testing::Values(
        BinomialCase{1, 0.5},            // Bernoulli
        BinomialCase{10, 0.1},           // tiny inversion
        BinomialCase{100, 0.05},         // inversion, n*p = 5
        BinomialCase{100, 0.25},         // inversion boundary n*p = 25
        BinomialCase{100, 0.4},          // BTPE, small n
        BinomialCase{100, 0.9},          // flip to q, inversion
        BinomialCase{1000, 0.5},         // BTPE bulk
        BinomialCase{1000, 0.97},        // flip to q, BTPE
        BinomialCase{100000, 0.001},     // large n, inversion on p
        BinomialCase{100000, 0.3},       // large n, BTPE
        BinomialCase{2700000, 0.0004},   // epidemic-scale thinning (BTPE)
        BinomialCase{2700000, 0.6}));    // epidemic-scale reporting

TEST(Binomial, EdgeCases) {
  Engine eng(1);
  EXPECT_EQ(epismc::rng::binomial(eng, 0, 0.5), 0);
  EXPECT_EQ(epismc::rng::binomial(eng, 100, 0.0), 0);
  EXPECT_EQ(epismc::rng::binomial(eng, 100, 1.0), 100);
  EXPECT_THROW((void)epismc::rng::binomial(eng, -1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)epismc::rng::binomial(eng, 10, 1.5), std::invalid_argument);
  EXPECT_THROW((void)epismc::rng::binomial(eng, 10, -0.1), std::invalid_argument);
}

// --- Binomial: BINV against the plain sequential search -------------------

/// The BINV sampler as it was before the pow-free zero path: every call
/// computes pow(q, n) and searches from x = 0. Kept verbatim as the oracle
/// the shortcut must match draw for draw.
std::int64_t binomial_inversion_oracle(Engine& eng, std::int64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double npq_a = static_cast<double>(n + 1) * s;
  const double r0 = std::pow(q, static_cast<double>(n));
  for (;;) {
    double u = epismc::rng::uniform_double(eng);
    double r = r0;
    std::int64_t x = 0;
    const auto xmax =
        110 + static_cast<std::int64_t>(10.0 * std::sqrt(static_cast<double>(n) * p));
    while (u > r) {
      u -= r;
      ++x;
      if (x > xmax) break;
      r *= (npq_a / static_cast<double>(x)) - s;
    }
    if (x <= n && x <= xmax) return x;
  }
}

TEST(Binomial, InversionMatchesPlainSearchDrawForDraw) {
  constexpr int kDraws = 100000;
  for (const std::int64_t n : {1ll, 2ll, 10ll, 1000ll, 2700000ll}) {
    const double nd = static_cast<double>(n);
    for (const double np :
         {1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 29.9}) {
      if (np > 0.5 * nd) continue;  // p would exceed 1/2
      const double p_small = np / nd;
      for (const double p : {p_small, 1.0 - p_small}) {
        const bool flipped = p > 0.5;
        const double pp = flipped ? 1.0 - p : p;
        ASSERT_LT(nd * pp, 30.0) << "cell must dispatch to BINV";
        Engine eng(20240050, static_cast<std::uint64_t>(n));
        Engine oracle_eng = eng;
        std::int64_t zeros = 0;
        for (int i = 0; i < kDraws; ++i) {
          const std::int64_t x0 = binomial_inversion_oracle(oracle_eng, n, pp);
          const std::int64_t expected = flipped ? n - x0 : x0;
          const std::int64_t got = epismc::rng::binomial(eng, n, p);
          ASSERT_EQ(got, expected) << "n=" << n << " p=" << p << " draw " << i;
          ASSERT_EQ(eng.position(), oracle_eng.position())
              << "n=" << n << " p=" << p << " draw " << i;
          zeros += x0 == 0 ? 1 : 0;
        }
        // The cells straddle the shortcut: q^n near 1 returns 0 almost
        // always, n*p near 30 almost never.
        if (np <= 0.1) EXPECT_GT(zeros, kDraws / 2) << "n=" << n << " p=" << p;
      }
    }
  }
}

TEST(Binomial, QPowTableMatchesPlainCallDrawForDraw) {
  constexpr std::size_t kCap = 256;
  constexpr int kDraws = 1000;
  for (const double p : {1e-9, 0.05, 0.3, 0.5, std::nextafter(0.5, 1.0), 0.7,
                         0.92, 1.0 - 1e-9}) {
    const std::vector<double> q_pow = epismc::rng::binomial_q_pow(p, kCap);
    const double pp = p > 0.5 ? 1.0 - p : p;
    // Smallest n that binomial() hands to BTPE.
    auto btpe_from = static_cast<std::int64_t>(std::ceil(30.0 / pp));
    while (static_cast<double>(btpe_from - 1) * pp >= 30.0) --btpe_from;
    while (static_cast<double>(btpe_from) * pp < 30.0) ++btpe_from;

    // The table is BINV's own q^n over exactly the sizes it serves.
    ASSERT_EQ(q_pow.size(),
              std::min<std::size_t>(kCap, static_cast<std::size_t>(btpe_from)))
        << "p=" << p;
    for (std::size_t n = 0; n < q_pow.size(); ++n) {
      ASSERT_EQ(q_pow[n], std::pow(1.0 - pp, static_cast<double>(n)))
          << "p=" << p << " n=" << n;
    }

    const auto len = static_cast<std::int64_t>(q_pow.size());
    std::vector<std::int64_t> sizes = {0,       1,       2,          17,
                                       len - 1, len,     len + 1,    255,
                                       256,     257,     btpe_from - 1,
                                       btpe_from, btpe_from + 1, 1000,
                                       100000,  2700000};
    for (const std::int64_t n : sizes) {
      if (n < 0) continue;
      for (const std::uint64_t seed : {11ull, 20240051ull, 0xdecafull}) {
        Engine tabled(seed, static_cast<std::uint64_t>(n));
        Engine plain = tabled;
        for (int i = 0; i < kDraws; ++i) {
          const std::int64_t got = epismc::rng::binomial(tabled, n, p, q_pow);
          const std::int64_t want = epismc::rng::binomial(plain, n, p);
          ASSERT_EQ(got, want) << "p=" << p << " n=" << n << " seed " << seed
                               << " draw " << i;
          ASSERT_EQ(tabled.position(), plain.position())
              << "p=" << p << " n=" << n << " seed " << seed << " draw " << i;
        }
      }
    }
  }
  EXPECT_TRUE(epismc::rng::binomial_q_pow(0.0, kCap).empty());
  EXPECT_TRUE(epismc::rng::binomial_q_pow(1.0, kCap).empty());
  EXPECT_TRUE(epismc::rng::binomial_q_pow(0.3, 0).empty());
  EXPECT_THROW((void)epismc::rng::binomial_q_pow(-0.1, kCap),
               std::invalid_argument);
  EXPECT_THROW((void)epismc::rng::binomial_q_pow(1.5, kCap),
               std::invalid_argument);
}

// --- Poisson ----------------------------------------------------------------

struct PoissonCase {
  double mean;
};

class PoissonMoments : public ::testing::TestWithParam<PoissonCase> {};

TEST_P(PoissonMoments, MeanAndVarianceMatch) {
  const double lam = GetParam().mean;
  Engine eng(20240003, static_cast<std::uint64_t>(lam * 1000));
  constexpr int kDraws = 40000;
  std::vector<double> xs(kDraws);
  for (auto& x : xs) x = static_cast<double>(epismc::rng::poisson(eng, lam));
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / kDraws;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= (kDraws - 1);
  EXPECT_NEAR(mean, lam, 6.0 * std::sqrt(lam / kDraws) + 1e-9);
  EXPECT_NEAR(var, lam, 0.12 * lam + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Regimes, PoissonMoments,
                         ::testing::Values(PoissonCase{0.1}, PoissonCase{1.0},
                                           PoissonCase{5.0}, PoissonCase{9.99},
                                           PoissonCase{10.01}, PoissonCase{50.0},
                                           PoissonCase{1000.0}));

TEST(Poisson, EdgeCases) {
  Engine eng(2);
  EXPECT_EQ(epismc::rng::poisson(eng, 0.0), 0);
  EXPECT_THROW((void)epismc::rng::poisson(eng, -1.0), std::invalid_argument);
}

// --- Gamma / Beta ------------------------------------------------------------

struct GammaCase {
  double shape;
  double scale;
};

class GammaMoments : public ::testing::TestWithParam<GammaCase> {};

TEST_P(GammaMoments, MeanAndVarianceMatch) {
  const auto [shape, scale] = GetParam();
  Engine eng(20240004, static_cast<std::uint64_t>(shape * 100));
  constexpr int kDraws = 40000;
  std::vector<double> xs(kDraws);
  for (auto& x : xs) x = epismc::rng::gamma(eng, shape, scale);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / kDraws;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= (kDraws - 1);
  EXPECT_NEAR(mean, shape * scale,
              6.0 * std::sqrt(shape * scale * scale / kDraws));
  EXPECT_NEAR(var, shape * scale * scale, 0.15 * shape * scale * scale);
  for (const double x : xs) ASSERT_GT(x, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Regimes, GammaMoments,
                         ::testing::Values(GammaCase{0.3, 1.0},
                                           GammaCase{0.9, 2.0},
                                           GammaCase{1.0, 1.0},
                                           GammaCase{4.0, 0.5},
                                           GammaCase{20.0, 3.0}));

TEST(Beta, MomentsMatch) {
  Engine eng(20240005);
  constexpr int kDraws = 40000;
  const double a = 4.0;
  const double b = 1.0;  // the paper's rho prior
  std::vector<double> xs(kDraws);
  for (auto& x : xs) x = epismc::rng::beta(eng, a, b);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / kDraws;
  EXPECT_NEAR(mean, a / (a + b), 0.005);
  for (const double x : xs) {
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
}

// --- Normal ------------------------------------------------------------------

TEST(NormalQuantile, RoundTripsThroughCdf) {
  using epismc::rng::normal_cdf;
  using epismc::rng::normal_quantile;
  for (const double p : {1e-12, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12 + 1e-9 * p) << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  using epismc::rng::normal_quantile;
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-14);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.84134474606854293), 1.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.0013498980316300933), -3.0, 1e-7);
}

TEST(Normal, MomentsMatch) {
  Engine eng(20240006);
  constexpr int kDraws = 60000;
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_cu = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = epismc::rng::normal(eng);
    sum += x;
    sum_sq += x * x;
    sum_cu += x * x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 6.0 / std::sqrt(kDraws));
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
  EXPECT_NEAR(sum_cu / kDraws, 0.0, 0.1);  // symmetry
}

TEST(Exponential, MeanMatches) {
  Engine eng(20240007);
  constexpr int kDraws = 40000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += epismc::rng::exponential(eng, 2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  EXPECT_THROW((void)epismc::rng::exponential(eng, 0.0), std::invalid_argument);
}

// --- Uniform int -------------------------------------------------------------

TEST(UniformInt, BoundsAndUniformity) {
  Engine eng(20240008);
  constexpr std::uint64_t kBound = 7;
  std::array<int, kBound> counts{};
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = epismc::rng::uniform_int(eng, kBound);
    ASSERT_LT(x, kBound);
    ++counts[x];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBound), 400);
  }
  EXPECT_THROW((void)epismc::rng::uniform_int(eng, 0), std::invalid_argument);
}

// --- Multinomial -------------------------------------------------------------

TEST(Multinomial, CountsSumAndMarginalsMatch) {
  Engine eng(20240009);
  const std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  constexpr std::int64_t kN = 1000;
  constexpr int kReps = 3000;
  std::vector<double> mean(probs.size(), 0.0);
  for (int rep = 0; rep < kReps; ++rep) {
    const auto counts = epismc::rng::multinomial(eng, kN, probs);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      total += counts[i];
      mean[i] += static_cast<double>(counts[i]);
    }
    ASSERT_EQ(total, kN);
  }
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_NEAR(mean[i] / kReps, static_cast<double>(kN) * probs[i],
                0.02 * static_cast<double>(kN) * probs[i] + 1.0);
  }
}

TEST(Multinomial, UnnormalizedWeightsAccepted) {
  Engine eng(20240010);
  const std::vector<double> weights = {2.0, 6.0};  // == probs {0.25, 0.75}
  double first = 0.0;
  constexpr int kReps = 2000;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto counts = epismc::rng::multinomial(eng, 100, weights);
    first += static_cast<double>(counts[0]);
  }
  EXPECT_NEAR(first / kReps, 25.0, 1.0);
}

TEST(Multinomial, Validation) {
  Engine eng(1);
  const std::vector<double> negative = {0.5, -0.1};
  EXPECT_THROW((void)epismc::rng::multinomial(eng, 10, negative),
               std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW((void)epismc::rng::multinomial(eng, 10, zeros),
               std::invalid_argument);
  const std::vector<double> ok = {1.0};
  const auto counts = epismc::rng::multinomial(eng, 10, ok);
  EXPECT_EQ(counts[0], 10);
}

TEST(Bernoulli, FrequencyMatches) {
  Engine eng(20240011);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    hits += epismc::rng::bernoulli(eng, 0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

}  // namespace
