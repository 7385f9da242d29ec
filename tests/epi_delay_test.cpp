// Discretized Erlang sojourn distributions: pmf normalization, mean
// preservation, minimum one-day delay, cohort splitting (draw for draw
// against rng::multinomial and per-individual sampling), single draws
// (the guide-table inversion against the linear scan it replaced), and the
// Erlang CDF against closed-form references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "epi/delay.hpp"
#include "epi/parameters.hpp"

namespace {

using epismc::epi::DelayDistribution;
using epismc::epi::erlang_cdf;
using epismc::rng::Engine;

TEST(ErlangCdf, Shape1IsExponential) {
  // Erlang(1, scale) == Exponential(1/scale).
  for (const double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(erlang_cdf(1, 2.0, x), 1.0 - std::exp(-x / 2.0), 1e-12);
  }
  EXPECT_EQ(erlang_cdf(1, 2.0, 0.0), 0.0);
  EXPECT_EQ(erlang_cdf(1, 2.0, -1.0), 0.0);
}

TEST(ErlangCdf, Shape2ClosedForm) {
  // P(X <= x) = 1 - e^-z (1 + z), z = x / scale.
  const double scale = 1.5;
  for (const double x : {0.5, 2.0, 5.0}) {
    const double z = x / scale;
    EXPECT_NEAR(erlang_cdf(2, scale, x), 1.0 - std::exp(-z) * (1.0 + z),
                1e-12);
  }
  EXPECT_THROW((void)erlang_cdf(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)erlang_cdf(2, 0.0, 1.0), std::invalid_argument);
}

TEST(DelayDistribution, PmfNormalized) {
  const DelayDistribution d(5.0, 2, 64);
  double total = 0.0;
  for (const double p : d.pmf()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DelayDistribution, MeanApproximatesContinuousMean) {
  for (const double mean : {2.0, 5.0, 8.0}) {
    const DelayDistribution d(mean, 2, 64);
    // Rounding to whole days shifts the mean by at most ~half a day.
    EXPECT_NEAR(d.mean(), mean, 0.6) << "mean " << mean;
  }
}

TEST(DelayDistribution, ShortMeanConcentratesOnDayOne) {
  const DelayDistribution d(0.2, 2, 16);
  EXPECT_GT(d.pmf()[0], 0.95);  // nearly everything leaves after one day
}

TEST(DelayDistribution, TailFoldedIntoLastBin) {
  const DelayDistribution d(30.0, 1, 8);  // heavy tail beyond 8 days
  double total = 0.0;
  for (const double p : d.pmf()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(d.pmf().back(), 0.5);  // most mass lands in the fold
}

TEST(DelayDistribution, SplitConservesCohort) {
  const DelayDistribution d(4.0, 2, 32);
  Engine eng(20240040);
  std::vector<std::int64_t> buckets(32);
  for (const std::int64_t cohort : {0ll, 1ll, 17ll, 100000ll}) {
    const std::size_t k = d.split_into(eng, cohort, buckets);
    EXPECT_EQ(std::accumulate(buckets.begin(), buckets.begin() + k,
                              std::int64_t{0}),
              cohort);
  }
}

TEST(DelayDistribution, SplitMeanMatchesPmfMean) {
  const DelayDistribution d(6.0, 2, 64);
  Engine eng(20240041);
  const std::int64_t cohort = 200000;
  std::vector<std::int64_t> buckets(64);
  const std::size_t k = d.split_into(eng, cohort, buckets);
  double mean = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    mean += static_cast<double>(i + 1) * static_cast<double>(buckets[i]);
  }
  mean /= static_cast<double>(cohort);
  EXPECT_NEAR(mean, d.mean(), 0.05);
}

/// The tables split_into must reproduce draw for draw: the nine sojourn
/// laws of the paper's parameter set, both ends of the Erlang shape range,
/// both ends of the max_delay range, and a tail folded into the last bin.
std::vector<DelayDistribution> split_oracle_tables() {
  const epismc::epi::DiseaseParameters p;
  std::vector<DelayDistribution> tables;
  for (const double mean :
       {p.latent_period, p.presymptomatic_period, p.asymptomatic_period,
        p.mild_period, p.severe_period, p.hospital_period, p.hospital_to_icu,
        p.icu_period, p.post_icu_period}) {
    tables.emplace_back(mean, p.erlang_shape, p.max_delay);
  }
  tables.emplace_back(p.latent_period, 1, p.max_delay);
  tables.emplace_back(p.icu_period, 16, p.max_delay);
  tables.emplace_back(p.mild_period, p.erlang_shape, 8);
  tables.emplace_back(p.mild_period, p.erlang_shape,
                      epismc::epi::kMaxDelayCeiling);
  tables.emplace_back(30.0, 1, 8);
  return tables;
}

TEST(DelayDistribution, SplitIntoMatchesMultinomialDrawForDraw) {
  constexpr std::int64_t kSentinel = -7;
  const auto tables = split_oracle_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const DelayDistribution& d = tables[t];
    const auto bins = static_cast<std::size_t>(d.max_delay());
    Engine eng(20240043, t);
    for (const std::int64_t count :
         {0ll, 1ll, 16ll, 17ll, 100ll, 100000ll, 2700000ll}) {
      for (int rep = 0; rep < 20; ++rep) {
        Engine oracle_eng = eng;
        std::vector<std::int64_t> expected(bins, 0);
        if (count > 16) {
          expected = epismc::rng::multinomial(oracle_eng, count, d.pmf());
        } else {
          for (std::int64_t i = 0; i < count; ++i) {
            expected[static_cast<std::size_t>(d.sample_one(oracle_eng) - 1)]++;
          }
        }

        std::vector<std::int64_t> out(bins, kSentinel);
        const std::size_t k = d.split_into(eng, count, out);
        ASSERT_LE(k, bins);
        for (std::size_t i = 0; i < bins; ++i) {
          if (i < k) {
            ASSERT_EQ(out[i], expected[i])
                << "table " << t << " count " << count << " bin " << i;
          } else {
            ASSERT_EQ(out[i], kSentinel) << "bin " << i << " past k written";
            ASSERT_EQ(expected[i], 0) << "table " << t << " count " << count
                                      << " bin " << i << " past k = " << k;
          }
        }
        ASSERT_EQ(eng.position(), oracle_eng.position())
            << "table " << t << " count " << count;
      }
    }
  }
}

TEST(DelayDistribution, SplitIntoRejectsShortOutput) {
  const DelayDistribution d(4.0, 2, 32);
  Engine eng(20240044);
  std::vector<std::int64_t> out(31);
  EXPECT_THROW((void)d.split_into(eng, 100, out), std::invalid_argument);
  EXPECT_THROW((void)d.split_into(eng, 0, out), std::invalid_argument);
  EXPECT_EQ(eng.position(), 0u);
}

TEST(DelayDistribution, NegativePmfEntryRejectsOnlyLargeSplits) {
  // Long high-shape laws can round their first bin just below zero.
  // rng::multinomial rejects such a pmf, so the large-cohort split does
  // too, while per-individual sampling keeps working.
  for (int shape = 9; shape <= 16; ++shape) {
    for (double mean = 100.0; mean <= 400.0; mean += 10.0) {
      const DelayDistribution d(mean, shape, 64);
      const auto pmf = d.pmf();
      if (std::none_of(pmf.begin(), pmf.end(),
                       [](double p) { return p < 0.0; })) {
        continue;
      }
      Engine eng(20240045);
      std::vector<std::int64_t> out(64);
      Engine oracle_eng = eng;
      EXPECT_THROW((void)epismc::rng::multinomial(oracle_eng, 17, pmf),
                   std::invalid_argument);
      EXPECT_THROW((void)d.split_into(eng, 17, out), std::invalid_argument);
      EXPECT_GT(d.split_into(eng, 16, out), 0u);
      return;
    }
  }
  GTEST_SKIP() << "no table in the sweep rounds a pmf entry below zero";
}

TEST(DelayDistribution, SampleOneWithinSupport) {
  const DelayDistribution d(3.0, 2, 16);
  Engine eng(20240042);
  double mean = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const int delay = d.sample_one(eng);
    ASSERT_GE(delay, 1);
    ASSERT_LE(delay, 16);
    mean += delay;
  }
  EXPECT_NEAR(mean / kDraws, d.mean(), 0.05);
}

// --- inverse_cdf's guide table against the linear scan it replaced. -------

/// The cdf the constructor builds from the pmf.
std::vector<double> cdf_of(const DelayDistribution& d) {
  const auto pmf = d.pmf();
  std::vector<double> cdf(pmf.size());
  std::partial_sum(pmf.begin(), pmf.end(), cdf.begin());
  cdf.back() = 1.0;
  return cdf;
}

/// sample_one's inversion before the guide table, verbatim: a linear scan
/// from bin 0.
int linear_scan(const std::vector<double>& cdf_, double u) {
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    if (u <= cdf_[i]) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(cdf_.size());
}

/// The nine default laws, a law concentrated on day one, the shortest
/// table, the longest table (guide entries past 255) and a law whose first
/// pmf bin rounds below zero, so its cdf is not monotone.
std::vector<DelayDistribution> guide_oracle_tables() {
  const epismc::epi::DiseaseParameters p;
  std::vector<DelayDistribution> tables;
  for (const double mean :
       {p.latent_period, p.presymptomatic_period, p.asymptomatic_period,
        p.mild_period, p.severe_period, p.hospital_period, p.hospital_to_icu,
        p.icu_period, p.post_icu_period}) {
    tables.emplace_back(mean, p.erlang_shape, p.max_delay);
  }
  tables.emplace_back(0.3, 1, p.max_delay);
  tables.emplace_back(p.latent_period, p.erlang_shape, 2);
  tables.emplace_back(300.0, 4, epismc::epi::kMaxDelayCeiling);
  tables.emplace_back(200.0, 10, p.max_delay);
  return tables;
}

TEST(DelayDistribution, GuideTableCoversTheEdgeCases) {
  const auto tables = guide_oracle_tables();
  const DelayDistribution& longest = tables[tables.size() - 2];
  const DelayDistribution& negative_first = tables.back();
  ASSERT_EQ(longest.max_delay(), epismc::epi::kMaxDelayCeiling);
  EXPECT_GT(*std::max_element(longest.guide().begin(), longest.guide().end()),
            255);
  ASSERT_LT(negative_first.pmf()[0], 0.0);
}

TEST(DelayDistribution, GuideEntryIsFirstBinReachingItsCell) {
  const auto tables = guide_oracle_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::vector<double> cdf = cdf_of(tables[t]);
    const auto guide = tables[t].guide();
    ASSERT_EQ(guide.size(), 128u);
    for (std::size_t j = 0; j < guide.size(); ++j) {
      const double edge = static_cast<double>(j) / 128.0;
      std::size_t first = 0;
      while (cdf[first] < edge) ++first;
      EXPECT_EQ(guide[j], first) << "table " << t << " cell " << j;
    }
  }
}

TEST(DelayDistribution, InverseCdfMatchesLinearScanAtCellEdges) {
  const auto tables = guide_oracle_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::vector<double> cdf = cdf_of(tables[t]);
    for (int j = 0; j <= 128; ++j) {
      const double edge = static_cast<double>(j) / 128.0;
      for (const double u : {std::nextafter(edge, -1.0), edge,
                             std::nextafter(edge, 2.0)}) {
        ASSERT_EQ(tables[t].inverse_cdf(u), linear_scan(cdf, u))
            << "table " << t << " u " << u;
      }
    }
    // Every cdf value and its neighbours: the ties the scan breaks.
    for (const double c : cdf) {
      for (const double u :
           {std::nextafter(c, -1.0), c, std::nextafter(c, 2.0)}) {
        ASSERT_EQ(tables[t].inverse_cdf(u), linear_scan(cdf, u))
            << "table " << t << " u " << u;
      }
    }
  }
}

TEST(DelayDistribution, SampleOneMatchesLinearScanDrawForDraw) {
  const auto tables = guide_oracle_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::vector<double> cdf = cdf_of(tables[t]);
    Engine eng(20240046, t);
    Engine oracle_eng = eng;
    for (int i = 0; i < 20000; ++i) {
      const int expected =
          linear_scan(cdf, epismc::rng::uniform_double(oracle_eng));
      ASSERT_EQ(tables[t].sample_one(eng), expected)
          << "table " << t << " draw " << i;
    }
    ASSERT_EQ(eng.position(), oracle_eng.position()) << "table " << t;
  }
}

TEST(DelayDistribution, HigherShapeIsLessDispersed) {
  const DelayDistribution wide(6.0, 1, 64);
  const DelayDistribution tight(6.0, 8, 64);
  const auto variance = [](const DelayDistribution& d) {
    double m = d.mean();
    double v = 0.0;
    const auto pmf = d.pmf();
    for (std::size_t i = 0; i < pmf.size(); ++i) {
      const double x = static_cast<double>(i + 1);
      v += pmf[i] * (x - m) * (x - m);
    }
    return v;
  };
  EXPECT_LT(variance(tight), variance(wide));
}

TEST(DelayDistribution, Validation) {
  EXPECT_THROW(DelayDistribution(0.0, 2, 16), std::invalid_argument);
  EXPECT_THROW(DelayDistribution(1.0, 0, 16), std::invalid_argument);
  EXPECT_THROW(DelayDistribution(1.0, 2, 1), std::invalid_argument);
}

}  // namespace
