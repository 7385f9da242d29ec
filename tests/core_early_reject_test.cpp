// Early rejection of rejuvenation proposals: the BatchSink::on_day hook
// contract of the built-in batch kernel, the truth table of the
// ObservationCache::nonpositive_day_terms flag that licenses the stop, a
// sweep showing every day term is <= 0 whenever the flag is set, and the
// paired exactness check -- a calibration whose likelihood clears the flag
// (full evaluation of every proposal) against the same calibration with
// the built-in, bit for bit, on every backend, batch and streaming, with
// and without deaths, at the scalar and the best SIMD level.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/scenario.hpp"
#include "simd/simd.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc;
using namespace epismc::core;

// ---------------------------------------------------------------------------
// Test-local decorators.
// ---------------------------------------------------------------------------

// Likelihood::logpdf_cached is protected; a member pointer formed through a
// derived class is how a decorator calls the wrapped likelihood's cached
// path.
struct CachedScore : Likelihood {
  using Fn = double (Likelihood::*)(const ObservationCache&,
                                    std::span<const double>) const;
  static Fn fn() { return &CachedScore::logpdf_cached; }
};

// The reference: the wrapped built-in's scores, with the flag cleared so
// rejuvenation evaluates every proposal over its whole window.
class FullEvaluation final : public Likelihood {
 public:
  explicit FullEvaluation(std::unique_ptr<Likelihood> inner)
      : inner_(std::move(inner)) {}

  using Likelihood::logpdf;
  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated)
      const override {
    return inner_->logpdf(observed, simulated);
  }
  [[nodiscard]] ObservationCache prepare(
      std::span<const double> observed) const override {
    ObservationCache cache = inner_->prepare(observed);
    cache.owner = this;
    cache.nonpositive_day_terms = false;
    return cache;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 protected:
  [[nodiscard]] double logpdf_cached(
      const ObservationCache& cache,
      std::span<const double> simulated) const override {
    return ((*inner_).*CachedScore::fn())(cache, simulated);
  }

 private:
  std::unique_ptr<Likelihood> inner_;
};

// Counts the on_day calls that returned false, i.e. the proposals the
// hook actually stopped.
std::atomic<std::size_t> g_stops{0};

class StopCounter final : public Simulator {
 public:
  explicit StopCounter(std::unique_ptr<Simulator> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override {
    return inner_->initial_state(day, seed);
  }
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state,
                                     double theta, std::uint64_t seed,
                                     std::uint64_t stream, std::int32_t to_day,
                                     bool want_checkpoint) const override {
    return inner_->run_window(state, theta, seed, stream, to_day,
                              want_checkpoint);
  }
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const override {
    return inner_->make_pool();
  }
  void run_batch(const StatePool& parents, std::int32_t to_day,
                 EnsembleBuffer& buffer, std::size_t first, std::size_t count,
                 const BatchSink& sink) const override {
    BatchSink counted = sink;
    if (sink.on_day) {
      counted.on_day = [&sink](std::size_t s, std::size_t days_filled) {
        const bool go_on = sink.on_day(s, days_filled);
        if (!go_on) g_stops.fetch_add(1, std::memory_order_relaxed);
        return go_on;
      };
    }
    inner_->run_batch(parents, to_day, buffer, first, count, counted);
  }
  using Simulator::run_batch;
  void advance_batch(StatePool& states, std::int32_t to_day,
                     EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count, const BatchSink& sink) const override {
    inner_->advance_batch(states, to_day, buffer, first, count, sink);
  }
  void resample_states(StatePool& states,
                       std::span<const std::uint32_t> ancestors,
                       std::uint64_t seed,
                       std::span<const std::uint64_t> streams,
                       std::span<const double> thetas) const override {
    inner_->resample_states(states, ancestors, seed, streams, thetas);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Simulator> inner_;
};

constexpr const char* kFullEval = "full-eval:";
constexpr const char* kCounted = "stop-count:";

void register_decorators() {
  static const bool done = [] {
    for (const char* name : {"gaussian-sqrt", "nb-sqrt", "poisson",
                             "gaussian-count"}) {
      const std::string inner = name;
      api::likelihoods().add(kFullEval + inner, [inner](double parameter) {
        return std::unique_ptr<Likelihood>(std::make_unique<FullEvaluation>(
            api::likelihoods().create(inner, parameter)));
      });
    }
    for (const char* name : {"seir-event", "chain-binomial", "abm"}) {
      const std::string inner = name;
      api::simulators().add(
          kCounted + inner, [inner](const api::SimulatorSpec& spec) {
            return std::unique_ptr<Simulator>(std::make_unique<StopCounter>(
                api::simulators().create(inner, spec)));
          });
    }
    return true;
  }();
  (void)done;
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.params.population = 8000;
  cfg.initial_exposed = 30;
  cfg.total_days = 47;
  cfg.theta_segments = {{0, 0.30}, {34, 0.42}};
  cfg.rho_segments = {{0, 0.70}, {34, 0.85}};
  return cfg;
}

const GroundTruth& small_truth() {
  static const GroundTruth truth = simulate_ground_truth(small_scenario());
  return truth;
}

api::SimulatorSpec small_spec() {
  const ScenarioConfig scenario = small_scenario();
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;
  return spec;
}

std::vector<std::uint8_t> checkpoint_bytes(const StatePool& pool,
                                           std::size_t slot) {
  const epi::Checkpoint c = pool.to_checkpoint(slot);
  std::vector<std::uint8_t> out(sizeof c.day + c.bytes.size());
  std::memcpy(out.data(), &c.day, sizeof c.day);
  for (std::size_t i = 0; i < c.bytes.size(); ++i) {
    out[sizeof c.day + i] = static_cast<std::uint8_t>(c.bytes[i]);
  }
  return out;
}

void expect_bitwise(std::span<const double> a, std::span<const double> b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " differs at index " << i;
  }
}

// ---------------------------------------------------------------------------
// BatchSink::on_day contract of the built-in batch kernel.
// ---------------------------------------------------------------------------

constexpr std::int32_t kFrom = 20;
constexpr std::int32_t kTo = 33;
constexpr std::size_t kLen = kTo - kFrom + 1;
constexpr std::size_t kSims = 12;

// Odd sims stop after 1 + (s mod kLen) days; even sims run to the end.
std::size_t stop_after(std::size_t s) {
  return s % 2 == 1 ? 1 + s % kLen : 0;
}

void check_on_day_contract(const std::string& backend,
                           std::int32_t parent_day) {
  SCOPED_TRACE(backend + " parent day " + std::to_string(parent_day));
  const auto sim = api::simulators().create(backend, small_spec());
  const auto parents = sim->make_pool();
  parents->resize(1);
  parents->set_from_checkpoint(0, sim->initial_state(parent_day, 11));

  EnsembleBuffer ref(kSims, kLen);
  for (std::size_t s = 0; s < kSims; ++s) {
    ref.parent[s] = 0;
    ref.theta[s] = 0.25 + 0.01 * static_cast<double>(s);
    ref.seed[s] = 99;
    ref.stream[s] = 1000 + s;
  }
  EnsembleBuffer hooked = ref;
  const double sentinel = -12345.0;
  std::fill(hooked.matrix(EnsembleBuffer::Series::kTrueCases).begin(),
            hooked.matrix(EnsembleBuffer::Series::kTrueCases).end(), sentinel);
  std::fill(hooked.matrix(EnsembleBuffer::Series::kDeaths).begin(),
            hooked.matrix(EnsembleBuffer::Series::kDeaths).end(), sentinel);

  const auto ref_pool = sim->make_pool();
  ref_pool->resize(kSims);
  std::vector<std::uint8_t> ref_calls(kSims, 0);
  BatchSink ref_sink;
  ref_sink.capture = ref_pool.get();
  ref_sink.on_sim = [&](std::size_t s) { ++ref_calls[s]; };
  sim->run_batch(*parents, kTo, ref, 0, kSims, ref_sink);

  const auto pool = sim->make_pool();
  pool->resize(kSims);
  std::vector<std::uint8_t> sim_calls(kSims, 0);
  std::vector<std::size_t> days_seen(kSims, 0);
  std::vector<std::uint8_t> out_of_order(kSims, 0);
  BatchSink sink;
  sink.capture = pool.get();
  sink.on_sim = [&](std::size_t s) { ++sim_calls[s]; };
  sink.on_day = [&](std::size_t s, std::size_t days_filled) {
    if (days_filled != days_seen[s] + 1) out_of_order[s] = 1;
    days_seen[s] = days_filled;
    return days_filled != stop_after(s);
  };
  sim->run_batch(*parents, kTo, hooked, 0, kSims, sink);

  for (std::size_t s = 0; s < kSims; ++s) {
    SCOPED_TRACE("sim " + std::to_string(s));
    EXPECT_EQ(out_of_order[s], 0);
    const std::size_t k = stop_after(s);
    if (k == 0) {
      EXPECT_EQ(days_seen[s], kLen);
      EXPECT_EQ(sim_calls[s], 1);
      expect_bitwise(hooked.true_cases(s), ref.true_cases(s), "true cases");
      expect_bitwise(hooked.deaths(s), ref.deaths(s), "deaths");
      EXPECT_EQ(checkpoint_bytes(*pool, s), checkpoint_bytes(*ref_pool, s));
    } else {
      EXPECT_EQ(days_seen[s], k);
      EXPECT_EQ(sim_calls[s], 0);
      expect_bitwise(hooked.true_cases(s).first(k), ref.true_cases(s).first(k),
                     "true-case prefix");
      expect_bitwise(hooked.deaths(s).first(k), ref.deaths(s).first(k),
                     "death prefix");
      for (std::size_t d = k; d < kLen; ++d) {
        EXPECT_EQ(hooked.true_cases(s)[d], sentinel) << "day " << d;
        EXPECT_EQ(hooked.deaths(s)[d], sentinel) << "day " << d;
      }
      EXPECT_THROW((void)pool->day(s), std::logic_error)
          << "a stopped sim's capture slot was written";
    }
    EXPECT_EQ(ref_calls[s], 1);
  }
}

TEST(BatchSinkOnDay, StoppedSimsKeepTheirPrefixAndSkipTheSink) {
  for (const char* backend : {"seir-event", "chain-binomial", "abm"}) {
    check_on_day_contract(backend, kFrom - 1);  // parent at the window start
    check_on_day_contract(backend, 0);          // 19 lead-in days
  }
}

TEST(BatchSinkOnDay, GenericRunBatchMayIgnoreTheHook) {
  // The base-class adapter (custom simulators) runs every sim to the end
  // and calls on_sim; callers must treat that like an unhooked run.
  const auto inner = api::simulators().create("seir-event", small_spec());
  const PerSimReference generic(*inner);
  const auto parents = generic.make_pool();
  parents->resize(1);
  parents->set_from_checkpoint(0, generic.initial_state(kFrom - 1, 11));
  EnsembleBuffer buf(4, kLen);
  for (std::size_t s = 0; s < 4; ++s) {
    buf.parent[s] = 0;
    buf.theta[s] = 0.3;
    buf.seed[s] = 5;
    buf.stream[s] = s;
  }
  std::vector<std::uint8_t> calls(4, 0);
  BatchSink sink;
  sink.on_sim = [&](std::size_t s) { ++calls[s]; };
  sink.on_day = [](std::size_t, std::size_t) { return false; };
  generic.run_batch(*parents, kTo, buf, 0, 4, sink);
  EXPECT_EQ(calls, std::vector<std::uint8_t>(4, 1));
}

// ---------------------------------------------------------------------------
// The flag: truth table and the day-term sweep.
// ---------------------------------------------------------------------------

bool flag_of(const Likelihood& lik, std::vector<double> observed) {
  return lik.prepare(observed).nonpositive_day_terms;
}

class VerbatimLikelihood final : public Likelihood {
 public:
  using Likelihood::logpdf;
  [[nodiscard]] double logpdf(std::span<const double>,
                              std::span<const double>) const override {
    return -1.0;
  }
  [[nodiscard]] std::string name() const override { return "verbatim"; }
};

TEST(ObservationCacheFlag, TruthTableOfTheBuiltIns) {
  const std::vector<double> counts = {0.0, 3.0, 250.0, 41234.0};
  const double threshold = 1.0 / std::sqrt(2.0 * std::numbers::pi);

  EXPECT_TRUE(flag_of(GaussianSqrtLikelihood(1.0), counts));
  EXPECT_TRUE(flag_of(GaussianSqrtLikelihood(25.0), counts));
  EXPECT_TRUE(flag_of(GaussianSqrtLikelihood(threshold * (1.0 + 1e-12)),
                      counts));
  EXPECT_FALSE(flag_of(GaussianSqrtLikelihood(threshold * (1.0 - 1e-12)),
                       counts));
  EXPECT_FALSE(flag_of(GaussianSqrtLikelihood(0.1), counts));

  EXPECT_TRUE(flag_of(NegBinSqrtLikelihood(500.0), counts));
  EXPECT_TRUE(flag_of(NegBinSqrtLikelihood(1e-3), counts));
  EXPECT_TRUE(flag_of(NegBinSqrtLikelihood(1e9), counts));

  EXPECT_TRUE(flag_of(PoissonLikelihood(), counts));
  EXPECT_TRUE(flag_of(PoissonLikelihood(1e-300), counts));
  EXPECT_TRUE(flag_of(PoissonLikelihood(), {1e10}));
  EXPECT_FALSE(flag_of(PoissonLikelihood(), {3.0, 2e10}));

  // Likelihoods on the default prepare() never set it.
  EXPECT_FALSE(flag_of(GaussianCountLikelihood(1.0), counts));
  EXPECT_FALSE(flag_of(VerbatimLikelihood(), counts));

  // The decorator that clears it, and the registry path.
  EXPECT_FALSE(flag_of(FullEvaluation(std::make_unique<PoissonLikelihood>()),
                       counts));
  EXPECT_TRUE(flag_of(*api::likelihoods().create("nb-sqrt", 500.0), counts));
}

TEST(ObservationCacheFlag, EveryDayTermIsNonPositiveWhenSet) {
  const simd::ScopedLevel pin(simd::SimdLevel::kScalar);
  const double threshold = 1.0 / std::sqrt(2.0 * std::numbers::pi);
  std::vector<std::unique_ptr<Likelihood>> liks;
  liks.push_back(std::make_unique<GaussianSqrtLikelihood>(1.0));
  liks.push_back(std::make_unique<GaussianSqrtLikelihood>(threshold * 1.0001));
  liks.push_back(std::make_unique<GaussianSqrtLikelihood>(
      std::nextafter(threshold, 1.0)));
  liks.push_back(std::make_unique<NegBinSqrtLikelihood>(500.0));
  liks.push_back(std::make_unique<NegBinSqrtLikelihood>(1e-3));
  liks.push_back(std::make_unique<NegBinSqrtLikelihood>(1e12));
  liks.push_back(std::make_unique<PoissonLikelihood>());
  liks.push_back(std::make_unique<PoissonLikelihood>(1e-300));
  liks.push_back(std::make_unique<PoissonLikelihood>(2.0));

  const std::vector<double> observed = {0.0,   0.4, 1.0,    2.0,  7.0,
                                        100.0, 1e3, 12345., 1e6,  987654321.,
                                        1e9,   4e9, 1e10};
  std::vector<double> simulated = {0.0,  0.25, 0.5, 1.0,   2.0,   1e3,
                                   1e6,  1e9,  1e12, 1e15, 1e18, 1e300,
                                   std::numeric_limits<double>::max(),
                                   std::numeric_limits<double>::denorm_min()};
  for (const double y : observed) {
    for (const double f : {1.0 - 1e-9, 1.0, 1.0 + 1e-9}) simulated.push_back(y * f);
    simulated.push_back(y + 1.0);
    if (y >= 1.0) simulated.push_back(y - 1.0);
  }

  std::size_t checked = 0;
  for (const auto& lik : liks) {
    for (const double y : observed) {
      const ObservationCache cache = lik->prepare({&y, 1});
      ASSERT_TRUE(cache.nonpositive_day_terms)
          << lik->name() << " y=" << y;
      for (const double x : simulated) {
        const double term = lik->logpdf(cache, {&x, 1});
        EXPECT_LE(term, 0.0) << lik->name() << " y=" << y << " sim=" << x;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// ---------------------------------------------------------------------------
// Exactness: full evaluation vs early rejection, bit for bit.
// ---------------------------------------------------------------------------

struct Variant {
  std::string simulator;
  bool use_deaths;
  std::string death_likelihood;
};

CalibrationConfig exactness_config(const Variant& v,
                                   const std::string& prefix) {
  CalibrationConfig cfg;
  cfg.windows = {{20, 33}, {34, 47}};
  cfg.n_params = 40;
  cfg.replicates = 2;
  cfg.resample_size = 80;
  cfg.seed = 777;
  cfg.inference = InferenceStrategy::kTemperedRejuvenate;
  cfg.ess_threshold = 0.5;
  cfg.rejuvenation_moves = 2;
  cfg.likelihood_name = prefix + "gaussian-sqrt";
  cfg.likelihood_parameter = 1.0;
  cfg.use_deaths = v.use_deaths;
  cfg.death_likelihood_name = prefix + v.death_likelihood;
  cfg.death_likelihood_parameter = 1.0;
  return cfg;
}

api::CalibrationSession exactness_session(const Variant& v,
                                          const std::string& prefix) {
  api::CalibrationSession session;
  session.with_simulator(kCounted + v.simulator, small_spec())
      .with_data(small_truth().observed())
      .with_config(exactness_config(v, prefix));
  return session;
}

void expect_windows_identical(const std::vector<WindowResult>& full,
                              const std::vector<WindowResult>& fast) {
  ASSERT_EQ(full.size(), fast.size());
  for (std::size_t w = 0; w < full.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    const WindowResult& a = full[w];
    const WindowResult& b = fast[w];
    expect_bitwise(a.weights, b.weights, "weights");
    ASSERT_EQ(a.resampled, b.resampled);
    ASSERT_EQ(a.sim_to_state, b.sim_to_state);
    expect_bitwise(a.smc.move_acceptance, b.smc.move_acceptance,
                   "move_acceptance");
    EXPECT_EQ(a.smc.rejuvenation_proposed, b.smc.rejuvenation_proposed);
    EXPECT_EQ(a.smc.rejuvenation_accepted, b.smc.rejuvenation_accepted);
    ASSERT_EQ(a.rejuvenated.has_value(), b.rejuvenated.has_value());
    if (a.rejuvenated) {
      const RejuvenatedDraws& ra = *a.rejuvenated;
      const RejuvenatedDraws& rb = *b.rejuvenated;
      EXPECT_EQ(ra.moved, rb.moved);
      expect_bitwise(ra.theta, rb.theta, "overlay theta");
      expect_bitwise(ra.rho, rb.rho, "overlay rho");
      EXPECT_EQ(ra.state_slot, rb.state_slot);
      EXPECT_EQ(ra.series_row, rb.series_row);
      ASSERT_EQ(ra.series.size(), rb.series.size());
      for (std::size_t r = 0; r < ra.series.size(); ++r) {
        expect_bitwise(ra.series.true_cases(r), rb.series.true_cases(r),
                       "overlay true cases");
        expect_bitwise(ra.series.obs_cases(r), rb.series.obs_cases(r),
                       "overlay observed cases");
        expect_bitwise(ra.series.deaths(r), rb.series.deaths(r),
                       "overlay deaths");
      }
    }
    ASSERT_TRUE(a.state_pool);
    ASSERT_TRUE(b.state_pool);
    ASSERT_EQ(a.state_pool->size(), b.state_pool->size());
    for (std::size_t u = 0; u < a.state_pool->size(); ++u) {
      ASSERT_EQ(checkpoint_bytes(*a.state_pool, u),
                checkpoint_bytes(*b.state_pool, u))
          << "state slot " << u;
    }
  }
}

std::size_t rejuvenated_windows(const std::vector<WindowResult>& windows) {
  std::size_t n = 0;
  for (const WindowResult& w : windows) n += w.rejuvenated.has_value();
  return n;
}

void feed(stream::StreamingCalibrator& cal, bool with_deaths) {
  const ObservedData data = small_truth().observed();
  for (std::int32_t d = 20; d <= 47; ++d) {
    stream::DailyObservation obs;
    obs.day = d;
    obs.cases = data.cases_at(d);
    if (with_deaths) obs.deaths = data.deaths_at(d);
    cal.ingest(obs);
  }
}

// Runs the variant with full evaluation and with the built-ins and checks
// the two agree bit for bit; returns how many proposals the stop ended.
std::size_t check_exact(const Variant& v, simd::SimdLevel level,
                        bool streaming) {
  register_decorators();
  const simd::ScopedLevel pin(level);
  g_stops.store(0);
  auto full = exactness_session(v, kFullEval);
  auto fast = exactness_session(v, "");
  std::size_t stops = 0;
  if (streaming) {
    // Without mid-window resampling the boundary ladder fires as in batch,
    // so the rejuvenation moves run on the stream's own accumulators.
    api::StreamOptions options;
    options.resample_mid_window = false;
    stream::StreamingCalibrator full_cal = full.stream(options);
    feed(full_cal, v.use_deaths);
    EXPECT_EQ(g_stops.exchange(0), 0u) << "full evaluation stopped a sim";
    stream::StreamingCalibrator fast_cal = fast.stream(options);
    feed(fast_cal, v.use_deaths);
    stops = g_stops.exchange(0);
    EXPECT_GT(rejuvenated_windows(full_cal.results()), 0u);
    expect_windows_identical(full_cal.results(), fast_cal.results());
  } else {
    full.run_all();
    EXPECT_EQ(g_stops.exchange(0), 0u) << "full evaluation stopped a sim";
    fast.run_all();
    stops = g_stops.exchange(0);
    EXPECT_GT(rejuvenated_windows(full.results()), 0u);
    expect_windows_identical(full.results(), fast.results());
  }
  return stops;
}

void check_variant(const Variant& v) {
  for (const bool streaming : {false, true}) {
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::best_level()}) {
      SCOPED_TRACE(v.simulator + (v.use_deaths ? " +deaths(" : " (") +
                   v.death_likelihood + ") " +
                   (streaming ? "stream " : "batch ") +
                   simd::level_name(level));
      const std::size_t stops = check_exact(v, level, streaming);
      // The stop fires only at the scalar level, and only when both
      // likelihoods in play set the flag.
      const bool may_stop = level == simd::SimdLevel::kScalar &&
                            (!v.use_deaths || v.death_likelihood != "gaussian-count");
      if (may_stop) {
        EXPECT_GT(stops, 0u);
      } else {
        EXPECT_EQ(stops, 0u);
      }
    }
  }
}

TEST(EarlyRejection, BitIdenticalToFullEvaluationSeir) {
  check_variant({"seir-event", false, "gaussian-sqrt"});
  check_variant({"seir-event", true, "poisson"});
}

TEST(EarlyRejection, BitIdenticalToFullEvaluationChainBinomial) {
  check_variant({"chain-binomial", false, "gaussian-sqrt"});
  check_variant({"chain-binomial", true, "nb-sqrt"});
}

TEST(EarlyRejection, BitIdenticalToFullEvaluationAbm) {
  check_variant({"abm", false, "gaussian-sqrt"});
  check_variant({"abm", true, "gaussian-sqrt"});
}

TEST(EarlyRejection, UnflaggedDeathLikelihoodDisablesTheStop) {
  check_variant({"seir-event", true, "gaussian-count"});
}

}  // namespace
