// The batched SoA execution engine: golden bit-identity of the batched
// importance-sampling window against the pre-refactor per-sim path,
// run_batch == run_window-loop equivalence for all three backends,
// thread-count invariance of EnsembleBuffer contents, common-random-number
// stream identity across the batch boundary, and the shared window-tail
// helper's error reporting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include "abm/abm_simulator.hpp"
#include "api/api.hpp"
#include "core/importance_sampler.hpp"
#include "core/scenario.hpp"
#include "simd/simd.hpp"
#include "parallel/parallel.hpp"

namespace {

using namespace epismc::core;
namespace epi = epismc::epi;
namespace api = epismc::api;

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

ParamProposal prior_proposal() {
  return [](epismc::rng::Engine& eng, std::uint32_t) {
    ProposedParams p;
    p.theta = epismc::rng::uniform_range(eng, 0.1, 0.5);
    p.rho = epismc::rng::beta(eng, 4.0, 1.0);
    p.parent = 0;
    return p;
  };
}

void expect_identical_results(const WindowResult& a, const WindowResult& b) {
  ASSERT_EQ(a.n_sims(), b.n_sims());
  for (std::size_t s = 0; s < a.n_sims(); ++s) {
    const auto ta = a.ensemble.true_cases(s);
    const auto tb = b.ensemble.true_cases(s);
    ASSERT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "true_cases diverge at sim " << s;
    const auto oa = a.ensemble.obs_cases(s);
    const auto ob = b.ensemble.obs_cases(s);
    ASSERT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()))
        << "obs_cases diverge at sim " << s;
    const auto da = a.ensemble.deaths(s);
    const auto db = b.ensemble.deaths(s);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
        << "deaths diverge at sim " << s;
    ASSERT_EQ(bits(a.ensemble.log_weight[s]), bits(b.ensemble.log_weight[s]))
        << "log weight diverges at sim " << s;
    ASSERT_EQ(a.ensemble.stream[s], b.ensemble.stream[s]);
  }
  EXPECT_EQ(a.resampled, b.resampled);
  ASSERT_EQ(a.state_count(), b.state_count());
  for (std::size_t u = 0; u < a.state_count(); ++u) {
    const epi::Checkpoint ca = a.state_pool->to_checkpoint(u);
    const epi::Checkpoint cb = b.state_pool->to_checkpoint(u);
    EXPECT_EQ(ca.day, cb.day);
    EXPECT_EQ(ca.bytes, cb.bytes) << "end state " << u;
  }
}

// ---------------------------------------------------------------------------
// Golden test: the batched run_importance_window reproduces the
// pre-refactor per-sim path bit for bit on the paper-baseline scenario.
// The constants below are the IEEE-754 bit patterns captured from the
// per-SimRecord implementation (commit 72cc753) with this exact
// configuration. Any change to stream derivation, batch scheduling, or
// series extraction that alters a single bit fails here.
// ---------------------------------------------------------------------------
TEST(EnsembleGolden, BitIdenticalToPreRefactorPerSimPath) {
  // Golden values are the scalar reference realization; pin the lane
  // kernels to scalar so the suite passes under any EPISMC_SIMD override.
  const epismc::simd::ScopedLevel simd_pin(epismc::simd::SimdLevel::kScalar);

  const api::ScenarioPreset preset = api::scenarios().create("paper-baseline");
  const GroundTruth truth = preset.make_truth();
  const api::SimulatorSpec sim_spec = preset.simulator_spec();
  const SeirSimulator sim(
      {sim_spec.params, sim_spec.burnin_theta, sim_spec.initial_exposed});

  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.window_index = 0;
  spec.n_params = 48;
  spec.replicates = 2;
  spec.resample_size = 96;
  spec.seed = 4242;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const std::vector<epi::Checkpoint> parents = {sim.initial_state(0, 7)};

  const WindowResult r = run_importance_window(
      sim, lik, bias, truth.observed(), parents, spec, prior_proposal());

  double case_sum = 0.0, obs_sum = 0.0, death_sum = 0.0;
  for (std::size_t s = 0; s < r.n_sims(); ++s) {
    for (const double v : r.ensemble.true_cases(s)) case_sum += v;
    for (const double v : r.ensemble.obs_cases(s)) obs_sum += v;
    for (const double v : r.ensemble.deaths(s)) death_sum += v;
  }
  std::uint64_t resampled_hash = 0x9E3779B97F4A7C15ull;
  for (const auto s : r.resampled) {
    resampled_hash = resampled_hash * 1099511628211ull ^ s;
  }

  EXPECT_EQ(bits(case_sum), 0x41504b19c0000000ull);        // 4271207
  EXPECT_EQ(bits(obs_sum), 0x414c056580000000ull);         // 3672779
  EXPECT_EQ(bits(death_sum), 0x408f880000000000ull);       // 1009
  EXPECT_EQ(bits(r.ensemble.log_weight[0]), 0xc059981a01a1d283ull);
  EXPECT_EQ(bits(r.ensemble.log_weight[17]), 0xc0ac020212e59d6cull);
  EXPECT_EQ(bits(r.ensemble.log_weight[95]), 0xc0b3932bcff57324ull);
  EXPECT_EQ(bits(r.diag.log_marginal), 0xc03762813bf079f8ull);
  EXPECT_EQ(bits(r.diag.ess), 0x3ff1156f5c22ee49ull);
  EXPECT_EQ(resampled_hash, 0xe13bc6ae741509feull);
  EXPECT_EQ(r.diag.unique_resampled, 2u);
  ASSERT_GT(r.state_count(), 0u);
  EXPECT_EQ(r.state_pool->day(0), 33);
}

// ---------------------------------------------------------------------------
// Native batch engines vs the per-sim reference path, per backend.
// ---------------------------------------------------------------------------

struct BackendCase {
  const char* name;          // registry name
  std::int64_t population;   // scenario scale per backend cost
  std::size_t n_params;
};

class EnsembleBackend : public ::testing::TestWithParam<BackendCase> {};

TEST_P(EnsembleBackend, BatchMatchesPerSimReference) {
  const BackendCase bc = GetParam();
  api::SimulatorSpec sim_spec;
  sim_spec.params.population = bc.population;
  sim_spec.initial_exposed = bc.population / 200;
  const auto sim = api::simulators().create(bc.name, sim_spec);

  ScenarioConfig scenario;
  scenario.params.population = 300000;
  scenario.initial_exposed = 150;
  scenario.total_days = 40;
  const GroundTruth truth = simulate_ground_truth(scenario);

  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.n_params = bc.n_params;
  spec.replicates = 2;
  spec.resample_size = 2 * bc.n_params;
  spec.seed = 99;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const std::vector<epi::Checkpoint> parents = {sim->initial_state(19, 7)};

  const WindowResult native = run_importance_window(
      *sim, lik, bias, truth.observed(), parents, spec, prior_proposal());
  const PerSimReference reference(*sim);
  const WindowResult persim = run_importance_window(
      reference, lik, bias, truth.observed(), parents, spec, prior_proposal());

  expect_identical_results(native, persim);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EnsembleBackend,
    ::testing::Values(BackendCase{"seir-event", 300000, 40},
                      BackendCase{"chain-binomial", 300000, 40},
                      BackendCase{"abm", 4000, 12}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST_P(EnsembleBackend, BufferContentsThreadCountInvariant) {
  const BackendCase bc = GetParam();
  api::SimulatorSpec sim_spec;
  sim_spec.params.population = bc.population;
  sim_spec.initial_exposed = bc.population / 200;
  const auto sim = api::simulators().create(bc.name, sim_spec);
  const std::vector<epi::Checkpoint> parents = {sim->initial_state(19, 7)};

  // Capture the machine's thread budget before set_threads(1) shrinks
  // what max_threads() reports.
  const int hw_threads = epismc::parallel::max_threads();
  const auto propagate = [&](int threads) {
    epismc::parallel::set_threads(threads);
    EnsembleBuffer buf(bc.n_params, 14);
    for (std::size_t s = 0; s < buf.size(); ++s) {
      buf.parent[s] = 0;
      buf.theta[s] = 0.15 + 0.01 * static_cast<double>(s % 20);
      buf.seed[s] = 7;
      buf.stream[s] = 1000 + s;
    }
    sim->run_batch(parents, 33, buf, 0, buf.size());
    return buf;
  };
  const EnsembleBuffer serial = propagate(1);
  const EnsembleBuffer threaded = propagate(std::max(2, hw_threads));
  epismc::parallel::set_threads(hw_threads);

  for (std::size_t s = 0; s < serial.size(); ++s) {
    const auto a = serial.true_cases(s);
    const auto b = threaded.true_cases(s);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "sim " << s;
    const auto da = serial.deaths(s);
    const auto db = threaded.deaths(s);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
        << "sim " << s;
  }
}

// The checkpoint-span overload bridges onto the pool overload: same rows,
// and its end states are the capture pool's slots serialized.
TEST_P(EnsembleBackend, SpanOverloadMatchesPoolCapture) {
  const BackendCase bc = GetParam();
  api::SimulatorSpec sim_spec;
  sim_spec.params.population = bc.population;
  sim_spec.initial_exposed = bc.population / 200;
  const auto sim = api::simulators().create(bc.name, sim_spec);
  const std::vector<epi::Checkpoint> parents = {sim->initial_state(19, 7),
                                                sim->initial_state(19, 8)};

  EnsembleBuffer span_buf(bc.n_params, 14);
  for (std::size_t s = 0; s < span_buf.size(); ++s) {
    span_buf.parent[s] = static_cast<std::uint32_t>(s % 2);
    span_buf.theta[s] = 0.15 + 0.01 * static_cast<double>(s % 20);
    span_buf.seed[s] = 7;
    span_buf.stream[s] = 1000 + s;
  }
  EnsembleBuffer pool_buf = span_buf;
  const std::size_t first = 2;
  const std::size_t count = span_buf.size() - first;

  std::vector<epi::Checkpoint> end_states(count);
  sim->run_batch(parents, 33, span_buf, first, count, end_states);

  const auto pool = sim->make_pool();
  for (const epi::Checkpoint& p : parents) pool->append_checkpoint(p);
  const auto capture = sim->make_pool();
  capture->resize(first + count);
  BatchSink sink;
  sink.capture = capture.get();
  sim->run_batch(*pool, 33, pool_buf, first, count, sink);

  for (std::size_t s = first; s < first + count; ++s) {
    const auto ta = span_buf.true_cases(s);
    const auto tb = pool_buf.true_cases(s);
    ASSERT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "sim " << s;
    const auto da = span_buf.deaths(s);
    const auto db = pool_buf.deaths(s);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
        << "sim " << s;
    const epi::Checkpoint captured = capture->to_checkpoint(s);
    EXPECT_EQ(end_states[s - first].day, captured.day) << "sim " << s;
    EXPECT_EQ(end_states[s - first].bytes, captured.bytes) << "sim " << s;
  }
}

// ---------------------------------------------------------------------------
// Common random numbers across the batch boundary.
// ---------------------------------------------------------------------------
TEST(EnsembleCrn, StreamIdentitySurvivesBatching) {
  // Under CRN the model stream depends only on the replicate, so the batch
  // columns must show exactly `replicates` distinct streams, laid out
  // identically for every parameter draw...
  ScenarioConfig scenario;
  scenario.params.population = 300000;
  scenario.initial_exposed = 150;
  scenario.total_days = 40;
  const GroundTruth truth = simulate_ground_truth(scenario);
  const SeirSimulator sim(
      {scenario.params, 0.3, scenario.initial_exposed});
  const std::vector<epi::Checkpoint> parents = {sim.initial_state(19, 7)};

  WindowSpec spec;
  spec.from_day = 20;
  spec.to_day = 33;
  spec.n_params = 12;
  spec.replicates = 3;
  spec.resample_size = 36;
  spec.seed = 99;
  spec.common_random_numbers = true;
  const GaussianSqrtLikelihood lik(1.0);
  const BinomialBias bias;
  const WindowResult r = run_importance_window(
      sim, lik, bias, truth.observed(), parents, spec, prior_proposal());

  std::set<std::uint64_t> streams(r.ensemble.stream.begin(),
                                  r.ensemble.stream.end());
  EXPECT_EQ(streams.size(), spec.replicates);
  for (std::size_t s = 0; s < r.n_sims(); ++s) {
    EXPECT_EQ(r.ensemble.stream[s],
              r.ensemble.stream[s % spec.replicates]);
  }

  // ...and two sims given identical (parent, theta, seed, stream) columns
  // must produce identical rows -- the property CRN variance reduction
  // rests on, now enforced at the run_batch boundary.
  EnsembleBuffer buf(2, 14);
  for (std::size_t s = 0; s < 2; ++s) {
    buf.parent[s] = 0;
    buf.theta[s] = 0.3;
    buf.seed[s] = r.ensemble.seed[0];
    buf.stream[s] = r.ensemble.stream[0];
  }
  sim.run_batch(parents, 33, buf, 0, 2);
  const auto row0 = buf.true_cases(0);
  const auto row1 = buf.true_cases(1);
  EXPECT_TRUE(std::equal(row0.begin(), row0.end(), row1.begin(), row1.end()));
}

// ---------------------------------------------------------------------------
// Shared window-tail helper.
// ---------------------------------------------------------------------------
TEST(EnsembleBufferTest, StoreTailTrimsLeadingDays) {
  EnsembleBuffer buf(2, 3);
  const std::vector<double> series = {1.0, 2.0, 3.0, 4.0, 5.0};
  buf.store_tail(EnsembleBuffer::Series::kTrueCases, 1, series);
  const auto row = buf.true_cases(1);
  EXPECT_EQ(row[0], 3.0);
  EXPECT_EQ(row[1], 4.0);
  EXPECT_EQ(row[2], 5.0);
}

TEST(EnsembleBufferTest, StoreTailNamesOffendingSim) {
  EnsembleBuffer buf(4, 5);
  const std::vector<double> too_short = {1.0, 2.0};
  try {
    buf.store_tail(EnsembleBuffer::Series::kDeaths, 3, too_short);
    FAIL() << "store_tail accepted a series shorter than the window";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sim 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("inside the window"), std::string::npos) << msg;
  }
}

TEST(EnsembleBufferTest, ResizeReshapesAllColumns) {
  EnsembleBuffer buf(3, 7);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.window_len(), 7u);
  EXPECT_EQ(buf.theta.size(), 3u);
  EXPECT_EQ(buf.stream.size(), 3u);
  EXPECT_EQ(buf.true_cases(2).size(), 7u);
  buf.resize(5, 2);
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.log_weight.size(), 5u);
  EXPECT_EQ(buf.deaths(4).size(), 2u);
}

TEST(EnsembleBufferTest, RunBatchValidatesArguments) {
  ScenarioConfig scenario;
  scenario.params.population = 50000;
  scenario.initial_exposed = 50;
  const SeirSimulator sim({scenario.params, 0.3, scenario.initial_exposed});
  const std::vector<epi::Checkpoint> parents = {sim.initial_state(19, 7)};

  EnsembleBuffer buf(2, 3);
  buf.theta[0] = buf.theta[1] = 0.3;
  // Range beyond the buffer.
  EXPECT_THROW(sim.run_batch(parents, 22, buf, 1, 2), std::out_of_range);
  // Parent column out of bounds, named by sim.
  buf.parent[1] = 9;
  try {
    sim.run_batch(parents, 22, buf, 0, 2);
    FAIL() << "run_batch accepted an out-of-range parent";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("sim 1"), std::string::npos);
  }
  // end_states size mismatch.
  buf.parent[1] = 0;
  std::vector<epi::Checkpoint> states(1);
  EXPECT_THROW(sim.run_batch(parents, 22, buf, 0, 2, states),
               std::invalid_argument);
}

}  // namespace
