// CalibrationSession: the fluent builder wires scenario, simulator and
// config exactly like hand construction (bit-identical posteriors on a
// small 2-window scenario), materialization is lazy and one-shot, and the
// convenience accessors (truth, summaries, forecast) behave; and the
// shared command-line entry point maps mistakes to usage + exit 2.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/posterior.hpp"
#include "core/scenario.hpp"
#include "core/sequential_calibrator.hpp"
#include "parallel/parallel.hpp"
#include "simd/simd.hpp"

namespace {

using namespace epismc;
using namespace epismc::core;

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.params.population = 250000;
  cfg.initial_exposed = 150;
  cfg.total_days = 60;
  cfg.theta_segments = {{0, 0.30}, {34, 0.42}};
  cfg.rho_segments = {{0, 0.60}, {34, 0.75}};
  return cfg;
}

CalibrationConfig small_config() {
  CalibrationConfig cfg;
  cfg.windows = {{20, 33}, {34, 47}};
  cfg.n_params = 80;
  cfg.replicates = 3;
  cfg.resample_size = 160;
  cfg.seed = 777;
  return cfg;
}

TEST(Session, MatchesHandWiredPipelineBitForBit) {
  const ScenarioConfig scenario = small_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);

  // Hand-wired: the pre-facade construction pattern.
  const SeirSimulator sim(
      EpiSimulatorConfig{scenario.params, 0.3, scenario.initial_exposed});
  SequentialCalibrator direct(sim, truth.observed(), small_config());
  direct.run_all();

  // Facade: same pieces by name.
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;
  api::CalibrationSession session;
  session.with_simulator("seir-event", spec)
      .with_data(truth.observed())
      .with_config(small_config());
  session.run_all();

  ASSERT_EQ(session.results().size(), direct.results().size());
  for (std::size_t m = 0; m < direct.results().size(); ++m) {
    EXPECT_EQ(session.results()[m].posterior_thetas(),
              direct.results()[m].posterior_thetas());
    EXPECT_EQ(session.results()[m].posterior_rhos(),
              direct.results()[m].posterior_rhos());
    EXPECT_EQ(session.results()[m].resampled, direct.results()[m].resampled);
  }
}

TEST(Session, GranularBuildersEqualWithConfig) {
  const ScenarioConfig scenario = small_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;

  const CalibrationConfig cfg = small_config();
  api::CalibrationSession wholesale;
  wholesale.with_simulator("seir-event", spec)
      .with_data(truth.observed())
      .with_config(cfg);

  api::CalibrationSession granular;
  granular.with_simulator("seir-event", spec)
      .with_data(truth.observed())
      .with_windows(cfg.windows)
      .with_budget(cfg.n_params, cfg.replicates, cfg.resample_size)
      .with_likelihood(cfg.likelihood_name, cfg.likelihood_parameter)
      .with_bias(cfg.bias_name)
      .with_jitter("paper-default")
      .with_seed(cfg.seed);

  wholesale.run_all();
  granular.run_all();
  EXPECT_EQ(wholesale.results().back().posterior_thetas(),
            granular.results().back().posterior_thetas());
}

TEST(Session, InferenceNameKeepsStagedTemperKnobs) {
  api::CalibrationSession session;
  session.with_ess_threshold(0.7)
      .with_rejuvenation_moves(3)
      .with_inference("tempered+rejuvenate");
  EXPECT_EQ(session.config().inference,
            InferenceStrategy::kTemperedRejuvenate);
  EXPECT_DOUBLE_EQ(session.config().ess_threshold, 0.7);
  EXPECT_EQ(session.config().rejuvenation_moves, 3u);
}

TEST(Session, InferenceNameKeepsConfigTemperKnobs) {
  CalibrationConfig cfg = small_config();
  cfg.ess_threshold = 0.3;
  cfg.max_temper_stages = 5;
  cfg.rejuvenation_moves = 4;
  api::CalibrationSession session;
  session.with_config(cfg).with_inference("tempered");
  EXPECT_EQ(session.config().inference, InferenceStrategy::kTempered);
  EXPECT_DOUBLE_EQ(session.config().ess_threshold, 0.3);
  EXPECT_EQ(session.config().max_temper_stages, 5u);
  EXPECT_EQ(session.config().rejuvenation_moves, 4u);
}

TEST(Session, ScenarioPresetProvidesTruthAndData) {
  api::ScenarioPreset preset = api::scenarios().create("paper-baseline");
  preset.scenario.params.population = 250000;
  preset.scenario.initial_exposed = 150;
  preset.scenario.total_days = 45;

  api::CalibrationSession session;
  session.with_scenario(preset)
      .with_windows({{20, 33}})
      .with_budget(60, 3, 120);
  EXPECT_TRUE(session.has_truth());
  const GroundTruth& truth = session.truth();
  EXPECT_EQ(truth.true_cases.size(), 45u);
  EXPECT_EQ(session.data().first_day(), 1);
  (void)session.run_next_window();
  EXPECT_TRUE(session.finished());
  // The simulator spec came from the preset, not the defaults.
  EXPECT_EQ(session.simulator().name(), "seir-event");
}

TEST(Session, ConfigurationAfterBuildThrows) {
  api::ScenarioPreset preset = api::scenarios().create("paper-baseline");
  preset.scenario.total_days = 40;
  preset.scenario.params.population = 150000;
  api::CalibrationSession session;
  session.with_scenario(preset).with_windows({{20, 33}}).with_budget(20, 2, 40);
  (void)session.run_next_window();
  EXPECT_THROW(session.with_seed(1), std::logic_error);
  EXPECT_THROW(session.with_simulator("abm"), std::logic_error);
  EXPECT_THROW(session.with_budget(1, 1, 1), std::logic_error);
}

TEST(Session, RequiresDataOrScenario) {
  api::CalibrationSession session;
  session.with_windows({{20, 33}});
  EXPECT_THROW(session.run_all(), std::logic_error);
}

TEST(Session, UnknownComponentNamesFailFast) {
  EXPECT_THROW(api::CalibrationSession().with_scenario("atlantis"),
               api::UnknownComponentError);
  EXPECT_THROW(api::CalibrationSession().with_jitter("wobbly"),
               api::UnknownComponentError);

  // Unknown simulator name: rejected eagerly, before any ground truth is
  // simulated.
  EXPECT_THROW(api::CalibrationSession().with_simulator("spherical-cow"),
               api::UnknownComponentError);

  api::ScenarioPreset preset = api::scenarios().create("paper-baseline");
  preset.scenario.total_days = 40;
  // Unknown likelihood: caught by CalibrationConfig::validate() inside the
  // calibrator constructor, before any window runs.
  api::CalibrationSession session2;
  session2.with_scenario(preset).with_likelihood("not-a-likelihood", 1.0);
  EXPECT_THROW((void)session2.calibrator(), std::invalid_argument);
}

TEST(Session, TruthUnavailableForUserData) {
  const ScenarioConfig scenario = [] {
    ScenarioConfig s = small_scenario();
    s.total_days = 40;
    return s;
  }();
  const GroundTruth truth = simulate_ground_truth(scenario);
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;
  api::CalibrationSession session;
  session.with_simulator("seir-event", spec)
      .with_data(truth.observed())
      .with_windows({{20, 33}})
      .with_budget(20, 2, 40);
  EXPECT_FALSE(session.has_truth());
  EXPECT_THROW((void)session.truth(), std::logic_error);
}

TEST(Session, ForecastBranchesFromPosterior) {
  const ScenarioConfig scenario = small_scenario();
  const GroundTruth truth = simulate_ground_truth(scenario);
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;
  api::CalibrationSession session;
  session.with_simulator("seir-event", spec)
      .with_data(truth.observed())
      .with_windows({{20, 33}})
      .with_budget(60, 3, 120);

  EXPECT_THROW((void)session.forecast(50, 10, 1), std::logic_error);
  (void)session.run_next_window();

  const Forecast fc = session.forecast(45, 12, 99);
  ASSERT_EQ(fc.true_cases.size(), 12u);
  EXPECT_EQ(fc.from_day, 34);
  EXPECT_EQ(fc.to_day, 45);
  ASSERT_EQ(fc.true_cases.front().size(), 12u);  // days 34..45

  // Intervention forecasts respond to theta: near-zero transmission cannot
  // produce more cases than a high-transmission branch on median total.
  const Forecast lo = session.forecast_with_theta(0.02, 45, 12, 99);
  const Forecast hi = session.forecast_with_theta(0.60, 45, 12, 99);
  const auto total = [](const Forecast& f) {
    double acc = 0.0;
    for (const auto& row : f.true_cases) {
      for (const double v : row) acc += v;
    }
    return acc;
  };
  EXPECT_LT(total(lo), total(hi));
}

int run_cli(std::vector<const char*> argv,
            const std::function<int(const io::Args&)>& body) {
  return api::cli_main(static_cast<int>(argv.size()), argv.data(), body);
}

TEST(Cli, CommandLineMistakesExitTwoWithUsage) {
  const auto configure = [](const io::Args& args) {
    api::CalibrationSession session;
    api::configure_session_from_args(session, args);
    args.check_unused();
    return 0;
  };
  const parallel::PoolBackend prev = parallel::backend();
  const simd::SimdLevel prev_level = simd::active_level();
  for (const char* flag : {"--bogus", "--pool=omp", "--simd=avx9000",
                           "--scenario=atlantis", "--n-params=ten", "--help",
                           "positional"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli({"prog", flag}, configure), 2) << flag;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("usage: prog"), std::string::npos) << flag << err;
  }
  // A rejected --pool leaves the backend as it was.
  EXPECT_EQ(parallel::backend(), prev);
  EXPECT_EQ(simd::active_level(), prev_level);

  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"prog", "--pool=omp"}, configure), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("serial|pool"),
            std::string::npos);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"prog", "--help"}, configure), 2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--n-params"),
            std::string::npos);
}

TEST(Cli, BodyExitCodesPassThroughAndErrorsExitOne) {
  EXPECT_EQ(run_cli({"prog"}, [](const io::Args&) { return 0; }), 0);
  EXPECT_EQ(run_cli({"prog"}, [](const io::Args&) { return 3; }), 3);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli({"prog"},
                    [](const io::Args&) -> int {
                      throw std::runtime_error("boom");
                    }),
            1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("prog: error: boom"),
            std::string::npos);
}

TEST(Session, PosteriorSummariesMatchWindows) {
  api::ScenarioPreset preset = api::scenarios().create("paper-baseline");
  preset.scenario.total_days = 50;
  preset.scenario.params.population = 200000;
  preset.scenario.initial_exposed = 150;
  api::CalibrationSession session;
  session.with_scenario(preset)
      .with_windows({{20, 33}, {34, 47}})
      .with_budget(60, 3, 120);
  session.run_all();
  const auto summaries = session.posterior_summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].from_day, 20);
  EXPECT_EQ(summaries[1].to_day, 47);
  EXPECT_THROW((void)session.posterior_summary(2), std::out_of_range);
}

}  // namespace
