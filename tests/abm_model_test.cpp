// Agent-based model: the same invariants demanded of the compartmental
// engines (conservation, determinism, checkpoint-resume equality, restart
// overrides, typed kCorrupt errors for hand-corrupted archives), plus
// agent-level structure (household topology determinism,
// per-agent state accounting) and SMC interoperability through the shared
// Simulator interface.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <numeric>

#include "abm/abm_simulator.hpp"
#include "abm/agent_model.hpp"
#include "core/posterior.hpp"
#include "core/sequential_calibrator.hpp"

namespace {

using namespace epismc;
using abm::AbmConfig;
using abm::AgentBasedModel;

AbmConfig small_config() {
  AbmConfig cfg;
  cfg.disease.population = 20000;
  return cfg;
}

AgentBasedModel seeded(std::uint64_t seed, double theta = 0.35,
                       std::int64_t exposed = 60) {
  AgentBasedModel m(small_config(), epi::PiecewiseSchedule(theta), seed);
  m.seed_exposed(exposed);
  return m;
}

TEST(AbmModel, StartsAllSusceptibleAndConserves) {
  AgentBasedModel m = seeded(1);
  EXPECT_EQ(m.total_individuals(), 20000);
  for (int day = 1; day <= 100; ++day) {
    m.step();
    ASSERT_EQ(m.total_individuals(), 20000) << "day " << day;
  }
}

TEST(AbmModel, HouseholdTopologyIsSeedDeterministic) {
  const AgentBasedModel a = seeded(1);
  const AgentBasedModel b = seeded(2);  // different dynamics seed
  // Same network seed -> identical household partition.
  EXPECT_EQ(a.household_count(), b.household_count());

  AbmConfig other = small_config();
  other.network_seed = 99;
  AgentBasedModel c(other, epi::PiecewiseSchedule(0.35), 1);
  EXPECT_NE(a.household_count(), c.household_count());
}

TEST(AbmModel, HouseholdSizesAverageOut) {
  const AgentBasedModel m = seeded(3);
  const double avg = 20000.0 / static_cast<double>(m.household_count());
  EXPECT_NEAR(avg, small_config().mean_household_size, 0.2);
}

TEST(AbmModel, DeterministicForSameSeed) {
  const auto run = [] {
    AgentBasedModel m = seeded(42);
    m.run_until_day(60);
    return m.trajectory().new_infections(1, 60);
  };
  EXPECT_EQ(run(), run());
}

TEST(AbmModel, DifferentSeedsDiverge) {
  AgentBasedModel a = seeded(1);
  AgentBasedModel b = seeded(2);
  a.run_until_day(60);
  b.run_until_day(60);
  EXPECT_NE(a.trajectory().new_infections(1, 60),
            b.trajectory().new_infections(1, 60));
}

TEST(AbmModel, HigherThetaGrowsFaster) {
  const auto total = [](double theta) {
    AgentBasedModel m = seeded(7, theta);
    m.run_until_day(60);
    const auto c = m.trajectory().new_infections(1, 60);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  EXPECT_GT(total(0.45), 2.0 * total(0.15));
}

TEST(AbmModel, HouseholdShareShiftsTransmission) {
  // With full community mixing vs full household mixing the epidemic still
  // spreads, but pure household transmission saturates (households are
  // small) and infects fewer people.
  const auto total = [](double share) {
    AbmConfig cfg;
    cfg.disease.population = 20000;
    cfg.household_share = share;
    AgentBasedModel m(cfg, epi::PiecewiseSchedule(0.4), 11);
    m.seed_exposed(60);
    m.run_until_day(90);
    const auto c = m.trajectory().new_infections(1, 90);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  EXPECT_GT(total(0.0), total(1.0));
  EXPECT_GT(total(1.0), 0.0);
}

TEST(AbmModel, CheckpointResumeEqualsUninterrupted) {
  AgentBasedModel reference = seeded(13);
  reference.run_until_day(70);

  AgentBasedModel half = seeded(13);
  half.run_until_day(35);
  AgentBasedModel resumed = AgentBasedModel::restore(half.make_checkpoint());
  resumed.run_until_day(70);
  EXPECT_EQ(resumed.census(), reference.census());
  EXPECT_EQ(resumed.trajectory().new_infections(1, 70),
            reference.trajectory().new_infections(1, 70));
}

TEST(AbmModel, CheckpointOverridesBranchFutures) {
  AgentBasedModel m = seeded(17);
  m.run_until_day(30);
  const epi::Checkpoint ckpt = m.make_checkpoint();

  epi::RestartOverrides hot;
  hot.seed = 500;
  hot.transmission_rate = 0.6;
  epi::RestartOverrides cold;
  cold.seed = 500;
  cold.transmission_rate = 0.02;
  AgentBasedModel a = AgentBasedModel::restore(ckpt, hot);
  AgentBasedModel b = AgentBasedModel::restore(ckpt, cold);
  EXPECT_EQ(a.census(), b.census());  // same state at branch point
  a.run_until_day(80);
  b.run_until_day(80);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_GT(sum(a.trajectory().new_infections(31, 80)),
            2.0 * sum(b.trajectory().new_infections(31, 80)));
  EXPECT_EQ(a.total_individuals(), 20000);
}

TEST(AbmModel, RejectsCompartmentalCheckpoints) {
  epi::DiseaseParameters p;
  p.population = 10000;
  epi::SeirModel compartmental(p, epi::PiecewiseSchedule(0.3), 3);
  compartmental.seed_exposed(50);
  compartmental.run_until_day(10);
  EXPECT_THROW((void)AgentBasedModel::restore(compartmental.make_checkpoint()),
               io::ArchiveError);
}

// --- Hand-corrupted archives: every bad archived field is a typed kCorrupt.

using io::ArchiveError;
using io::ArchiveErrorKind;

template <typename Restore>
void expect_corrupt(Restore&& restore, const char* what) {
  try {
    restore();
    ADD_FAILURE() << what << ": restore accepted the archive";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kCorrupt) << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped " << e.what();
  }
}

epi::Checkpoint mid_epidemic_checkpoint(std::uint64_t seed) {
  AgentBasedModel m = seeded(seed);
  m.run_until_day(10);
  return m.make_checkpoint();
}

/// Byte offset just past the archived disease parameters, where the
/// household mean size and share follow as two doubles.
std::size_t household_offset(const epi::Checkpoint& ckpt) {
  io::BinaryReader in{ckpt.bytes};
  (void)epi::DiseaseParameters::deserialize(in);
  return ckpt.bytes.size() - in.remaining();
}

/// Advance `in` to the census: parameters, household fields, network seed,
/// engine tag, schedule and day precede it.
void skip_to_census(io::BinaryReader& in) {
  (void)epi::DiseaseParameters::deserialize(in);
  (void)in.read<double>();
  (void)in.read<double>();
  (void)in.read<std::uint64_t>();
  (void)in.read<std::uint8_t>();
  (void)epi::PiecewiseSchedule::deserialize(in);
  (void)in.read<std::int32_t>();
}

/// Byte offset of the census.
std::size_t census_offset(const epi::Checkpoint& ckpt) {
  io::BinaryReader in{ckpt.bytes};
  skip_to_census(in);
  return ckpt.bytes.size() - in.remaining();
}

template <typename T>
epi::Checkpoint overwrite(const epi::Checkpoint& ckpt, std::size_t at, T v) {
  epi::Checkpoint bad = ckpt;
  std::memcpy(bad.bytes.data() + at, &v, sizeof v);
  return bad;
}

TEST(AbmModel, ArchivedInvalidDiseaseParametersAreCorrupt) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(61);
  epi::DiseaseParameters params = small_config().disease;
  params.fraction_mild = 1.5;
  io::BinaryWriter out(io::BinaryReader{good.bytes}.version());
  params.serialize(out);
  epi::Checkpoint bad = good;
  bad.bytes = out.bytes();
  const std::size_t rest = household_offset(good);
  bad.bytes.insert(bad.bytes.end(), good.bytes.begin() + rest,
                   good.bytes.end());
  expect_corrupt([&] { (void)AgentBasedModel::restore(bad); }, "params");
}

TEST(AbmModel, ArchivedInvalidHouseholdSizeIsCorrupt) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(67);
  const epi::Checkpoint bad = overwrite(good, household_offset(good), 0.5);
  expect_corrupt([&] { (void)AgentBasedModel::restore(bad); },
                 "mean_household_size");
}

TEST(AbmModel, ArchivedInvalidHouseholdShareIsCorrupt) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(71);
  const epi::Checkpoint bad =
      overwrite(good, household_offset(good) + sizeof(double), 1.5);
  expect_corrupt([&] { (void)AgentBasedModel::restore(bad); },
                 "household_share");
}

TEST(AbmModel, ArchivedCensusNotSummingToPopulationIsCorrupt) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(73);
  const std::size_t at = census_offset(good);
  std::int64_t s = 0;
  std::memcpy(&s, good.bytes.data() + at, sizeof s);
  ASSERT_GT(s, 0);
  const epi::Checkpoint bad = overwrite(good, at, s - 1);
  expect_corrupt([&] { (void)AgentBasedModel::restore(bad); }, "census");
}

/// Byte offsets of the three archived agent arrays' length fields (each a
/// uint64 count followed by the elements): state, next_state, next_day.
std::array<std::size_t, 3> agent_array_offsets(const epi::Checkpoint& ckpt) {
  io::BinaryReader in{ckpt.bytes};
  skip_to_census(in);
  (void)in.read<epi::Census>();
  std::array<std::size_t, 3> at{};
  at[0] = ckpt.bytes.size() - in.remaining();
  (void)in.read_vector<std::uint8_t>();
  at[1] = ckpt.bytes.size() - in.remaining();
  (void)in.read_vector<std::uint8_t>();
  at[2] = ckpt.bytes.size() - in.remaining();
  return at;
}

TEST(AbmModel, ArchivedShortAgentArrayIsCorrupt) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(89);
  const auto at = agent_array_offsets(good);
  const std::array<std::size_t, 3> element = {sizeof(std::uint8_t),
                                              sizeof(std::uint8_t),
                                              sizeof(std::int32_t)};
  const char* names[] = {"state", "next_state", "next_day"};
  for (std::size_t k = 0; k < at.size(); ++k) {
    // Drop the array's last element and shorten its count to match, so
    // the archive still parses field by field.
    std::uint64_t n = 0;
    std::memcpy(&n, good.bytes.data() + at[k], sizeof n);
    ASSERT_EQ(n, 20000u);
    epi::Checkpoint bad = overwrite(good, at[k], n - 1);
    const std::size_t last = at[k] + sizeof n + (n - 1) * element[k];
    bad.bytes.erase(bad.bytes.begin() + static_cast<std::ptrdiff_t>(last),
                    bad.bytes.begin() +
                        static_cast<std::ptrdiff_t>(last + element[k]));
    expect_corrupt([&] { (void)AgentBasedModel::restore(bad); }, names[k]);
  }
}

TEST(AbmModel, ArchivedInvalidCompartmentIsCorrupt) {
  // A scheduled exposed agent whose state (or destination) byte names no
  // compartment: the first step would index the census with it.
  const epi::Checkpoint good = mid_epidemic_checkpoint(97);
  const auto at = agent_array_offsets(good);
  const std::size_t state = at[0] + sizeof(std::uint64_t);
  const std::size_t next_state = at[1] + sizeof(std::uint64_t);
  std::size_t agent = 0;
  while (static_cast<epi::Compartment>(
             std::to_integer<std::uint8_t>(good.bytes[state + agent])) !=
         epi::Compartment::kE) {
    ++agent;
    ASSERT_LT(agent, 20000u) << "no exposed agent at day 10";
  }
  expect_corrupt(
      [&] {
        (void)AgentBasedModel::restore(
            overwrite(good, state + agent, std::uint8_t{250}));
      },
      "state byte");
  expect_corrupt(
      [&] {
        (void)AgentBasedModel::restore(
            overwrite(good, next_state + agent, std::uint8_t{250}));
      },
      "next_state byte");
}

TEST(AbmModel, ArchivedCensusNotTallyingAgentStatesIsCorrupt) {
  // An S agent re-labelled E: the census still sums to the population but
  // no longer counts the agents in each compartment.
  const epi::Checkpoint good = mid_epidemic_checkpoint(101);
  const std::size_t state =
      agent_array_offsets(good)[0] + sizeof(std::uint64_t);
  std::size_t agent = 0;
  while (static_cast<epi::Compartment>(
             std::to_integer<std::uint8_t>(good.bytes[state + agent])) !=
         epi::Compartment::kS) {
    ++agent;
  }
  const epi::Checkpoint bad =
      overwrite(good, state + agent,
                static_cast<std::uint8_t>(epi::Compartment::kE));
  expect_corrupt([&] { (void)AgentBasedModel::restore(bad); }, "tally");
}

// A corrupt calendar length fails typed before the restore allocates the
// ring from it.
TEST(AbmModel, ArchivedHugeCalendarLengthIsTruncated) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(83);
  io::BinaryReader in{good.bytes};
  skip_to_census(in);
  (void)in.read<epi::Census>();
  (void)in.read_vector<std::uint8_t>();   // state
  (void)in.read_vector<std::uint8_t>();   // next_state
  (void)in.read_vector<std::int32_t>();   // next_day
  (void)in.read_vector<std::uint32_t>();  // hot_households
  const std::size_t at = good.bytes.size() - in.remaining();
  const epi::Checkpoint bad = overwrite(good, at, ~std::uint32_t{0});
  try {
    (void)AgentBasedModel::restore(bad);
    FAIL() << "restore accepted a calendar length of 2^32 - 1";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kTruncated) << e.what();
  }
}

TEST(AbmModel, InvalidOverrideStaysInvalidArgument) {
  const epi::Checkpoint good = mid_epidemic_checkpoint(79);
  epi::RestartOverrides ovr;
  ovr.fraction_mild = 1.5;
  EXPECT_THROW((void)AgentBasedModel::restore(good, ovr),
               std::invalid_argument);
}

TEST(AbmModel, SeedValidation) {
  AgentBasedModel m = seeded(19);
  EXPECT_THROW(m.seed_exposed(-1), std::invalid_argument);
  EXPECT_THROW(m.seed_exposed(30000), std::invalid_argument);
  AbmConfig bad = small_config();
  bad.household_share = 1.5;
  EXPECT_THROW(AgentBasedModel(bad, epi::PiecewiseSchedule(0.3), 1),
               std::invalid_argument);
}

TEST(AbmSimulator, ImplementsTheSimulatorContract) {
  abm::AbmSimulatorConfig cfg;
  cfg.abm.disease.population = 20000;
  cfg.initial_exposed = 60;
  const abm::AbmSimulator sim(cfg);
  EXPECT_EQ(sim.name(), "agent-based");

  const epi::Checkpoint init = sim.initial_state(0, 5);
  EXPECT_EQ(init.day, 0);
  const core::WindowRun run = sim.run_window(init, 0.35, 9, 1, 30, true);
  EXPECT_EQ(run.true_cases.size(), 30u);
  EXPECT_EQ(run.end_state.day, 30);

  // Deterministic replay -- required by the checkpoint-regeneration trick.
  const core::WindowRun replay = sim.run_window(init, 0.35, 9, 1, 30, false);
  EXPECT_EQ(replay.true_cases, run.true_cases);
}

TEST(AbmSimulator, CalibratesWithTheSameSmcCore) {
  // End-to-end: ABM ground truth -> ABM calibration through the untouched
  // SequentialCalibrator. The posterior must concentrate near the truth.
  abm::AbmSimulatorConfig cfg;
  cfg.abm.disease.population = 20000;
  cfg.initial_exposed = 60;
  const abm::AbmSimulator sim(cfg);

  const double theta_true = 0.33;
  AgentBasedModel truth_model(cfg.abm, epi::PiecewiseSchedule(theta_true), 555);
  truth_model.seed_exposed(cfg.initial_exposed);
  truth_model.run_until_day(40);
  const auto true_cases = truth_model.trajectory().new_infections(1, 40);
  // Thin with rho = 0.7.
  auto thin_eng = rng::PhiloxEngine(901, 0);
  std::vector<double> observed;
  observed.reserve(true_cases.size());
  for (const double v : true_cases) {
    observed.push_back(static_cast<double>(rng::binomial(
        thin_eng, static_cast<std::int64_t>(v), 0.7)));
  }

  core::CalibrationConfig config;
  config.windows = {{20, 33}};
  config.n_params = 100;
  config.replicates = 4;
  config.resample_size = 200;
  config.seed = 31;
  core::SequentialCalibrator cal(sim, core::ObservedData(1, observed, {}),
                                 config);
  const auto& w = cal.run_next_window();
  const auto s = core::summarize_window(w);
  EXPECT_NEAR(s.theta.mean, theta_true, 0.07);
  EXPECT_LT(s.theta.sd, 0.06);
}

}  // namespace
