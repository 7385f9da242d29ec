// The two ABM day-step engines. The event-driven "fast" engine must be a
// drop-in statistical replacement for the per-agent-scan "reference"
// engine: same invariants (conservation, fixed-seed determinism,
// checkpoint-resume bit-equality), same sampling distribution (paired-seed
// moment matching across >= 200 seeds with a normal-approximation bound),
// and full cross-engine checkpoint interoperability -- including restoring
// a reference-engine checkpoint into the fast engine, the supported A/B
// migration path. All seeds are pinned so CI is deterministic.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "abm/abm_simulator.hpp"
#include "abm/agent_model.hpp"
#include "api/api.hpp"
#include "epi/compartments.hpp"

namespace {

using namespace epismc;
using abm::AbmConfig;
using abm::AbmEngine;
using abm::AgentBasedModel;

AbmConfig engine_config(AbmEngine engine, std::int64_t population = 4000) {
  AbmConfig cfg;
  cfg.disease.population = population;
  cfg.engine = engine;
  return cfg;
}

AgentBasedModel seeded(AbmEngine engine, std::uint64_t seed,
                       double theta = 0.35, std::int64_t exposed = 40,
                       std::int64_t population = 4000) {
  AgentBasedModel m(engine_config(engine, population),
                    epi::PiecewiseSchedule(theta), seed);
  m.seed_exposed(exposed);
  return m;
}

// --- Engine naming. --------------------------------------------------------

TEST(AbmEngineName, RoundTripsAndRejectsUnknown) {
  EXPECT_EQ(abm::to_string(AbmEngine::kFast), "fast");
  EXPECT_EQ(abm::to_string(AbmEngine::kReference), "reference");
  EXPECT_EQ(abm::engine_from_name("fast"), AbmEngine::kFast);
  EXPECT_EQ(abm::engine_from_name("reference"), AbmEngine::kReference);
  EXPECT_THROW((void)abm::engine_from_name("warp"), std::invalid_argument);
}

TEST(AbmEngineName, InfectiousnessClassesMatchCompartmentWeights) {
  using C = epi::Compartment;
  static_assert(epi::infectiousness_class(C::kS) < 0);
  static_assert(epi::infectiousness_class(C::kAu) == 0);
  static_assert(epi::infectiousness_class(C::kAd) == 1);
  static_assert(epi::infectiousness_class(C::kPu) == 2);
  static_assert(epi::infectiousness_class(C::kSmD) == 3);
  const double asym = 0.75, det = 0.25;
  const auto w = epi::infectiousness_class_weights(asym, det);
  for (std::size_t c = 0; c < epi::kCompartmentCount; ++c) {
    const auto comp = static_cast<C>(c);
    const int cls = epi::infectiousness_class(comp);
    const double expected =
        cls < 0 ? 0.0 : w[static_cast<std::size_t>(cls)];
    EXPECT_EQ(epi::infectiousness_weight(comp, asym, det), expected)
        << epi::name(comp);
    EXPECT_EQ(cls >= 0, epi::is_infectious(comp)) << epi::name(comp);
  }
}

// --- Fast-engine invariants. -----------------------------------------------

TEST(AbmFastEngine, ConservesAndRunsDeterministically) {
  AgentBasedModel a = seeded(AbmEngine::kFast, 42);
  AgentBasedModel b = seeded(AbmEngine::kFast, 42);
  for (int day = 1; day <= 80; ++day) {
    a.step();
    ASSERT_EQ(a.total_individuals(), 4000) << "day " << day;
  }
  b.run_until_day(80);
  EXPECT_EQ(a.census(), b.census());
  EXPECT_EQ(a.trajectory().new_infections(1, 80),
            b.trajectory().new_infections(1, 80));
  // The epidemic actually happened (this is not a frozen model).
  EXPECT_LT(a.count(epi::Compartment::kS), 4000 - 40);
}

TEST(AbmFastEngine, CheckpointResumeEqualsUninterrupted) {
  AgentBasedModel reference = seeded(AbmEngine::kFast, 13);
  reference.run_until_day(70);

  AgentBasedModel half = seeded(AbmEngine::kFast, 13);
  half.run_until_day(35);
  AgentBasedModel resumed = AgentBasedModel::restore(half.make_checkpoint());
  EXPECT_EQ(resumed.engine(), AbmEngine::kFast);
  resumed.run_until_day(70);
  EXPECT_EQ(resumed.census(), reference.census());
  EXPECT_EQ(resumed.trajectory().new_infections(1, 70),
            reference.trajectory().new_infections(1, 70));
}

TEST(AbmFastEngine, CheckpointRoundTripPreservesBytes) {
  for (const AbmEngine engine : {AbmEngine::kFast, AbmEngine::kReference}) {
    AgentBasedModel m = seeded(engine, 19);
    m.run_until_day(40);
    const epi::Checkpoint ckpt = m.make_checkpoint();
    const AgentBasedModel restored = AgentBasedModel::restore(ckpt);
    EXPECT_EQ(restored.engine(), engine);
    const epi::Checkpoint round_trip = restored.make_checkpoint();
    EXPECT_EQ(round_trip.day, ckpt.day);
    EXPECT_EQ(round_trip.bytes, ckpt.bytes)
        << "engine " << abm::to_string(engine);
  }
}

TEST(AbmFastEngine, SeedExposedHandlesScarceSusceptibles) {
  // The old accept/reject seeding degenerated when susceptibles were
  // scarce; the subset draw must stay O(count) and exact.
  AgentBasedModel m = seeded(AbmEngine::kFast, 23, 0.35, 0);
  m.seed_exposed(3960);  // nearly everyone
  EXPECT_EQ(m.count(epi::Compartment::kS), 40);
  m.seed_exposed(40);  // the stragglers, from a 1% susceptible pool
  EXPECT_EQ(m.count(epi::Compartment::kS), 0);
  EXPECT_EQ(m.total_individuals(), 4000);
  EXPECT_THROW(m.seed_exposed(1), std::invalid_argument);
}

// --- Household-pass modes. ---------------------------------------------------
//
// The fast engine's household pass walks the insertion-ordered hot list
// while fewer than 1/16 of households are hot and scans a hot bitmap in
// ascending household order above that. A 20k-agent epidemic crosses the
// threshold both ways; its trajectory and final checkpoint bytes are pinned
// by one digest, so a change to either mode's visit order or draws shows
// as a digest change.

constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const AgentBasedModel& m) {
  std::uint64_t h = kFnvSeed;
  const epi::Trajectory& t = m.trajectory();
  for (std::size_t d = 0; d < t.size(); ++d) {
    const epi::DailyRecord& r = t[d];
    for (const std::int64_t v :
         {std::int64_t{r.day}, r.new_infections, r.new_detected_cases,
          r.new_deaths, r.hospital_census, r.icu_census, r.infectious_census,
          r.susceptible}) {
      h = fnv(h, &v, sizeof v);
    }
  }
  const epi::Checkpoint ckpt = m.make_checkpoint();
  return fnv(h, ckpt.bytes.data(), ckpt.bytes.size());
}

constexpr int kModeDays = 90;

/// Whether the day just stepped used scan mode. Infections only create
/// exposed (non-infectious) agents, so the hot set after step() is the one
/// the household pass chose its mode from.
bool scanned(const AgentBasedModel& m) {
  return m.hot_household_count() * 16 >= m.household_count();
}

TEST(AbmFastEngine, HouseholdPassModesArePinned) {
  AgentBasedModel m = seeded(AbmEngine::kFast, 29, 0.4, 60, 20000);
  int list_days = 0;
  int scan_days = 0;
  for (int day = 1; day <= kModeDays; ++day) {
    m.step();
    ++(scanned(m) ? scan_days : list_days);
  }
  EXPECT_GT(list_days, 0);
  EXPECT_GT(scan_days, 0);
  EXPECT_EQ(digest(m), 0xd6496b9bcdeee3a3ull)
      << "scan days " << scan_days << ", list days " << list_days;
}

TEST(AbmFastEngine, ScanModeRestoreAndBranchStepBitIdentically) {
  AgentBasedModel live = seeded(AbmEngine::kFast, 29, 0.4, 60, 20000);
  while (!scanned(live)) {
    live.step();
    ASSERT_LT(live.day(), kModeDays) << "the hot set never crossed 1/16";
  }
  const epi::Checkpoint ckpt = live.make_checkpoint();
  const AgentBasedModel prototype = AgentBasedModel::restore(ckpt);

  AgentBasedModel uninterrupted = live;
  uninterrupted.run_until_day(kModeDays);
  AgentBasedModel resumed = prototype;
  resumed.run_until_day(kModeDays);
  EXPECT_EQ(digest(resumed), digest(uninterrupted));

  // Copy + branch of the live model and of the restored prototype (the
  // batch path) against a restore with the same overrides.
  epi::RestartOverrides ovr;
  ovr.seed = 71;
  ovr.stream = 3;
  ovr.transmission_rate = 0.3;
  AgentBasedModel branched_live = live;
  branched_live.branch(71, 3, 0.3);
  branched_live.run_until_day(kModeDays);
  AgentBasedModel branched_copy = prototype;
  branched_copy.branch(71, 3, 0.3);
  branched_copy.run_until_day(kModeDays);
  AgentBasedModel overridden = AgentBasedModel::restore(ckpt, ovr);
  overridden.run_until_day(kModeDays);
  EXPECT_EQ(digest(branched_copy), digest(branched_live));
  EXPECT_EQ(digest(overridden), digest(branched_live));
  EXPECT_NE(digest(branched_live), digest(uninterrupted));
}

// --- Cross-engine interoperability. ----------------------------------------

TEST(AbmEngineInterop, ReferenceCheckpointRestoresIntoFastEngine) {
  AgentBasedModel ref_model = seeded(AbmEngine::kReference, 17);
  ref_model.run_until_day(30);
  const epi::Checkpoint ckpt = ref_model.make_checkpoint();

  AgentBasedModel migrated = AgentBasedModel::restore(ckpt);
  EXPECT_EQ(migrated.engine(), AbmEngine::kReference);
  migrated.set_engine(AbmEngine::kFast);
  EXPECT_EQ(migrated.engine(), AbmEngine::kFast);
  EXPECT_EQ(migrated.census(), ref_model.census());
  migrated.run_until_day(90);
  EXPECT_EQ(migrated.total_individuals(), 4000);
  // The migrated run kept transmitting: infections continued after day 30.
  const auto cases = migrated.trajectory().new_infections(31, 90);
  EXPECT_GT(std::accumulate(cases.begin(), cases.end(), 0.0), 0.0);
}

TEST(AbmEngineInterop, SimulatorEnforcesItsConfiguredEngine) {
  // A fast-engine simulator must propagate reference-engine checkpoints
  // (and vice versa): the simulator's engine wins over the checkpoint's.
  abm::AbmSimulatorConfig ref_cfg;
  ref_cfg.abm = engine_config(AbmEngine::kReference);
  ref_cfg.initial_exposed = 40;
  const abm::AbmSimulator ref_sim(ref_cfg);

  abm::AbmSimulatorConfig fast_cfg = ref_cfg;
  fast_cfg.abm.engine = AbmEngine::kFast;
  const abm::AbmSimulator fast_sim(fast_cfg);

  const epi::Checkpoint init = ref_sim.initial_state(19, 7);
  const core::WindowRun from_fast = fast_sim.run_window(init, 0.35, 9, 1, 33,
                                                        /*want_checkpoint=*/true);
  EXPECT_EQ(from_fast.true_cases.size(), 14u);
  EXPECT_EQ(from_fast.end_state.day, 33);
  // The window end state now carries the fast engine.
  const AgentBasedModel end = AgentBasedModel::restore(from_fast.end_state);
  EXPECT_EQ(end.engine(), AbmEngine::kFast);

  // Deterministic replay through the enforcement path.
  const core::WindowRun replay = fast_sim.run_window(init, 0.35, 9, 1, 33,
                                                     /*want_checkpoint=*/false);
  EXPECT_EQ(replay.true_cases, from_fast.true_cases);

  // The batch path (the calibration hot path) must enforce the engine the
  // same way: a reference-engine parent propagated by the fast simulator's
  // run_batch reproduces run_window bit for bit.
  core::EnsembleBuffer buf(1, 14);
  buf.parent[0] = 0;
  buf.theta[0] = 0.35;
  buf.seed[0] = 9;
  buf.stream[0] = 1;
  const std::vector<epi::Checkpoint> parents = {init};
  std::vector<epi::Checkpoint> ends(1);
  fast_sim.run_batch(parents, 33, buf, 0, 1, ends);
  const auto row = buf.true_cases(0);
  ASSERT_EQ(row.size(), from_fast.true_cases.size());
  for (std::size_t d = 0; d < row.size(); ++d) {
    EXPECT_EQ(row[d], from_fast.true_cases[d]) << "day offset " << d;
  }
  EXPECT_EQ(AgentBasedModel::restore(ends[0]).engine(), AbmEngine::kFast);
}

// --- Statistical equivalence: fast vs reference across paired seeds. -------

struct SeedStats {
  double cum_mid = 0.0;        // cumulative infections through day 25
  double cum_end = 0.0;        // cumulative infections through day 45
  double infectious_mid = 0.0; // infectious census at day 25
};

SeedStats run_one(AbmEngine engine, std::uint64_t seed) {
  AgentBasedModel m = seeded(engine, seed);
  m.run_until_day(45);
  const auto cases = m.trajectory().new_infections(1, 45);
  SeedStats s;
  for (std::size_t d = 0; d < cases.size(); ++d) {
    if (d < 25) s.cum_mid += cases[d];
    s.cum_end += cases[d];
  }
  s.infectious_mid = static_cast<double>(m.trajectory()[24].infectious_census);
  return s;
}

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.var += (x - m.mean) * (x - m.mean);
  m.var /= static_cast<double>(xs.size() - 1);
  return m;
}

void expect_same_distribution(const std::vector<double>& fast,
                              const std::vector<double>& ref,
                              const char* what) {
  const Moments f = moments(fast);
  const Moments r = moments(ref);
  const auto n = static_cast<double>(fast.size());
  // Two-sample z bound on the means: the engines sample the identical
  // distribution, so the gap is asymptotically N(0, (var_f + var_r)/n).
  // z = 4.5 gives a per-comparison false-failure rate of ~7e-6 -- and the
  // seeds are pinned, so a pass is a pass forever on a given platform.
  const double tolerance = 4.5 * std::sqrt((f.var + r.var) / n);
  EXPECT_NEAR(f.mean, r.mean, tolerance)
      << what << ": fast mean " << f.mean << " vs reference mean " << r.mean;
  // Spread must match too (loose bound: sd of a sd estimate over n seeds is
  // ~ sd/sqrt(2n) ~ 5%, so [0.7, 1.43] is > 6 sigma wide).
  const double sd_ratio = std::sqrt(f.var / r.var);
  EXPECT_GT(sd_ratio, 0.7) << what;
  EXPECT_LT(sd_ratio, 1.43) << what;
}

TEST(AbmEngineEquivalence, MomentsMatchAcross200PairedSeeds) {
  const std::size_t n_seeds = 200;
  std::vector<double> fast_mid, ref_mid, fast_end, ref_end, fast_inf, ref_inf;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(1000 + s);
    const SeedStats f = run_one(AbmEngine::kFast, seed);
    const SeedStats r = run_one(AbmEngine::kReference, seed);
    fast_mid.push_back(f.cum_mid);
    ref_mid.push_back(r.cum_mid);
    fast_end.push_back(f.cum_end);
    ref_end.push_back(r.cum_end);
    fast_inf.push_back(f.infectious_mid);
    ref_inf.push_back(r.infectious_mid);
  }
  expect_same_distribution(fast_mid, ref_mid,
                           "cumulative infections through day 25");
  expect_same_distribution(fast_end, ref_end,
                           "cumulative infections through day 45");
  expect_same_distribution(fast_inf, ref_inf, "infectious census at day 25");
}

TEST(AbmEngineEquivalence, HouseholdShareShiftsBothEnginesAlike) {
  // The two-level mixing structure must survive the event-driven rewrite:
  // pure household transmission saturates and infects fewer people than
  // pure community mixing, under either engine.
  const auto total = [](AbmEngine engine, double share) {
    AbmConfig cfg = engine_config(engine, 20000);
    cfg.household_share = share;
    AgentBasedModel m(cfg, epi::PiecewiseSchedule(0.4), 11);
    m.seed_exposed(60);
    m.run_until_day(90);
    const auto c = m.trajectory().new_infections(1, 90);
    return std::accumulate(c.begin(), c.end(), 0.0);
  };
  for (const AbmEngine engine : {AbmEngine::kFast, AbmEngine::kReference}) {
    EXPECT_GT(total(engine, 0.0), total(engine, 1.0))
        << abm::to_string(engine);
    EXPECT_GT(total(engine, 1.0), 0.0) << abm::to_string(engine);
  }
}

// --- End-to-end selection through the api facade. --------------------------

TEST(AbmEngineSession, ReferenceEngineSelectableEndToEnd) {
  // Synthetic observations from a reference-engine truth.
  AgentBasedModel truth = seeded(AbmEngine::kReference, 555, 0.33, 40);
  truth.run_until_day(33);
  const auto true_cases = truth.trajectory().new_infections(1, 33);
  std::vector<double> observed(true_cases.begin(), true_cases.end());

  api::SimulatorSpec spec;
  spec.params.population = 4000;
  spec.initial_exposed = 40;

  const auto posterior = [&](const std::string& engine) {
    api::CalibrationSession session;
    session.with_simulator("abm", spec)
        .with_abm_engine(engine)
        .with_data(core::ObservedData(1, observed, {}))
        .with_windows({{20, 33}})
        .with_budget(16, 2, 32)
        .with_likelihood("gaussian-sqrt", 1.0)
        .with_seed(5);
    session.run_all();
    std::vector<double> lw = session.results()[0].ensemble.log_weight;
    return lw;
  };

  const auto ref_a = posterior("reference");
  const auto ref_b = posterior("reference");
  const auto fast = posterior("fast");
  // Reference runs are bit-reproducible and actually distinct from fast
  // (different draw sequences): the selector reaches the engine.
  EXPECT_EQ(ref_a, ref_b);
  EXPECT_NE(ref_a, fast);
}

TEST(AbmEngineSession, EngineNameIsValidatedEagerly) {
  api::CalibrationSession session;
  EXPECT_THROW(session.with_abm_engine("warp-speed"), std::invalid_argument);
}

}  // namespace
