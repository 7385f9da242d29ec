// Checkpointing -- the paper's §III-B mechanism. The central invariant:
// run(0 -> T) is bit-identical to run(0 -> t) + checkpoint + restore +
// run(t -> T) when no overrides are applied, because the checkpoint carries
// compartment counts, the future-event queue, the simulated time and the
// exact RNG position. Restart overrides must branch new trajectories with
// the stated semantics.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>

#include "epi/chain_binomial.hpp"
#include "epi/seir_model.hpp"

namespace {

using namespace epismc::epi;

DiseaseParameters test_params() {
  DiseaseParameters p;
  p.population = 150000;
  return p;
}

SeirModel seeded_model(std::uint64_t seed, double theta = 0.3) {
  SeirModel m(test_params(), PiecewiseSchedule(theta), seed, 5);
  m.seed_exposed(200);
  return m;
}

bool trajectories_equal(const Trajectory& a, const Trajectory& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].day != b[i].day || a[i].new_infections != b[i].new_infections ||
        a[i].new_deaths != b[i].new_deaths ||
        a[i].hospital_census != b[i].hospital_census ||
        a[i].icu_census != b[i].icu_census ||
        a[i].susceptible != b[i].susceptible) {
      return false;
    }
  }
  return true;
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  SeirModel uninterrupted = seeded_model(42);
  uninterrupted.run_until_day(90);

  SeirModel first_half = seeded_model(42);
  first_half.run_until_day(45);
  const Checkpoint ckpt = first_half.make_checkpoint();
  SeirModel resumed = SeirModel::restore(ckpt);
  resumed.run_until_day(90);

  EXPECT_EQ(resumed.census(), uninterrupted.census());
  EXPECT_TRUE(
      trajectories_equal(resumed.trajectory(), uninterrupted.trajectory()));
}

TEST(Checkpoint, MultipleResumePointsAllAgree) {
  SeirModel reference = seeded_model(7);
  reference.run_until_day(75);

  for (const std::int32_t split : {1, 10, 33, 60, 74}) {
    SeirModel partial = seeded_model(7);
    partial.run_until_day(split);
    SeirModel resumed = SeirModel::restore(partial.make_checkpoint());
    resumed.run_until_day(75);
    ASSERT_EQ(resumed.census(), reference.census()) << "split " << split;
  }
}

TEST(Checkpoint, PreservesHistoricalTrajectory) {
  SeirModel m = seeded_model(11);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();
  const SeirModel restored = SeirModel::restore(ckpt);
  EXPECT_EQ(restored.day(), 40);
  EXPECT_TRUE(trajectories_equal(restored.trajectory(), m.trajectory()));
  EXPECT_EQ(restored.pending_events(), m.pending_events());
}

TEST(Checkpoint, FileRoundTrip) {
  SeirModel m = seeded_model(13);
  m.run_until_day(30);
  const Checkpoint ckpt = m.make_checkpoint();
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_ckpt_test.bin";
  ckpt.save(path);
  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.day, 30);

  SeirModel a = SeirModel::restore(ckpt);
  SeirModel b = SeirModel::restore(loaded);
  a.run_until_day(70);
  b.run_until_day(70);
  EXPECT_EQ(a.census(), b.census());
  std::filesystem::remove(path);
}

TEST(Checkpoint, NewSeedBranchesNewTrajectory) {
  SeirModel m = seeded_model(17);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();

  RestartOverrides ovr_a;
  ovr_a.seed = 1001;
  RestartOverrides ovr_b;
  ovr_b.seed = 1002;
  SeirModel a = SeirModel::restore(ckpt, ovr_a);
  SeirModel b = SeirModel::restore(ckpt, ovr_b);
  // Same state at restore time...
  EXPECT_EQ(a.census(), b.census());
  a.run_until_day(80);
  b.run_until_day(80);
  // ...different futures.
  EXPECT_NE(a.trajectory().new_infections(41, 80),
            b.trajectory().new_infections(41, 80));
}

TEST(Checkpoint, SameSeedOverrideIsReproducible) {
  SeirModel m = seeded_model(19);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.seed = 555;
  ovr.stream = 3;
  SeirModel a = SeirModel::restore(ckpt, ovr);
  SeirModel b = SeirModel::restore(ckpt, ovr);
  a.run_until_day(90);
  b.run_until_day(90);
  EXPECT_EQ(a.census(), b.census());
}

TEST(Checkpoint, TransmissionOverrideChangesDynamics) {
  SeirModel m = seeded_model(23, 0.35);
  m.run_until_day(40);
  const Checkpoint ckpt = m.make_checkpoint();

  RestartOverrides hot;
  hot.seed = 99;
  hot.transmission_rate = 0.5;
  RestartOverrides cold;
  cold.seed = 99;
  cold.transmission_rate = 0.05;
  SeirModel a = SeirModel::restore(ckpt, hot);
  SeirModel b = SeirModel::restore(ckpt, cold);
  a.run_until_day(90);
  b.run_until_day(90);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  EXPECT_GT(sum(a.trajectory().new_infections(41, 90)),
            2.0 * sum(b.trajectory().new_infections(41, 90)));
  // The override applies from the restart day, not retroactively.
  EXPECT_DOUBLE_EQ(a.transmission().value_at(40), 0.35);
  EXPECT_DOUBLE_EQ(a.transmission().value_at(41), 0.5);
}

TEST(Checkpoint, BranchingFractionOverridesApply) {
  SeirModel m = seeded_model(29);
  m.run_until_day(30);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.seed = 7;
  ovr.fraction_symptomatic = 0.9;
  ovr.fraction_mild = 0.5;
  ovr.asymptomatic_infectiousness = 0.2;
  ovr.detected_infectiousness = 0.8;
  const SeirModel restored = SeirModel::restore(ckpt, ovr);
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_symptomatic, 0.9);
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_mild, 0.5);
  EXPECT_DOUBLE_EQ(restored.parameters().asymptomatic_infectiousness, 0.2);
  EXPECT_DOUBLE_EQ(restored.parameters().detected_infectiousness, 0.8);
  // Unrelated parameters untouched.
  EXPECT_DOUBLE_EQ(restored.parameters().fraction_critical,
                   m.parameters().fraction_critical);
}

TEST(Checkpoint, InvalidOverrideRejected) {
  SeirModel m = seeded_model(31);
  m.run_until_day(10);
  const Checkpoint ckpt = m.make_checkpoint();
  RestartOverrides ovr;
  ovr.fraction_mild = 1.5;
  EXPECT_THROW((void)SeirModel::restore(ckpt, ovr), std::invalid_argument);
}

TEST(Checkpoint, CorruptBytesRejected) {
  SeirModel m = seeded_model(37);
  m.run_until_day(10);
  Checkpoint ckpt = m.make_checkpoint();
  ckpt.bytes.resize(ckpt.bytes.size() / 2);
  EXPECT_THROW((void)SeirModel::restore(ckpt), epismc::io::ArchiveError);
}

// --- Hand-corrupted archives: every bad field is a typed kCorrupt. --------

using epismc::io::ArchiveError;
using epismc::io::ArchiveErrorKind;
using epismc::io::BinaryReader;
using epismc::io::BinaryWriter;

ChainBinomialModel seeded_chain(std::uint64_t seed) {
  ChainBinomialModel m(test_params(), PiecewiseSchedule(0.3), seed, 5);
  m.seed_exposed(200);
  return m;
}

/// `ckpt` with its archived parameters replaced by `params` (both engines
/// lead their payload with the parameter block).
Checkpoint with_params(const Checkpoint& ckpt,
                       const DiseaseParameters& params) {
  BinaryReader in{ckpt.bytes};
  (void)DiseaseParameters::deserialize(in);
  const std::size_t rest = ckpt.bytes.size() - in.remaining();
  BinaryWriter out(in.version());
  params.serialize(out);
  Checkpoint bad = ckpt;
  bad.bytes = out.bytes();
  bad.bytes.insert(bad.bytes.end(), ckpt.bytes.begin() + rest,
                   ckpt.bytes.end());
  return bad;
}

/// Byte offset of the census array: parameters, schedule and day precede
/// it in both engines' layouts.
std::size_t census_offset(const Checkpoint& ckpt) {
  BinaryReader in{ckpt.bytes};
  (void)DiseaseParameters::deserialize(in);
  (void)PiecewiseSchedule::deserialize(in);
  (void)in.read<std::int32_t>();
  return ckpt.bytes.size() - in.remaining();
}

std::int64_t read_i64(const Checkpoint& ckpt, std::size_t at) {
  std::int64_t v;
  std::memcpy(&v, ckpt.bytes.data() + at, sizeof v);
  return v;
}

void write_i64(Checkpoint& ckpt, std::size_t at, std::int64_t v) {
  std::memcpy(ckpt.bytes.data() + at, &v, sizeof v);
}

/// Census entry `c` moved by `delta` (entry `c + 1` by `balance`).
Checkpoint shift_census(const Checkpoint& ckpt, std::size_t c,
                        std::int64_t delta, std::int64_t balance) {
  Checkpoint bad = ckpt;
  const std::size_t at = census_offset(ckpt) + c * sizeof(std::int64_t);
  write_i64(bad, at, read_i64(bad, at) + delta);
  const std::size_t next = at + sizeof(std::int64_t);
  write_i64(bad, next, read_i64(bad, next) + balance);
  return bad;
}

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

TEST(Checkpoint, ArchivedInvalidParametersAreCorrupt) {
  DiseaseParameters bad = test_params();
  bad.fraction_mild = 1.5;

  SeirModel m = seeded_model(43);
  m.run_until_day(10);
  const Checkpoint seir = with_params(m.make_checkpoint(), bad);
  expect_corrupt([&] { (void)SeirModel::restore(seir); }, "seir");

  ChainBinomialModel c = seeded_chain(43);
  c.run_until_day(10);
  const Checkpoint chain = with_params(c.make_checkpoint(), bad);
  expect_corrupt([&] { (void)ChainBinomialModel::restore(chain); }, "chain");
}

TEST(Checkpoint, ArchivedNegativeCensusIsCorrupt) {
  // S goes negative while the next compartment absorbs the difference, so
  // the census still sums to the population: only the sign is wrong.
  SeirModel m = seeded_model(47);
  m.run_until_day(10);
  const Checkpoint good = m.make_checkpoint();
  const std::int64_t s = read_i64(good, census_offset(good));
  const Checkpoint seir = shift_census(good, 0, -(s + 1), s + 1);
  expect_corrupt([&] { (void)SeirModel::restore(seir); }, "seir");

  ChainBinomialModel c = seeded_chain(47);
  c.run_until_day(10);
  const Checkpoint cgood = c.make_checkpoint();
  const std::int64_t cs = read_i64(cgood, census_offset(cgood));
  const Checkpoint chain = shift_census(cgood, 0, -(cs + 1), cs + 1);
  expect_corrupt([&] { (void)ChainBinomialModel::restore(chain); }, "chain");
}

TEST(Checkpoint, ArchivedCensusNotSummingToPopulationIsCorrupt) {
  SeirModel m = seeded_model(53);
  m.run_until_day(10);
  const Checkpoint seir = shift_census(m.make_checkpoint(), 0, 1, 0);
  expect_corrupt([&] { (void)SeirModel::restore(seir); }, "seir");

  ChainBinomialModel c = seeded_chain(53);
  c.run_until_day(10);
  const Checkpoint chain = shift_census(c.make_checkpoint(), 0, -1, 0);
  expect_corrupt([&] { (void)ChainBinomialModel::restore(chain); }, "chain");
}

TEST(Checkpoint, ArchivedNegativeOrOverflowingEventCountIsCorrupt) {
  SeirModel m = seeded_model(59);
  m.run_until_day(10);
  ASSERT_GT(m.pending_events(), 0u);
  const Checkpoint good = m.make_checkpoint();
  // Census, then the event count, then events of (day i32, from u8, to u8,
  // count i64): the first event's count sits 6 bytes into it.
  const std::size_t count_at = census_offset(good) + sizeof(Census) +
                               sizeof(std::uint64_t) + 6;
  ASSERT_GT(read_i64(good, count_at), 0);

  for (const std::int64_t count :
       {std::int64_t{-5}, std::numeric_limits<std::int64_t>::max()}) {
    Checkpoint bad = good;
    write_i64(bad, count_at, count);
    expect_corrupt([&] { (void)SeirModel::restore(bad); },
                   count < 0 ? "negative count" : "overflowing count");
  }
}

TEST(Checkpoint, ConservationAfterRestore) {
  SeirModel m = seeded_model(41);
  m.run_until_day(55);
  RestartOverrides ovr;
  ovr.seed = 123;
  ovr.transmission_rate = 0.45;
  SeirModel restored = SeirModel::restore(m.make_checkpoint(), ovr);
  restored.run_until_day(120);
  EXPECT_EQ(restored.total_individuals(), 150000);
}

}  // namespace
