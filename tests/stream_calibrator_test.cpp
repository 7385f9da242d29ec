// Streaming calibration (src/stream/): day-at-a-time assimilation must
// land on the batch posterior -- bit-identical when no mid-window
// resample fires, paired-seed moment-equivalent otherwise -- and the
// versioned StreamState archive must round-trip a mid-window session
// field by field, resume bit-exactly, and reject corrupted or
// future-format files with precise errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>

#include "api/api.hpp"
#include "core/scenario.hpp"
#include "io/checkpoint_rotation.hpp"
#include "parallel/parallel.hpp"
#include "stream/stream_state.hpp"
#include "stream/streaming_calibrator.hpp"
#include "simd/simd.hpp"

namespace {

using namespace epismc;
using namespace epismc::core;
using stream::DailyObservation;
using stream::StreamConfig;
using stream::StreamDayRecord;
using stream::StreamingCalibrator;
using stream::StreamState;

ScenarioConfig test_scenario() {
  ScenarioConfig cfg;
  cfg.params.population = 200000;
  cfg.initial_exposed = 150;
  cfg.total_days = 50;
  cfg.theta_segments = {{0, 0.30}, {34, 0.45}};
  cfg.rho_segments = {{0, 0.60}, {34, 0.80}};
  return cfg;
}

const GroundTruth& test_truth() {
  static const GroundTruth truth = simulate_ground_truth(test_scenario());
  return truth;
}

CalibrationConfig small_config() {
  CalibrationConfig cfg;
  cfg.windows = {{20, 33}, {34, 47}};
  cfg.n_params = 80;
  cfg.replicates = 3;
  cfg.resample_size = 160;
  cfg.seed = 4242;
  return cfg;
}

api::SimulatorSpec test_spec() {
  const ScenarioConfig scenario = test_scenario();
  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.burnin_theta = 0.3;
  spec.initial_exposed = scenario.initial_exposed;
  return spec;
}

api::CalibrationSession make_session(CalibrationConfig cfg,
                                     const std::string& simulator) {
  api::CalibrationSession session;
  session.with_simulator(simulator, test_spec())
      .with_data(test_truth().observed())
      .with_config(std::move(cfg));
  return session;
}

void feed_days(StreamingCalibrator& cal, std::int32_t from, std::int32_t to,
               bool with_deaths = false) {
  const ObservedData data = test_truth().observed();
  for (std::int32_t d = from; d <= to; ++d) {
    DailyObservation obs;
    obs.day = d;
    obs.cases = data.cases_at(d);
    if (with_deaths && data.has_deaths()) obs.deaths = data.deaths_at(d);
    cal.ingest(obs);
  }
}

#define EXPECT_BITEQ(a, b)                                   \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(double(a)),         \
            std::bit_cast<std::uint64_t>(double(b)))

void expect_doubles_bitwise(const std::vector<double>& a,
                            const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " diverges at index " << i;
  }
}

void expect_window_bit_identical(const WindowResult& batch,
                                 const WindowResult& streamed) {
  ASSERT_EQ(batch.n_sims(), streamed.n_sims());
  expect_doubles_bitwise(batch.ensemble.log_weight,
                         streamed.ensemble.log_weight, "log_weight");
  expect_doubles_bitwise(batch.weights, streamed.weights, "weights");
  ASSERT_EQ(batch.resampled, streamed.resampled);
  ASSERT_EQ(batch.sim_to_state, streamed.sim_to_state);
  EXPECT_EQ(batch.diag.unique_resampled, streamed.diag.unique_resampled);
  EXPECT_BITEQ(batch.diag.ess, streamed.diag.ess);
  EXPECT_BITEQ(batch.diag.log_marginal, streamed.diag.log_marginal);
  // Series rows of the posterior draws, then the captured end states.
  expect_doubles_bitwise(
      {batch.ensemble.true_cases(0).begin(), batch.ensemble.true_cases(0).end()},
      {streamed.ensemble.true_cases(0).begin(),
       streamed.ensemble.true_cases(0).end()},
      "true_cases row 0");
  ASSERT_TRUE(batch.state_pool);
  ASSERT_TRUE(streamed.state_pool);
  ASSERT_EQ(batch.state_pool->size(), streamed.state_pool->size());
  for (std::size_t u = 0; u < batch.state_pool->size(); ++u) {
    const epi::Checkpoint cb = batch.state_pool->to_checkpoint(u);
    const epi::Checkpoint cs = streamed.state_pool->to_checkpoint(u);
    ASSERT_EQ(cb.day, cs.day) << "state slot " << u;
    ASSERT_EQ(cb.bytes, cs.bytes) << "state slot " << u;
  }
}

// --- Batch-vs-stream equivalence. ------------------------------------------

void run_bit_exact_comparison(const std::string& simulator) {
  // Stream-vs-batch bit-identity is a scalar-path contract: the batch
  // window scores 28 days in one lane-accumulated pass while the stream sums
  // per-day increments, which differ in last ulps at vector levels.
  const epismc::simd::ScopedLevel simd_pin(epismc::simd::SimdLevel::kScalar);

  auto batch_session = make_session(small_config(), simulator);
  batch_session.run_all();
  ASSERT_EQ(batch_session.results().size(), 2u);

  auto stream_session = make_session(small_config(), simulator);
  StreamingCalibrator cal = stream_session.stream();
  feed_days(cal, 20, 47);
  ASSERT_TRUE(cal.finished());
  ASSERT_EQ(cal.results().size(), 2u);

  for (std::size_t w = 0; w < 2; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_window_bit_identical(batch_session.results()[w], cal.results()[w]);
  }
  // No adaptive strategy => no mid-window resample ever fires.
  for (const StreamDayRecord& d : cal.day_records()) {
    EXPECT_FALSE(d.resampled);
  }
}

TEST(StreamingCalibrator, BitIdenticalToBatchSeir) {
  run_bit_exact_comparison("seir-event");
}

TEST(StreamingCalibrator, BitIdenticalToBatchChainBinomial) {
  run_bit_exact_comparison("chain-binomial");
}

TEST(StreamingCalibrator, BitIdenticalToBatchTemperedNoMidResample) {
  const epismc::simd::ScopedLevel simd_pin(epismc::simd::SimdLevel::kScalar);

  // Adaptive strategy, but mid-window resampling disabled: the stream
  // coasts to the boundary and the batch temper ladder sees identical
  // inputs, so even a *triggered* ladder resolves bit-identically.
  CalibrationConfig cfg = small_config();
  cfg.inference = InferenceStrategy::kTempered;
  cfg.ess_threshold = 0.5;

  auto batch_session = make_session(cfg, "seir-event");
  batch_session.run_all();

  auto stream_session = make_session(cfg, "seir-event");
  api::StreamOptions options;
  options.resample_mid_window = false;
  StreamingCalibrator cal = stream_session.stream(options);
  feed_days(cal, 20, 47);

  for (std::size_t w = 0; w < 2; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_window_bit_identical(batch_session.results()[w], cal.results()[w]);
  }
}

TEST(StreamingCalibrator, MidWindowResampleIsDeterministic) {
  CalibrationConfig cfg = small_config();
  cfg.inference = InferenceStrategy::kTempered;
  cfg.ess_threshold = 0.9;  // aggressive: force mid-window resamples

  auto run = [&cfg] {
    auto session = make_session(cfg, "seir-event");
    StreamingCalibrator cal = session.stream();
    feed_days(cal, 20, 47);
    return std::pair{cal.results().back().weights, cal.day_records()};
  };
  const auto [w1, days1] = run();
  const auto [w2, days2] = run();

  std::size_t resamples = 0;
  for (const StreamDayRecord& d : days1) resamples += d.resampled ? 1 : 0;
  ASSERT_GE(resamples, 1u) << "threshold did not force a mid-window resample";

  expect_doubles_bitwise(w1, w2, "final weights across identical runs");
  ASSERT_EQ(days1.size(), days2.size());
  for (std::size_t i = 0; i < days1.size(); ++i) {
    EXPECT_BITEQ(days1[i].ess, days2[i].ess);
    EXPECT_EQ(days1[i].resampled, days2[i].resampled);
  }
}

TEST(StreamingCalibrator, MidWindowResampleMomentEquivalence) {
  // Paired-seed bound: with mid-window resampling the stream is a
  // different (adaptive) estimator of the same posterior, so per-seed
  // theta means may differ -- but the paired mean difference must sit
  // within 4.5 sigma of zero across seeds.
  constexpr int kSeeds = 12;
  CalibrationConfig base = small_config();
  base.windows = {{20, 33}};
  base.n_params = 60;
  base.replicates = 3;
  base.resample_size = 120;
  base.inference = InferenceStrategy::kTempered;
  base.ess_threshold = 0.9;

  std::vector<double> diffs;
  std::size_t total_resamples = 0;
  for (int k = 0; k < kSeeds; ++k) {
    CalibrationConfig cfg = base;
    cfg.seed = 9000 + static_cast<std::uint64_t>(k);

    auto batch_session = make_session(cfg, "seir-event");
    batch_session.run_all();
    const double batch_mean = batch_session.posterior_summary(0).theta.mean;

    auto stream_session = make_session(cfg, "seir-event");
    StreamingCalibrator cal = stream_session.stream();
    feed_days(cal, 20, 33);
    const double stream_mean = cal.history().back().summary.theta.mean;
    for (const StreamDayRecord& d : cal.day_records()) {
      total_resamples += d.resampled ? 1 : 0;
    }
    diffs.push_back(stream_mean - batch_mean);
  }
  ASSERT_GE(total_resamples, 1u);

  const double mean =
      std::accumulate(diffs.begin(), diffs.end(), 0.0) / diffs.size();
  double var = 0.0;
  for (const double d : diffs) var += (d - mean) * (d - mean);
  var /= (diffs.size() - 1);
  const double stderr_mean = std::sqrt(var / diffs.size());
  ASSERT_GT(stderr_mean, 0.0);
  EXPECT_LT(std::abs(mean), 4.5 * stderr_mean)
      << "stream-vs-batch paired theta means diverge: mean diff " << mean
      << ", stderr " << stderr_mean;
}

// --- The base-class run_window adapter under streaming. --------------------

// A registry simulator that implements only run_window: it streams on the
// byte-blob CheckpointStatePool through the base-class run_batch,
// advance_batch and resample_states.
class RunWindowOnlySimulator final : public Simulator {
 public:
  explicit RunWindowOnlySimulator(const Simulator& inner) : inner_(inner) {}
  [[nodiscard]] epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override {
    return inner_.initial_state(day, seed);
  }
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state, double theta,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::int32_t to_day,
                                     bool want_checkpoint) const override {
    return inner_.run_window(state, theta, seed, stream, to_day,
                             want_checkpoint);
  }
  [[nodiscard]] std::string name() const override { return "custom"; }

 private:
  const Simulator& inner_;
};

// FNV-1a over the window's log weights, weights, resampled indices and
// end-state bytes.
std::uint64_t window_digest(const WindowResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(r.ensemble.log_weight.data(), r.ensemble.log_weight.size() * 8);
  mix(r.weights.data(), r.weights.size() * 8);
  mix(r.resampled.data(), r.resampled.size() * sizeof(r.resampled[0]));
  for (std::size_t u = 0; u < r.state_pool->size(); ++u) {
    const epi::Checkpoint c = r.state_pool->to_checkpoint(u);
    mix(&c.day, sizeof c.day);
    mix(c.bytes.data(), c.bytes.size());
  }
  return h;
}

TEST(StreamingCalibrator, RunWindowAdapterStreamsThroughMidWindowResample) {
  const epismc::simd::ScopedLevel simd_pin(epismc::simd::SimdLevel::kScalar);
  const ScenarioConfig scenario = test_scenario();
  const SeirSimulator native({scenario.params, 0.3, scenario.initial_exposed});
  const RunWindowOnlySimulator custom(native);
  const PerSimReference reference(native);

  StreamConfig cfg;
  cfg.calibration = small_config();
  cfg.calibration.windows = {{20, 33}};
  cfg.calibration.inference = InferenceStrategy::kTempered;
  cfg.calibration.ess_threshold = 0.9;  // force mid-window resamples

  // The first day copy-branches from the shared parent in every path, so
  // its log-weight terms match the native typed engine bit for bit. They
  // are read with resampling off: a resample resets them.
  StreamConfig probe = cfg;
  probe.resample_mid_window = false;
  const auto first_day_terms = [&probe](const Simulator& sim) {
    StreamingCalibrator cal(sim, probe);
    feed_days(cal, 20, 20);
    return cal.snapshot().case_acc;
  };
  const std::vector<double> native_terms = first_day_terms(native);
  expect_doubles_bitwise(native_terms, first_day_terms(custom),
                         "run_window-only first-day log weights");
  expect_doubles_bitwise(native_terms, first_day_terms(reference),
                         "PerSimReference first-day log weights");

  // Later days re-branch onto fresh per-day streams (distribution-correct,
  // not bit-equal to the typed engine); the whole window is pinned.
  const auto stream_window = [&cfg](const Simulator& sim, int lanes) {
    parallel::set_threads(lanes);
    StreamingCalibrator cal(sim, cfg);
    feed_days(cal, 20, 33);
    EXPECT_TRUE(cal.finished());
    std::size_t resamples = 0;
    for (const StreamDayRecord& d : cal.day_records()) {
      resamples += d.resampled ? 1 : 0;
    }
    EXPECT_GE(resamples, 1u) << "threshold did not force a resample";
    return window_digest(cal.results().at(0));
  };
  const int lanes = parallel::TaskPool::instance().lanes();
  constexpr std::uint64_t kPinnedDigest = 0x15b8b7bbed4698d9ull;
  const Simulator* const adapters[] = {&custom, &reference};
  for (const Simulator* sim : adapters) {
    EXPECT_EQ(stream_window(*sim, 1), kPinnedDigest) << std::hex << "1 lane";
    EXPECT_EQ(stream_window(*sim, 4), kPinnedDigest) << std::hex << "4 lanes";
  }
  parallel::set_threads(lanes);
}

// --- Checkpoint / resume. ---------------------------------------------------

TEST(StreamingCalibrator, CheckpointResumeBitExact) {
  const CalibrationConfig cfg = small_config();

  // Uninterrupted reference run.
  auto ref_session = make_session(cfg, "seir-event");
  StreamingCalibrator ref = ref_session.stream();
  feed_days(ref, 20, 47);

  // Interrupted run: snapshot mid-window (day 40 is inside window 2),
  // "kill" the process, resume a fresh calibrator from the snapshot.
  auto a_session = make_session(cfg, "seir-event");
  StreamingCalibrator a = a_session.stream();
  feed_days(a, 20, 40);
  const StreamState snap = a.snapshot();

  auto b_session = make_session(cfg, "seir-event");
  StreamingCalibrator b = b_session.stream();
  b.restore(snap);
  EXPECT_EQ(b.next_expected_day(), 41);
  feed_days(b, 41, 47);
  ASSERT_TRUE(b.finished());

  // Window summaries and diagnostics match byte for byte (timing fields
  // excluded -- wall clocks differ across processes by construction).
  ASSERT_EQ(ref.history().size(), b.history().size());
  for (std::size_t w = 0; w < ref.history().size(); ++w) {
    const auto& rw = ref.history()[w];
    const auto& bw = b.history()[w];
    EXPECT_EQ(rw.from_day, bw.from_day);
    EXPECT_EQ(rw.to_day, bw.to_day);
    EXPECT_BITEQ(rw.diag.ess, bw.diag.ess);
    EXPECT_BITEQ(rw.diag.log_marginal, bw.diag.log_marginal);
    EXPECT_EQ(rw.diag.unique_resampled, bw.diag.unique_resampled);
    EXPECT_BITEQ(rw.summary.theta.mean, bw.summary.theta.mean);
    EXPECT_BITEQ(rw.summary.theta.sd, bw.summary.theta.sd);
    EXPECT_BITEQ(rw.summary.theta.median, bw.summary.theta.median);
    EXPECT_BITEQ(rw.summary.rho.mean, bw.summary.rho.mean);
    EXPECT_BITEQ(rw.summary.rho.ci90.lo, bw.summary.rho.ci90.lo);
    EXPECT_BITEQ(rw.summary.rho.ci90.hi, bw.summary.rho.ci90.hi);
  }
  ASSERT_EQ(ref.day_records().size(), b.day_records().size());
  for (std::size_t i = 0; i < ref.day_records().size(); ++i) {
    EXPECT_EQ(ref.day_records()[i].day, b.day_records()[i].day);
    EXPECT_BITEQ(ref.day_records()[i].ess, b.day_records()[i].ess);
    EXPECT_BITEQ(ref.day_records()[i].log_marginal,
                 b.day_records()[i].log_marginal);
  }
  // The resumed process' window-2 result matches the reference bitwise.
  expect_window_bit_identical(ref.results()[1], b.results().back());
}

TEST(StreamingCalibrator, AutomaticCheckpointsLandOnDisk) {
  const auto path = std::filesystem::temp_directory_path() /
                    "epismc_stream_auto_ckpt.bin";
  const io::CheckpointRotation rotation{path};
  std::filesystem::remove(rotation.slot_a());
  std::filesystem::remove(rotation.slot_b());

  auto session = make_session(small_config(), "seir-event");
  api::StreamOptions options;
  options.checkpoint_every = 5;
  options.checkpoint_path = path;
  StreamingCalibrator cal = session.stream(options);
  feed_days(cal, 20, 26);  // 7 days: one checkpoint at day 24
  // Saves rotate through generation-stamped slots; the first lands in a.
  ASSERT_TRUE(std::filesystem::exists(rotation.slot_a()));
  EXPECT_FALSE(std::filesystem::exists(rotation.slot_b()));
  const io::SlotInfo info = io::inspect_archive(rotation.slot_a());
  EXPECT_TRUE(info.usable);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.tag, StreamState::kArchiveTag);

  const StreamState st = StreamState::load(rotation.slot_a());
  EXPECT_EQ(st.cursor, 24);
  EXPECT_TRUE(st.window_open);
  EXPECT_EQ(st.days_since_checkpoint, 0u);
  std::filesystem::remove(rotation.slot_a());
}

// --- Checkpoint format: the save path must not change a byte. ------------

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// A calibrator that checkpoints only when asked, into fresh rotated slots
/// under `base`, fed into the middle of window 2 so both the parent pool
/// and the live cloud are in the archive.
StreamingCalibrator mid_window_calibrator(api::CalibrationSession& session,
                                          const std::filesystem::path& base) {
  const io::CheckpointRotation rotation{base};
  std::filesystem::remove(rotation.slot_a());
  std::filesystem::remove(rotation.slot_b());
  api::StreamOptions options;
  options.checkpoint_every = 1000;
  options.checkpoint_path = base;
  StreamingCalibrator cal = session.stream(options);
  feed_days(cal, 20, 40);
  return cal;
}

TEST(StreamCheckpoint, SlotPayloadEqualsSnapshotBytes) {
  const auto base = std::filesystem::temp_directory_path() /
                    "epismc_stream_payload_ckpt.bin";
  auto session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator cal = mid_window_calibrator(session, base);
  cal.checkpoint_now();

  const io::CheckpointRotation rotation{base};
  const std::vector<std::byte> file = read_file(rotation.by_recency()[0].path);
  io::BinaryWriter expect(StreamState::kArchiveVersion);
  cal.snapshot().serialize(expect);
  ASSERT_EQ(file.size(), expect.size() + io::ArchiveFooter::kBytes);
  EXPECT_TRUE(std::equal(expect.bytes().begin(), expect.bytes().end(),
                         file.begin()));
  std::filesystem::remove(rotation.slot_a());
}

TEST(StreamCheckpoint, SlotBytesDoNotDependOnLaneCount) {
  const auto base = std::filesystem::temp_directory_path() /
                    "epismc_stream_lanes_ckpt.bin";
  const io::CheckpointRotation rotation{base};
  auto session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator cal = mid_window_calibrator(session, base);

  // Both saves land in slot a at generation 1 (the serial one is moved
  // aside first), so the whole files -- footer included -- must match.
  const auto serial_copy = base.string() + ".serial";
  {
    const parallel::ScopedBackend serial(parallel::PoolBackend::kSerial);
    cal.checkpoint_now();
  }
  std::filesystem::rename(rotation.slot_a(), serial_copy);
  const int lanes = parallel::TaskPool::instance().lanes();
  {
    const parallel::ScopedBackend pool(parallel::PoolBackend::kPool);
    parallel::set_threads(4);
    cal.checkpoint_now();
  }
  parallel::set_threads(lanes);

  EXPECT_EQ(read_file(serial_copy), read_file(rotation.slot_a()));
  std::filesystem::remove(serial_copy);
  std::filesystem::remove(rotation.slot_a());
}

TEST(StreamCheckpoint, FixedArchiveFooterCrcIsPinned) {
  // A hand-built snapshot (no wall-clock fields, no simulation output), so
  // its sealed bytes are a pure function of the archive format. The CRC
  // constant was recorded from the table-driven checksum before the
  // hardware path existed; a change here means the on-disk format moved.
  StreamState st;
  st.config_fingerprint = 0x0123456789ABCDEFull;
  st.simulator_name = "chain-binomial";
  st.cursor = 26;
  st.any_assimilated = true;
  st.window_open = true;
  st.days_since_checkpoint = 3;
  StreamDayRecord day;
  day.day = 26;
  day.ess = 123.5;
  day.log_marginal = -42.25;
  st.days = {day};
  st.has_initial = true;
  st.initial.day = 19;
  for (int i = 0; i < 100; ++i) {
    st.initial.bytes.push_back(static_cast<std::byte>(i * 7));
  }
  st.obs_cases = {3.0, 5.0, 8.0};
  st.n_sims = 2;
  st.param_index = {0, 1};
  st.replicate = {0, 0};
  st.parent = {0, 0};
  st.theta = {0.25, 0.375};
  st.rho = {0.5, 0.625};
  st.seed = {11, 12};
  st.stream = {21, 22};
  st.true_cases_prefix = {1, 2, 3, 4, 5, 6};
  st.obs_cases_prefix = {1, 1, 2, 2, 3, 3};
  st.deaths_prefix = {0, 0, 0, 0, 0, 1};
  st.case_acc = {-1.5, -2.5};
  st.death_acc = {0.0, 0.0};
  st.full_case_acc = {-1.5, -2.5};
  st.full_death_acc = {0.0, 0.0};
  st.bias_stream = {31, 32};
  st.bias_position = {4, 8};
  st.cloud = {st.initial, st.initial};
  st.degenerate_draw = {0, 1};

  const auto base = std::filesystem::temp_directory_path() /
                    "epismc_stream_pinned_crc.bin";
  const io::CheckpointRotation rotation{base};
  std::filesystem::remove(rotation.slot_a());
  std::filesystem::remove(rotation.slot_b());
  io::BinaryWriter out(StreamState::kArchiveVersion);
  st.serialize(out);
  rotation.save_next(out);

  const std::vector<std::byte> file = read_file(rotation.slot_a());
  ASSERT_EQ(file.size(), out.size() + io::ArchiveFooter::kBytes);
  std::uint32_t crc = 0;
  std::memcpy(&crc, file.data() + file.size() - sizeof crc, sizeof crc);
  EXPECT_EQ(crc, 0x41338AB4u);
  std::filesystem::remove(rotation.slot_a());
}

// --- StreamState archive. ---------------------------------------------------

// The config fingerprint gates every resume, so its value is part of the
// checkpoint format: a change would make existing stream checkpoints refuse
// to resume. The field list includes a fixed placeholder where a retired
// capture-policy setting used to be mixed in.
TEST(StreamState, ConfigFingerprintOfDefaultConfigIsPinned) {
  StreamConfig config;
  config.calibration.windows = {{20, 33}, {34, 47}, {48, 61}, {62, 75}};
  EXPECT_EQ(config_fingerprint(config), 0xc007aa931d98f009ull);
}

TEST(StreamState, RoundTripsFieldByField) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 38);  // window 1 complete, window 2 mid-flight

  const StreamState a = cal.snapshot();
  io::BinaryWriter out(StreamState::kArchiveVersion);
  a.serialize(out);
  io::BinaryReader in(std::vector<std::byte>(out.bytes()));
  const StreamState b = StreamState::deserialize(in);
  EXPECT_TRUE(in.exhausted());

  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.simulator_name, b.simulator_name);
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.any_assimilated, b.any_assimilated);
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_EQ(a.window_open, b.window_open);
  EXPECT_EQ(a.days_since_checkpoint, b.days_since_checkpoint);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t w = 0; w < a.history.size(); ++w) {
    EXPECT_EQ(a.history[w].from_day, b.history[w].from_day);
    EXPECT_EQ(a.history[w].to_day, b.history[w].to_day);
    EXPECT_BITEQ(a.history[w].diag.ess, b.history[w].diag.ess);
    EXPECT_BITEQ(a.history[w].diag.perplexity, b.history[w].diag.perplexity);
    EXPECT_BITEQ(a.history[w].diag.max_weight, b.history[w].diag.max_weight);
    EXPECT_EQ(a.history[w].diag.inline_capture,
              b.history[w].diag.inline_capture);
    EXPECT_EQ(a.history[w].smc.strategy, b.history[w].smc.strategy);
    EXPECT_EQ(a.history[w].smc.stages.size(), b.history[w].smc.stages.size());
    EXPECT_BITEQ(a.history[w].summary.theta.mean,
                 b.history[w].summary.theta.mean);
    EXPECT_BITEQ(a.history[w].summary.rho.ci50.lo,
                 b.history[w].summary.rho.ci50.lo);
  }
  ASSERT_EQ(a.days.size(), b.days.size());
  for (std::size_t i = 0; i < a.days.size(); ++i) {
    EXPECT_EQ(a.days[i].day, b.days[i].day);
    EXPECT_EQ(a.days[i].window, b.days[i].window);
    EXPECT_BITEQ(a.days[i].ess, b.days[i].ess);
    EXPECT_EQ(a.days[i].resampled, b.days[i].resampled);
    EXPECT_BITEQ(a.days[i].log_marginal, b.days[i].log_marginal);
    EXPECT_BITEQ(a.days[i].seconds, b.days[i].seconds);
    EXPECT_EQ(a.days[i].demoted, b.days[i].demoted);
  }
  EXPECT_EQ(a.has_initial, b.has_initial);
  EXPECT_EQ(a.initial.day, b.initial.day);
  EXPECT_EQ(a.initial.bytes, b.initial.bytes);
  EXPECT_EQ(a.has_posterior, b.has_posterior);
  EXPECT_EQ(a.posterior.theta, b.posterior.theta);
  EXPECT_EQ(a.posterior.rho, b.posterior.rho);
  EXPECT_EQ(a.posterior.parent_slot, b.posterior.parent_slot);
  ASSERT_EQ(a.parent_pool.size(), b.parent_pool.size());
  for (std::size_t p = 0; p < a.parent_pool.size(); ++p) {
    EXPECT_EQ(a.parent_pool[p].day, b.parent_pool[p].day);
    EXPECT_EQ(a.parent_pool[p].bytes, b.parent_pool[p].bytes);
  }
  EXPECT_EQ(a.obs_cases, b.obs_cases);
  EXPECT_EQ(a.obs_deaths, b.obs_deaths);
  EXPECT_EQ(a.n_sims, b.n_sims);
  EXPECT_EQ(a.param_index, b.param_index);
  EXPECT_EQ(a.replicate, b.replicate);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.true_cases_prefix, b.true_cases_prefix);
  EXPECT_EQ(a.obs_cases_prefix, b.obs_cases_prefix);
  EXPECT_EQ(a.deaths_prefix, b.deaths_prefix);
  EXPECT_EQ(a.case_acc, b.case_acc);
  EXPECT_EQ(a.death_acc, b.death_acc);
  EXPECT_EQ(a.full_case_acc, b.full_case_acc);
  EXPECT_EQ(a.full_death_acc, b.full_death_acc);
  EXPECT_EQ(a.bias_stream, b.bias_stream);
  EXPECT_EQ(a.bias_position, b.bias_position);
  ASSERT_EQ(a.cloud.size(), b.cloud.size());
  for (std::size_t s = 0; s < a.cloud.size(); ++s) {
    EXPECT_EQ(a.cloud[s].day, b.cloud[s].day);
    EXPECT_EQ(a.cloud[s].bytes, b.cloud[s].bytes);
  }
  EXPECT_BITEQ(a.log_marginal_acc, b.log_marginal_acc);
  EXPECT_EQ(a.midwindow_resamples, b.midwindow_resamples);
  EXPECT_BITEQ(a.propagate_seconds, b.propagate_seconds);
  EXPECT_EQ(a.degenerate_draw, b.degenerate_draw);
  EXPECT_EQ(a.degenerate_draw.size(), a.n_sims);
}

TEST(StreamState, SerializeReservesTheStateTailExactly) {
  // state_bytes() must match what serialize() writes after the day
  // records: too little re-grows the multi-megabyte buffer by doubling,
  // too much leaves slack in every checkpoint's peak memory.
  auto session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 38);
  io::BinaryWriter out(StreamState::kArchiveVersion);
  cal.snapshot().serialize(out);
  EXPECT_EQ(out.bytes().capacity(), out.size());
}

TEST(StreamState, RejectsFutureArchiveVersion) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 22);

  const auto path = std::filesystem::temp_directory_path() /
                    "epismc_stream_version_tamper.bin";
  // A validly sealed archive written at a future format version (a byte
  // patch would just fail the CRC seal; the version gate is what is under
  // test here).
  io::BinaryWriter out(99);
  cal.snapshot().serialize(out);
  out.save(path);

  try {
    (void)StreamState::load(path);
    FAIL() << "future-version archive was accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kVersion) << e.what();
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// A sealed archive whose window-history count is corrupt fails typed as
// kTruncated -- the kind resume_latest falls back on -- before the loader
// reserves from the count.
TEST(StreamState, HugeHistoryCountIsTruncatedNotAnAllocation) {
  const auto path = std::filesystem::temp_directory_path() /
                    "epismc_stream_huge_count.bin";
  io::BinaryWriter out(StreamState::kArchiveVersion);
  out.write_string(StreamState::kArchiveTag);
  out.write(std::uint64_t{0});       // config fingerprint
  out.write_string("seir-event");    // simulator name
  out.write(std::int32_t{20});       // cursor
  out.write(std::uint8_t{1});        // any_assimilated
  out.write(std::uint32_t{0});       // window_index
  out.write(std::uint8_t{1});        // window_open
  out.write(std::uint64_t{0});       // days_since_checkpoint
  out.write(std::uint64_t{1} << 60);  // history count
  out.save(path);

  try {
    (void)StreamState::load(path);
    FAIL() << "corrupt history count was accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kTruncated) << e.what();
  }
  std::filesystem::remove(path);
}

// The byte image of a checkpoint holding one window record: the record
// layout (window diagnostics, SMC trace, posterior summary) is shared with
// the sweep cell archive and must not drift under an unchanged version.
TEST(StreamState, WindowRecordArchiveBytesArePinned) {
  StreamState st;
  st.config_fingerprint = 0x0123456789ABCDEFull;
  st.simulator_name = "seir-event";
  stream::StreamWindowRecord w;
  w.from_day = 20;
  w.to_day = 33;
  w.diag.ess = 12.5;
  w.diag.perplexity = 0.25;
  w.diag.max_weight = 0.125;
  w.diag.log_marginal = -3.5;
  w.diag.unique_resampled = 7;
  w.diag.n_sims = 40;
  w.diag.propagate_seconds = 1.5;
  w.diag.checkpoint_seconds = 0.75;
  w.diag.inline_capture = true;
  w.smc.stages = {{1.0, 12.5, -3.5}};
  w.summary.from_day = 20;
  w.summary.to_day = 33;
  w.summary.theta.mean = 0.25;
  w.summary.theta.ci90 = {0.125, 0.375};
  w.summary.rho.median = 0.8125;
  w.summary.rho.ci50 = {0.625, 0.875};
  st.history.push_back(w);

  io::BinaryWriter out(StreamState::kArchiveVersion);
  st.serialize(out);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::byte b : out.bytes()) {
    h = (h ^ static_cast<std::uint8_t>(b)) * 1099511628211ull;
  }
  EXPECT_EQ(h, 0xcbf691c980c65093ull);

  io::BinaryReader in(std::vector<std::byte>(out.bytes()));
  const StreamState back = StreamState::deserialize(in);
  EXPECT_TRUE(in.exhausted());
  ASSERT_EQ(back.history.size(), 1u);
  EXPECT_EQ(back.history[0].diag.n_sims, 40u);
  EXPECT_EQ(back.history[0].summary.theta.ci90.hi, 0.375);
  EXPECT_EQ(back.history[0].summary.rho.ci50.lo, 0.625);
}

TEST(StreamState, RejectsForeignArchiveTag) {
  io::BinaryWriter out(StreamState::kArchiveVersion);
  out.write_string("epismc-window");  // some other archive family
  out.write(std::uint64_t{0});
  io::BinaryReader in(std::vector<std::byte>(out.bytes()));
  try {
    (void)StreamState::deserialize(in);
    FAIL() << "foreign-tag archive was accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_NE(std::string(e.what()).find("epismc-window"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("epismc-stream"), std::string::npos);
  }
}

TEST(StreamState, RejectsTruncatedArchive) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 22);

  io::BinaryWriter out(StreamState::kArchiveVersion);
  cal.snapshot().serialize(out);
  std::vector<std::byte> bytes(out.bytes());
  bytes.resize(bytes.size() / 2);  // chop the tail
  io::BinaryReader in(std::move(bytes));
  EXPECT_THROW((void)StreamState::deserialize(in), io::ArchiveError);
}

TEST(StreamingCalibrator, RestoreGuardsConfigAndSimulator) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 24);
  const StreamState snap = cal.snapshot();

  // Config drift: different seed => different fingerprint.
  CalibrationConfig other = small_config();
  other.seed = 777;
  auto drifted_session = make_session(other, "seir-event");
  StreamingCalibrator drifted = drifted_session.stream();
  try {
    drifted.restore(snap);
    FAIL() << "fingerprint mismatch was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }

  // Simulator drift: snapshot from seir-event into chain-binomial.
  auto foreign_session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator foreign = foreign_session.stream();
  try {
    foreign.restore(snap);
    FAIL() << "simulator mismatch was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seir-event"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("chain-binomial"), std::string::npos);
  }
}

// --- Restore checks the snapshot's shape before it commits. ----------------

std::vector<std::byte> snapshot_bytes(const StreamingCalibrator& cal) {
  io::BinaryWriter out(StreamState::kArchiveVersion);
  cal.snapshot().serialize(out);
  return out.bytes();
}

TEST(StreamingCalibrator, RestoreRejectsBadShapesAndChangesNothing) {
  auto source_session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator source = source_session.stream();
  feed_days(source, 20, 25);
  const StreamState open = source.snapshot();
  feed_days(source, 26, 38);
  const StreamState second = source.snapshot();

  auto target_session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator target = target_session.stream();
  feed_days(target, 20, 22);
  const std::vector<std::byte> before = snapshot_bytes(target);

  using Edit = void (*)(StreamState&);
  const std::pair<const char*, Edit> cases[] = {
      {"bias_stream", [](StreamState& s) { s.bias_stream.pop_back(); }},
      {"cloud", [](StreamState& s) { s.cloud.pop_back(); }},
      {"param_index", [](StreamState& s) { s.param_index.resize(1); }},
      {"degenerate_draw", [](StreamState& s) { s.degenerate_draw.clear(); }},
      {"true_cases_prefix",
       [](StreamState& s) { s.true_cases_prefix.pop_back(); }},
      {"obs_cases",
       [](StreamState& s) {
         s.obs_cases.resize(30);
         for (auto* v : {&s.true_cases_prefix, &s.obs_cases_prefix,
                         &s.deaths_prefix}) {
           v->resize(s.n_sims * 30);
         }
       }},
      {"obs_deaths", [](StreamState& s) { s.obs_deaths = s.obs_cases; }},
      {"cursor", [](StreamState& s) { s.cursor -= 3; }},
      {"n_sims", [](StreamState& s) { s.n_sims += 1; }},
      {"window_index",
       [](StreamState& s) {
         s.window_open = false;
         s.window_index = 5;
       }},
      {"has_posterior", [](StreamState& s) { s.has_posterior = true; }},
  };
  for (const auto& [field, edit] : cases) {
    SCOPED_TRACE(field);
    StreamState bad = open;
    edit(bad);
    try {
      target.restore(bad);
      FAIL() << "bad shape accepted";
    } catch (const io::ArchiveError& e) {
      EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kCorrupt) << e.what();
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(snapshot_bytes(target), before);
  }

  // Posterior checks need a snapshot past the first window.
  StreamState bad = second;
  bad.posterior.parent_slot[0] =
      static_cast<std::uint32_t>(bad.parent_pool.size());
  EXPECT_THROW(target.restore(bad), io::ArchiveError);
  bad = second;
  bad.posterior.rho.pop_back();
  EXPECT_THROW(target.restore(bad), io::ArchiveError);
  EXPECT_EQ(snapshot_bytes(target), before);
}

TEST(StreamCheckpoint, ResumeFallsBackPastABadShapeSlot) {
  const auto base = std::filesystem::temp_directory_path() /
                    "epismc_stream_bad_shape_ckpt.bin";
  const io::CheckpointRotation rotation{base};
  std::filesystem::remove(rotation.slot_a());
  std::filesystem::remove(rotation.slot_b());
  api::StreamOptions options;
  options.checkpoint_every = 1000;
  options.checkpoint_path = base;

  auto session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator cal = session.stream(options);
  feed_days(cal, 20, 24);
  cal.checkpoint_now();  // good slot, generation 1
  feed_days(cal, 25, 25);
  StreamState bad = cal.snapshot();
  bad.cloud.pop_back();  // sealed intact, but the wrong shape
  io::BinaryWriter out(StreamState::kArchiveVersion);
  bad.serialize(out);
  rotation.save_next(out);  // newest slot, generation 2

  auto resumed_session = make_session(small_config(), "chain-binomial");
  StreamingCalibrator resumed = resumed_session.stream(options);
  const auto rec = resumed.resume_latest();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->fell_back) << rec->note;
  EXPECT_EQ(rec->generation, 1u);
  EXPECT_EQ(resumed.next_expected_day(), 25);
  std::filesystem::remove(rotation.slot_a());
  std::filesystem::remove(rotation.slot_b());
}

// restore(snapshot()) is the identity at every cut: before the first day,
// after each day, at the window boundary and after the end. The restored
// calibrator re-snapshots to the same bytes and runs to the same history
// and day records as the original (timing fields excluded).
void expect_restore_is_identity(const std::string& simulator) {
  CalibrationConfig cfg = small_config();
  cfg.n_params = 30;
  cfg.use_deaths = true;
  cfg.inference = InferenceStrategy::kTempered;
  cfg.ess_threshold = 0.9;  // force mid-window resamples
  const ObservedData data = test_truth().observed();
  const auto feed = [&data](StreamingCalibrator& c, std::int32_t from,
                            std::int32_t to) {
    for (std::int32_t d = from; d <= to; ++d) {
      c.ingest(
          {.day = d, .cases = data.cases_at(d), .deaths = data.deaths_at(d)});
    }
  };

  auto ref_session = make_session(cfg, simulator);
  StreamingCalibrator ref = ref_session.stream();
  feed(ref, 20, 47);
  std::size_t resamples = 0;
  for (const StreamDayRecord& d : ref.day_records()) resamples += d.resampled;
  ASSERT_GE(resamples, 1u) << "no mid-window resample fired";

  for (std::int32_t cut = 19; cut <= 47; ++cut) {
    SCOPED_TRACE("cut after day " + std::to_string(cut));
    auto a_session = make_session(cfg, simulator);
    StreamingCalibrator a = a_session.stream();
    feed(a, 20, cut);
    auto b_session = make_session(cfg, simulator);
    StreamingCalibrator b = b_session.stream();
    b.restore(a.snapshot());
    ASSERT_EQ(snapshot_bytes(b), snapshot_bytes(a));
    feed(b, cut + 1, 47);
    ASSERT_EQ(ref.history().size(), b.history().size());
    for (std::size_t w = 0; w < ref.history().size(); ++w) {
      const auto& rw = ref.history()[w];
      const auto& bw = b.history()[w];
      EXPECT_BITEQ(rw.diag.ess, bw.diag.ess);
      EXPECT_BITEQ(rw.diag.log_marginal, bw.diag.log_marginal);
      EXPECT_EQ(rw.diag.unique_resampled, bw.diag.unique_resampled);
      EXPECT_EQ(rw.smc.stages.size(), bw.smc.stages.size());
      EXPECT_BITEQ(rw.summary.theta.mean, bw.summary.theta.mean);
      EXPECT_BITEQ(rw.summary.theta.sd, bw.summary.theta.sd);
      EXPECT_BITEQ(rw.summary.rho.mean, bw.summary.rho.mean);
      EXPECT_BITEQ(rw.summary.rho.ci90.hi, bw.summary.rho.ci90.hi);
    }
    ASSERT_EQ(ref.day_records().size(), b.day_records().size());
    for (std::size_t i = 0; i < ref.day_records().size(); ++i) {
      const StreamDayRecord& r = ref.day_records()[i];
      const StreamDayRecord& q = b.day_records()[i];
      EXPECT_EQ(r.day, q.day);
      EXPECT_EQ(r.window, q.window);
      EXPECT_BITEQ(r.ess, q.ess);
      EXPECT_EQ(r.resampled, q.resampled);
      EXPECT_BITEQ(r.log_marginal, q.log_marginal);
      EXPECT_EQ(r.demoted, q.demoted);
    }
  }
}

TEST(StreamingCalibrator, RestoreOfSnapshotIsIdentitySeir) {
  expect_restore_is_identity("seir-event");
}

TEST(StreamingCalibrator, RestoreOfSnapshotIsIdentityChainBinomial) {
  expect_restore_is_identity("chain-binomial");
}

// --- Ingress and config validation. -----------------------------------------

TEST(StreamingCalibrator, RejectsNonContiguousAndStaleDays) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  EXPECT_EQ(cal.next_expected_day(), 20);

  // Starting anywhere but the first window's first day is a gap.
  try {
    cal.ingest({.day = 25, .cases = 10.0});
    FAIL() << "gap accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected day 20"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("got day 25"), std::string::npos);
  }

  feed_days(cal, 20, 25);
  // Re-ingesting an already-assimilated day names the cursor.
  try {
    cal.ingest({.day = 23, .cases = 10.0});
    FAIL() << "stale day accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("already assimilated"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cursor at day 25"),
              std::string::npos);
  }

  feed_days(cal, 26, 47);
  ASSERT_TRUE(cal.finished());
  EXPECT_THROW(cal.ingest({.day = 48, .cases = 1.0}), std::logic_error);
}

TEST(StreamingCalibrator, RejectsMissingDeathsUnderUseDeaths) {
  CalibrationConfig cfg = small_config();
  cfg.use_deaths = true;
  auto session = make_session(cfg, "seir-event");
  StreamingCalibrator cal = session.stream();
  try {
    cal.ingest({.day = 20, .cases = 10.0});  // no deaths attached
    FAIL() << "missing death count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("day-20"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("death"), std::string::npos);
  }
  // With the death count attached the same day assimilates fine.
  cal.ingest({.day = 20, .cases = 10.0, .deaths = 1.0});
  EXPECT_EQ(cal.last_assimilated_day(), 20);
}

TEST(StreamConfig, ValidateRejectsBadCheckpointKnobs) {
  StreamConfig cfg;
  cfg.calibration = small_config();

  cfg.checkpoint_every = -3;
  try {
    cfg.validate();
    FAIL() << "negative interval accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("positive"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }

  cfg.checkpoint_every = 5;
  cfg.checkpoint_path.clear();
  try {
    cfg.validate();
    FAIL() << "missing path accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint_path"),
              std::string::npos);
  }

  // Delegates to the calibration validation too.
  cfg.checkpoint_every = 0;
  cfg.calibration.likelihood_name = "no-such-likelihood";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(StreamingCalibrator, SessionLocksConfigurationAfterStream) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  EXPECT_THROW(session.with_seed(1), std::logic_error);
}

TEST(StreamingCalibrator, DayCsvHasHeaderAndRows) {
  auto session = make_session(small_config(), "seir-event");
  StreamingCalibrator cal = session.stream();
  feed_days(cal, 20, 24);
  std::ostringstream out;
  stream::write_stream_day_csv(out, cal.day_records());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("day,window,ess,resampled,log_marginal,seconds"),
            std::string::npos);
  EXPECT_NE(csv.find("\n20,0,"), std::string::npos);
  EXPECT_NE(csv.find("\n24,0,"), std::string::npos);
}

}  // namespace
