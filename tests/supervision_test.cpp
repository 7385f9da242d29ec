// Supervised execution: the TaskOutcome taxonomy, deterministic backoff,
// heartbeat/stall enforcement, retry budgets, and the end-to-end promise
// -- a supervised streaming session whose worker crashes mid-feed
// recovers to a posterior byte-identical to an uninterrupted run.
//
// Supervisor children are forked clones that std::_Exit, so gtest_main
// and sanitizers stay confined to the parent.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/progress.hpp"
#include "core/scenario.hpp"
#include "fault/fault.hpp"
#include "io/binary_archive.hpp"
#include "io/checkpoint_rotation.hpp"
#include "parallel/parallel.hpp"
#include "stream/streaming_calibrator.hpp"
#include "supervise/supervisor.hpp"

namespace {

using namespace epismc;
namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "epismc_supervision";
  fs::create_directories(dir);
  return dir / name;
}

supervise::SupervisorOptions fast_options() {
  supervise::SupervisorOptions sup;
  sup.backoff_base_seconds = 0.01;
  sup.backoff_max_seconds = 0.05;
  return sup;
}

// --- Taxonomy: classify_exit is the whole contract in one function. ---------

supervise::ChildStatus exited(int code) {
  supervise::ChildStatus s;
  s.exited = true;
  s.code = code;
  return s;
}

supervise::ChildStatus signaled(int sig) {
  supervise::ChildStatus s;
  s.signaled = true;
  s.signal = sig;
  return s;
}

TEST(ClassifyExit, CleanZeroIsOk) {
  EXPECT_EQ(supervise::classify_exit(exited(0), supervise::StopCause::kNone),
            supervise::TaskOutcome::kOk);
}

TEST(ClassifyExit, RetryableExitCodeIsRetryableCrash) {
  ASSERT_EQ(supervise::kRetryableExitCode, fault::kCrashExitCode)
      << "the fault-injection crash code doubles as the retryable contract";
  EXPECT_EQ(supervise::classify_exit(exited(supervise::kRetryableExitCode),
                                     supervise::StopCause::kNone),
            supervise::TaskOutcome::kRetryableCrash);
}

TEST(ClassifyExit, CorruptCheckpointExitCode) {
  EXPECT_EQ(
      supervise::classify_exit(exited(supervise::kCorruptCheckpointExitCode),
                               supervise::StopCause::kNone),
      supervise::TaskOutcome::kCorruptCheckpoint);
}

TEST(ClassifyExit, OtherCleanNonzeroIsFatal) {
  EXPECT_EQ(supervise::classify_exit(exited(3), supervise::StopCause::kNone),
            supervise::TaskOutcome::kFatal);
  EXPECT_EQ(supervise::classify_exit(exited(1), supervise::StopCause::kNone),
            supervise::TaskOutcome::kFatal);
}

TEST(ClassifyExit, SignalDeathsAreRetryable) {
  EXPECT_EQ(
      supervise::classify_exit(signaled(SIGKILL), supervise::StopCause::kNone),
      supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(
      supervise::classify_exit(signaled(SIGSEGV), supervise::StopCause::kNone),
      supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(
      supervise::classify_exit(signaled(SIGBUS), supervise::StopCause::kNone),
      supervise::TaskOutcome::kRetryableCrash);
}

TEST(ClassifyExit, SupervisorKillsClassifyAsStallRegardlessOfCorpse) {
  // The supervisor SIGKILLed the child; whatever waitpid later reports,
  // the recorded cause wins.
  EXPECT_EQ(
      supervise::classify_exit(signaled(SIGKILL), supervise::StopCause::kStall),
      supervise::TaskOutcome::kStall);
  EXPECT_EQ(supervise::classify_exit(exited(0),
                                     supervise::StopCause::kDeadline),
            supervise::TaskOutcome::kStall);
}

TEST(ClassifyExit, RetryabilityPredicate) {
  using supervise::TaskOutcome;
  EXPECT_TRUE(supervise::is_retryable(TaskOutcome::kRetryableCrash));
  EXPECT_TRUE(supervise::is_retryable(TaskOutcome::kStall));
  EXPECT_FALSE(supervise::is_retryable(TaskOutcome::kOk));
  EXPECT_FALSE(supervise::is_retryable(TaskOutcome::kCorruptCheckpoint));
  EXPECT_FALSE(supervise::is_retryable(TaskOutcome::kFatal));
}

// --- Backoff: deterministic, jittered, capped. ------------------------------

TEST(Backoff, BitReproducibleForFixedSeed) {
  const std::uint64_t key = supervise::task_stream_key("cell:a/b");
  for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const double first = supervise::backoff_delay(42, key, attempt, 0.05, 2.0);
    const double again = supervise::backoff_delay(42, key, attempt, 0.05, 2.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first),
              std::bit_cast<std::uint64_t>(again))
        << "attempt " << attempt;
  }
  const auto schedule = supervise::backoff_schedule(42, key, 6, 0.05, 2.0);
  ASSERT_EQ(schedule.size(), 6u);
  for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(schedule[attempt - 1]),
              std::bit_cast<std::uint64_t>(
                  supervise::backoff_delay(42, key, attempt, 0.05, 2.0)));
  }
}

TEST(Backoff, JitterBoundedByExponentialEnvelope) {
  const std::uint64_t key = supervise::task_stream_key("stream:s.ckpt");
  for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
    const double raw =
        std::min(2.0, 0.05 * std::ldexp(1.0, static_cast<int>(attempt) - 1));
    const double d = supervise::backoff_delay(7, key, attempt, 0.05, 2.0);
    EXPECT_GE(d, 0.5 * raw) << "attempt " << attempt;
    EXPECT_LE(d, raw) << "attempt " << attempt;
  }
}

TEST(Backoff, DistinctTasksDesynchronize) {
  const std::uint64_t key_a = supervise::task_stream_key("cell:a/sim");
  const std::uint64_t key_b = supervise::task_stream_key("cell:b/sim");
  EXPECT_NE(key_a, key_b);
  EXPECT_NE(supervise::backoff_delay(42, key_a, 1, 0.05, 2.0),
            supervise::backoff_delay(42, key_b, 1, 0.05, 2.0));
}

// --- Fault grammar: hang_after. ---------------------------------------------

TEST(FaultGrammar, HangAfterParses) {
  EXPECT_NO_THROW(fault::arm("stream-ingest:hang_after=3"));
  fault::disarm();
  EXPECT_THROW(fault::arm("stream-ingest:wedge_after=3"),
               std::invalid_argument);
  fault::disarm();
}

// --- Report: round trip, CSV, foreign archives. -----------------------------

supervise::SupervisionReport sample_report() {
  supervise::SupervisionReport report;
  report.seed = 99;
  report.max_retries = 2;
  report.task_deadline_seconds = 30.0;
  report.stall_timeout_seconds = 5.0;

  supervise::TaskReport task;
  task.name = "stream:s.ckpt";
  task.kind = "stream";
  task.outcome = supervise::TaskOutcome::kOk;
  task.wall_seconds = 1.25;
  supervise::TaskAttempt a0;
  a0.attempt = 0;
  a0.outcome = supervise::TaskOutcome::kRetryableCrash;
  a0.exit_code = 86;
  a0.wall_seconds = 0.5;
  a0.note = "it said \"boom\", twice";
  supervise::TaskAttempt a1;
  a1.attempt = 1;
  a1.outcome = supervise::TaskOutcome::kOk;
  a1.exit_code = 0;
  a1.wall_seconds = 0.75;
  a1.backoff_seconds = 0.03125;
  a1.resumed = 1;
  a1.recovered_generation = 4;
  a1.fell_back = 1;
  task.attempts = {a0, a1};
  report.tasks.push_back(task);

  supervise::TaskReport failed;
  failed.name = "cell:x/y";
  failed.kind = "sweep-cell";
  failed.outcome = supervise::TaskOutcome::kFatal;
  failed.wall_seconds = 0.1;
  supervise::TaskAttempt f0;
  f0.attempt = 0;
  f0.outcome = supervise::TaskOutcome::kFatal;
  f0.exit_code = 3;
  f0.wall_seconds = 0.1;
  failed.attempts = {f0};
  report.tasks.push_back(failed);
  report.pool_stats = "lanes=4 workers=3 peak_active=4 tasks=96 steals=17";
  return report;
}

TEST(SupervisionReport, SaveLoadRoundTrip) {
  const fs::path path = scratch("report_roundtrip.bin");
  const supervise::SupervisionReport report = sample_report();
  report.save(path);

  const auto loaded = supervise::SupervisionReport::load(path);
  EXPECT_EQ(loaded.seed, report.seed);
  EXPECT_EQ(loaded.max_retries, report.max_retries);
  EXPECT_EQ(loaded.task_deadline_seconds, report.task_deadline_seconds);
  EXPECT_EQ(loaded.stall_timeout_seconds, report.stall_timeout_seconds);
  ASSERT_EQ(loaded.tasks.size(), 2u);
  EXPECT_EQ(loaded.tasks[0].name, "stream:s.ckpt");
  EXPECT_EQ(loaded.tasks[0].outcome, supervise::TaskOutcome::kOk);
  ASSERT_EQ(loaded.tasks[0].attempts.size(), 2u);
  EXPECT_EQ(loaded.tasks[0].attempts[0].note, "it said \"boom\", twice");
  EXPECT_EQ(loaded.tasks[0].attempts[1].resumed, 1);
  EXPECT_EQ(loaded.tasks[0].attempts[1].recovered_generation, 4u);
  EXPECT_EQ(loaded.tasks[0].attempts[1].fell_back, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                loaded.tasks[0].attempts[1].backoff_seconds),
            std::bit_cast<std::uint64_t>(0.03125));
  EXPECT_EQ(loaded.tasks[1].outcome, supervise::TaskOutcome::kFatal);

  EXPECT_FALSE(loaded.all_ok());
  EXPECT_EQ(loaded.n_ok(), 1u);
  EXPECT_EQ(loaded.n_recovered(), 1u);
  EXPECT_EQ(loaded.n_failed(), 1u);
  ASSERT_NE(loaded.find("cell:x/y"), nullptr);
  EXPECT_EQ(loaded.find("cell:x/y")->outcome, supervise::TaskOutcome::kFatal);
  EXPECT_EQ(loaded.find("nope"), nullptr);
  EXPECT_EQ(loaded.pool_stats, report.pool_stats);
}

TEST(SupervisionReport, ForeignArchiveRefused) {
  const fs::path path = scratch("report_foreign.bin");
  io::BinaryWriter out(supervise::SupervisionReport::kArchiveVersion);
  out.write_string("epismc-stream");
  out.save(path);
  try {
    (void)supervise::SupervisionReport::load(path);
    FAIL() << "foreign tag accepted";
  } catch (const io::ArchiveError& e) {
    EXPECT_EQ(e.kind(), io::ArchiveErrorKind::kForeignTag);
  }
}

TEST(SupervisionReport, CsvQuotesAndCoversEveryAttempt) {
  std::ostringstream os;
  supervise::write_supervision_csv(os, sample_report());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("task,kind,attempt,outcome,exit_code,signal"),
            std::string::npos);
  // RFC-4180: embedded comma and quotes force a quoted field.
  EXPECT_NE(csv.find("\"it said \"\"boom\"\", twice\""), std::string::npos);
  EXPECT_NE(csv.find("retryable-crash"), std::string::npos);
  EXPECT_NE(csv.find("fatal"), std::string::npos);
  // header + 3 attempt rows
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

// --- gc_stale_temps: leaked save temps around a rotation base. --------------

TEST(CheckpointRotation, GcStaleTempsSweepsLeakedSaves) {
  const fs::path base = scratch("gc") / "s.ckpt";
  fs::create_directories(base.parent_path());
  const io::CheckpointRotation rotation{base};

  const auto touch = [](const fs::path& p) { std::ofstream(p) << "x"; };
  touch(rotation.slot_a());
  touch(fs::path(rotation.slot_a().string() + ".tmp.123.0"));
  touch(fs::path(rotation.slot_b().string() + ".tmp.123.1"));
  touch(fs::path(base.string() + ".tmp.999.7"));
  touch(base.parent_path() / "unrelated.tmp.1.2");

  EXPECT_EQ(rotation.gc_stale_temps(), 3u);
  EXPECT_TRUE(fs::exists(rotation.slot_a()));
  EXPECT_TRUE(fs::exists(base.parent_path() / "unrelated.tmp.1.2"));
  EXPECT_FALSE(fs::exists(fs::path(rotation.slot_a().string() + ".tmp.123.0")));
  EXPECT_EQ(rotation.gc_stale_temps(), 0u);
  fs::remove_all(base.parent_path());
}

// --- ProgressReporter plumbing. ---------------------------------------------

TEST(ProgressReporter, ChainBeatsBothAndCollapsesInertParts) {
  int a = 0;
  int b = 0;
  core::ProgressReporter pa;
  pa.on_beat = [&] { ++a; };
  core::ProgressReporter pb;
  pb.on_beat = [&] { ++b; };

  const auto chained = core::ProgressReporter::chain(pa, pb);
  EXPECT_TRUE(chained.armed());
  chained.beat();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);

  EXPECT_FALSE(core::ProgressReporter::chain({}, {}).armed());
  const auto only_a = core::ProgressReporter::chain(pa, {});
  only_a.beat();
  EXPECT_EQ(a, 2);
  core::ProgressReporter{}.beat();  // inert beat is a no-op, not a crash
}

// --- Supervisor end-to-end (forked children). -------------------------------

TEST(Supervisor, OkFirstTry) {
  supervise::Supervisor sup(fast_options());
  supervise::SupervisedTask task;
  task.name = "trivial";
  task.body = [](supervise::TaskContext& ctx) {
    ctx.beat();
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.tasks[0].outcome, supervise::TaskOutcome::kOk);
  ASSERT_EQ(report.tasks[0].attempts.size(), 1u);
  EXPECT_EQ(report.tasks[0].attempts[0].exit_code, 0);
  EXPECT_FALSE(report.tasks[0].recovered());
}

TEST(Supervisor, ParallelParentForksSafelyAndChildrenReusePool) {
  // The lifted restriction: the parent may run pool-parallel work before
  // and between spawns -- the supervisor tears workers down ahead of each
  // fork -- and every forked child can bring up its own lanes.
  const int prev_threads = parallel::max_threads();
  const parallel::PoolBackend prev_backend = parallel::backend();
  parallel::set_backend(parallel::PoolBackend::kPool);
  parallel::set_threads(4);

  // Parent enters a parallel region BEFORE forking anything.
  std::atomic<long> parent_sum{0};
  parallel::parallel_for(
      512, [&](std::size_t i) { parent_sum.fetch_add(static_cast<long>(i)); },
      /*chunk=*/1);
  ASSERT_EQ(parent_sum.load(), 512L * 511 / 2);

  supervise::Supervisor sup(fast_options());
  for (int t = 0; t < 3; ++t) {
    supervise::SupervisedTask task;
    task.name = "pool-child-" + std::to_string(t);
    task.body = [](supervise::TaskContext& ctx) -> int {
      ctx.beat();
      std::atomic<long> sum{0};
      parallel::parallel_for(
          1000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); },
          /*chunk=*/1);
      return sum.load() == 1000L * 999 / 2 ? 0 : 7;
    };
    sup.add_task(std::move(task));
  }

  const auto report = sup.run_all();
  EXPECT_TRUE(report.all_ok());
  EXPECT_FALSE(report.pool_stats.empty());
  EXPECT_NE(report.pool_stats.find("lanes="), std::string::npos);

  // Parent lanes respawn lazily after all the forking.
  std::atomic<long> after{0};
  parallel::parallel_for(
      512, [&](std::size_t i) { after.fetch_add(static_cast<long>(i)); },
      /*chunk=*/1);
  EXPECT_EQ(after.load(), 512L * 511 / 2);

  parallel::set_threads(prev_threads);
  parallel::set_backend(prev_backend);
}

TEST(Supervisor, CrashThenSucceedRecordsBackoffAndRecovers) {
  auto options = fast_options();
  supervise::Supervisor sup(options);
  supervise::SupervisedTask task;
  task.name = "flaky";
  task.body = [](supervise::TaskContext& ctx) -> int {
    if (ctx.attempt() == 0) return supervise::kRetryableExitCode;
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  ASSERT_EQ(report.tasks.size(), 1u);
  const auto& t = report.tasks[0];
  EXPECT_EQ(t.outcome, supervise::TaskOutcome::kOk);
  EXPECT_TRUE(t.recovered());
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(t.attempts[0].exit_code, supervise::kRetryableExitCode);
  // The recorded backoff is exactly the deterministic schedule's entry.
  const double expected = supervise::backoff_delay(
      options.seed, supervise::task_stream_key("flaky"), 1,
      options.backoff_base_seconds, options.backoff_max_seconds);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.attempts[1].backoff_seconds),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(Supervisor, SignalDeathRetries) {
  supervise::Supervisor sup(fast_options());
  supervise::SupervisedTask task;
  task.name = "kill-self";
  task.body = [](supervise::TaskContext& ctx) -> int {
    if (ctx.attempt() == 0) ::raise(SIGKILL);
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  const auto& t = report.tasks[0];
  EXPECT_EQ(t.outcome, supervise::TaskOutcome::kOk);
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(t.attempts[0].signal, SIGKILL);
}

TEST(Supervisor, FatalAndCorruptAreNotRetried) {
  supervise::Supervisor sup(fast_options());
  supervise::SupervisedTask fatal;
  fatal.name = "fatal";
  fatal.body = [](supervise::TaskContext&) { return 3; };
  supervise::SupervisedTask corrupt;
  corrupt.name = "corrupt";
  corrupt.body = [](supervise::TaskContext&) {
    return supervise::kCorruptCheckpointExitCode;
  };
  sup.add_task(std::move(fatal));
  sup.add_task(std::move(corrupt));

  const auto report = sup.run_all();
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.n_failed(), 2u);
  ASSERT_NE(report.find("fatal"), nullptr);
  EXPECT_EQ(report.find("fatal")->outcome, supervise::TaskOutcome::kFatal);
  EXPECT_EQ(report.find("fatal")->attempts.size(), 1u);
  ASSERT_NE(report.find("corrupt"), nullptr);
  EXPECT_EQ(report.find("corrupt")->outcome,
            supervise::TaskOutcome::kCorruptCheckpoint);
  EXPECT_EQ(report.find("corrupt")->attempts.size(), 1u);
}

TEST(Supervisor, StallIsKilledAndRetried) {
  auto options = fast_options();
  options.stall_timeout_seconds = 0.3;
  supervise::Supervisor sup(options);
  supervise::SupervisedTask task;
  task.name = "wedged";
  task.body = [](supervise::TaskContext& ctx) -> int {
    if (ctx.attempt() == 0) {
      for (;;) ::pause();  // no heartbeats, ever
    }
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  const auto& t = report.tasks[0];
  EXPECT_EQ(t.outcome, supervise::TaskOutcome::kOk);
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kStall);
  EXPECT_EQ(t.attempts[0].signal, SIGKILL);
}

TEST(Supervisor, HeartbeatsKeepSlowChildAlive) {
  auto options = fast_options();
  options.stall_timeout_seconds = 0.4;
  supervise::Supervisor sup(options);
  supervise::SupervisedTask task;
  task.name = "slow-but-alive";
  task.body = [](supervise::TaskContext& ctx) -> int {
    // Runs past the stall timeout in total, but never between beats.
    for (int i = 0; i < 6; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      ctx.beat();
    }
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.tasks[0].attempts.size(), 1u);
}

TEST(Supervisor, DeadlineBoundsHeartbeatingChild) {
  auto options = fast_options();
  options.task_deadline_seconds = 0.3;
  options.max_retries = 0;
  supervise::Supervisor sup(options);
  supervise::SupervisedTask task;
  task.name = "overdue";
  task.body = [](supervise::TaskContext& ctx) -> int {
    for (;;) {  // beating does not excuse blowing the deadline
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ctx.beat();
    }
  };
  sup.add_task(std::move(task));

  const auto start = std::chrono::steady_clock::now();
  const auto report = sup.run_all();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(report.tasks[0].outcome, supervise::TaskOutcome::kStall);
  EXPECT_EQ(report.tasks[0].attempts.size(), 1u);
}

TEST(Supervisor, ExhaustedBudgetFailsAloneAndIsNamed) {
  auto options = fast_options();
  options.max_retries = 1;
  supervise::Supervisor sup(options);
  supervise::SupervisedTask doomed;
  doomed.name = "doomed";
  doomed.body = [](supervise::TaskContext&) {
    return supervise::kRetryableExitCode;
  };
  supervise::SupervisedTask fine;
  fine.name = "fine";
  fine.body = [](supervise::TaskContext&) { return 0; };
  sup.add_task(std::move(doomed));
  sup.add_task(std::move(fine));

  const auto report = sup.run_all();
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.n_ok(), 1u);
  EXPECT_EQ(report.n_failed(), 1u);
  const auto* failed = report.find("doomed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->outcome, supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(failed->attempts.size(), 2u) << "1 try + 1 retry";
  ASSERT_NE(report.find("fine"), nullptr);
  EXPECT_TRUE(report.find("fine")->ok());
}

TEST(Supervisor, NotesAndReportPersistence) {
  auto options = fast_options();
  const fs::path report_path = scratch("sup_report.bin");
  options.report_path = report_path;
  supervise::Supervisor sup(options);
  supervise::SupervisedTask task;
  task.name = "annotated";
  task.body = [](supervise::TaskContext& ctx) {
    ctx.report_note("degraded, but \"fine\"");
    return 0;
  };
  sup.add_task(std::move(task));

  const auto report = sup.run_all();
  EXPECT_EQ(report.tasks[0].attempts[0].note, "degraded, but \"fine\"");

  const auto reloaded = supervise::SupervisionReport::load(report_path);
  ASSERT_EQ(reloaded.tasks.size(), 1u);
  EXPECT_EQ(reloaded.tasks[0].attempts[0].note, "degraded, but \"fine\"");
  fs::remove(report_path);
}

// --- End-to-end: supervised streaming, byte-identical recovery. -------------

core::ScenarioConfig harness_scenario() {
  core::ScenarioConfig scenario;
  scenario.params.population = 50000;
  scenario.initial_exposed = 80;
  scenario.total_days = 30;
  scenario.theta_segments = {{0, 0.30}};
  scenario.rho_segments = {{0, 0.60}};
  return scenario;
}

const core::GroundTruth& harness_truth() {
  static const core::GroundTruth truth =
      core::simulate_ground_truth(harness_scenario());
  return truth;
}

api::CalibrationSession harness_session() {
  core::CalibrationConfig cfg;
  cfg.windows = {{5, 14}, {15, 24}};
  cfg.n_params = 32;
  cfg.replicates = 2;
  cfg.resample_size = 64;
  cfg.seed = 99;

  api::SimulatorSpec spec;
  spec.params = harness_scenario().params;
  spec.burnin_theta = 0.3;
  spec.initial_exposed = harness_scenario().initial_exposed;

  api::CalibrationSession session;
  session.with_simulator("seir-event", spec)
      .with_data(harness_truth().observed())
      .with_config(std::move(cfg));
  return session;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The whole session as exact bit patterns: per-window summaries and
// per-day diagnostics, resumes included.
std::string stream_digest(stream::StreamingCalibrator& cal) {
  std::ostringstream out;
  for (const auto& w : cal.history()) {
    out << "w " << w.from_day << ' ' << w.to_day << ' ' << bits(w.diag.ess)
        << ' ' << bits(w.diag.log_marginal) << ' ' << w.diag.unique_resampled
        << ' ' << bits(w.summary.theta.mean) << ' ' << bits(w.summary.theta.sd)
        << ' ' << bits(w.summary.rho.mean) << ' ' << bits(w.summary.rho.sd)
        << '\n';
  }
  for (const auto& d : cal.day_records()) {
    out << "d " << d.day << ' ' << d.window << ' ' << bits(d.ess) << ' '
        << (d.resampled ? 1 : 0) << ' ' << bits(d.log_marginal) << '\n';
  }
  return out.str();
}

std::string run_supervised_stream(const fs::path& ckpt,
                                  supervise::SupervisionReport* report_out) {
  fs::remove(fs::path(ckpt.string() + ".a"));
  fs::remove(fs::path(ckpt.string() + ".b"));
  fs::remove(fs::path(ckpt.string() + ".supervision"));

  api::CalibrationSession session = harness_session();
  api::StreamOptions options;
  options.checkpoint_every = 4;
  options.checkpoint_path = ckpt;

  auto sup = fast_options();
  sup.stall_timeout_seconds = 60.0;
  const auto report = session.supervised(options, sup);
  if (report_out != nullptr) *report_out = report;
  if (!report.all_ok()) return "<supervision failed>";

  fault::ScopedSuppress suppress;
  api::CalibrationSession loader = harness_session();
  api::StreamOptions load_options = options;
  load_options.resume_latest = true;
  stream::StreamingCalibrator cal = loader.stream(load_options);
  EXPECT_TRUE(cal.finished());
  return stream_digest(cal);
}

TEST(SupervisedStreaming, CrashRecoveryIsByteIdentical) {
  supervise::SupervisionReport clean_report;
  const std::string clean =
      run_supervised_stream(scratch("clean.ckpt"), &clean_report);
  ASSERT_TRUE(clean_report.all_ok());
  EXPECT_EQ(clean_report.tasks[0].attempts.size(), 1u);
  ASSERT_NE(clean.find("w 5 14"), std::string::npos);

  // Same session, but the worker's 10th ingest crashes hard. Attempt 0
  // inherits the armed spec through fork; the retry disarms it
  // (disarm_faults_on_retry) and resumes from the newest sealed slot.
  fault::arm("stream-ingest:crash_after=9");
  supervise::SupervisionReport crash_report;
  const std::string recovered =
      run_supervised_stream(scratch("crash.ckpt"), &crash_report);
  fault::disarm();

  ASSERT_TRUE(crash_report.all_ok());
  const auto& t = crash_report.tasks[0];
  EXPECT_TRUE(t.recovered());
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(t.attempts[0].exit_code, fault::kCrashExitCode);
  EXPECT_EQ(t.attempts[1].resumed, 1);

  EXPECT_EQ(recovered, clean)
      << "recovered posterior must be bit-identical to the uninterrupted run";
}

TEST(SupervisedStreaming, TornCheckpointWriteRecoversByteIdentical) {
  supervise::SupervisionReport clean_report;
  const std::string clean =
      run_supervised_stream(scratch("torn_clean.ckpt"), &clean_report);
  ASSERT_TRUE(clean_report.all_ok());

  // The worker's second checkpoint save tears mid-frame at the final
  // path and dies; the retry's resume_latest must step back past the
  // torn bytes to a sealed slot and still land on the same posterior.
  fault::arm("torn-write:at_byte=120,after=1");
  supervise::SupervisionReport torn_report;
  const std::string recovered =
      run_supervised_stream(scratch("torn.ckpt"), &torn_report);
  fault::disarm();

  ASSERT_TRUE(torn_report.all_ok());
  const auto& t = torn_report.tasks[0];
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(t.attempts[1].resumed, 1);
  EXPECT_EQ(recovered, clean);
}

TEST(SupervisedStreaming, HangIsStalledKilledAndRecovered) {
  fault::arm("stream-ingest:hang_after=9");
  api::CalibrationSession session = harness_session();
  const fs::path ckpt = scratch("hang.ckpt");
  fs::remove(fs::path(ckpt.string() + ".a"));
  fs::remove(fs::path(ckpt.string() + ".b"));
  api::StreamOptions options;
  options.checkpoint_every = 4;
  options.checkpoint_path = ckpt;
  auto sup = fast_options();
  sup.stall_timeout_seconds = 0.5;
  const auto report = session.supervised(options, sup);
  fault::disarm();

  ASSERT_TRUE(report.all_ok());
  const auto& t = report.tasks[0];
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kStall);
  EXPECT_EQ(t.attempts[1].resumed, 1);
}

TEST(SupervisedStreaming, RequiresDurableCheckpoints) {
  api::CalibrationSession session = harness_session();
  EXPECT_THROW(session.supervised(api::StreamOptions{}, fast_options()),
               std::invalid_argument);
}

// --- End-to-end: supervised sweep, values identical to run_all. -------------

api::ScenarioSweep harness_sweep() {
  api::ScenarioSweep sweep;
  sweep.add_scenario("paper-baseline")
      .add_simulator("seir-event")
      .with_windows({{20, 33}})
      .with_budget(24, 2, 48)
      .with_seed(7);
  return sweep;
}

TEST(SupervisedSweep, CrashedCellRecoversToRunAllValues) {
  const std::vector<api::SweepRun> baseline = harness_sweep().run_all();
  ASSERT_EQ(baseline.size(), 1u);
  ASSERT_TRUE(baseline[0].ok());

  fault::arm("window-boundary:crash_after=0");
  auto sup = fast_options();
  sup.stall_timeout_seconds = 60.0;
  const auto result = harness_sweep().run_supervised(sup);
  fault::disarm();

  ASSERT_TRUE(result.all_ok());
  ASSERT_EQ(result.runs.size(), 1u);
  ASSERT_EQ(result.report.tasks.size(), 1u);
  EXPECT_TRUE(result.report.tasks[0].recovered());
  ASSERT_TRUE(result.runs[0].ok());
  ASSERT_EQ(result.runs[0].windows.size(), 1u);
  EXPECT_EQ(bits(result.runs[0].windows[0].theta.mean),
            bits(baseline[0].windows[0].theta.mean));
  EXPECT_EQ(bits(result.runs[0].windows[0].rho.mean),
            bits(baseline[0].windows[0].rho.mean));
  EXPECT_EQ(bits(result.runs[0].diagnostics[0].log_marginal),
            bits(baseline[0].diagnostics[0].log_marginal));
}

TEST(SupervisedSweep, HungCellIsStalledKilledAndRecovered) {
  const std::vector<api::SweepRun> baseline = harness_sweep().run_all();
  ASSERT_TRUE(baseline[0].ok());

  fault::arm("window-boundary:hang_after=0");
  auto sup = fast_options();
  sup.stall_timeout_seconds = 0.5;
  const auto result = harness_sweep().run_supervised(sup);
  fault::disarm();

  ASSERT_TRUE(result.all_ok());
  const auto& t = result.report.tasks[0];
  ASSERT_EQ(t.attempts.size(), 2u);
  EXPECT_EQ(t.attempts[0].outcome, supervise::TaskOutcome::kStall);
  ASSERT_TRUE(result.runs[0].ok());
  EXPECT_EQ(bits(result.runs[0].windows[0].theta.mean),
            bits(baseline[0].windows[0].theta.mean));
}

TEST(SupervisedSweep, ExhaustedBudgetNamesTheCell) {
  fault::arm("window-boundary:crash_after=0");
  auto sup = fast_options();
  sup.max_retries = 1;
  sup.disarm_faults_on_retry = false;  // the fault recurs on every attempt
  const auto result = harness_sweep().run_supervised(sup);
  fault::disarm();

  EXPECT_FALSE(result.all_ok());
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_FALSE(result.runs[0].ok());
  EXPECT_NE(result.runs[0].error.find("retryable-crash"), std::string::npos)
      << result.runs[0].error;
  const auto* t = result.report.find("cell:paper-baseline/seir-event");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->attempts.size(), 2u);
}

}  // namespace
