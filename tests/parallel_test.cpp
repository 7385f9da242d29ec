// Threading layer: full index coverage, exactly-once execution, the
// determinism contract (identical results for any thread count AND any
// backend when loop bodies derive randomness from the index), exception
// aggregation, work-stealing pool scheduling (steal counters, hierarchical
// nesting, fork-then-reuse), and backend selection.
//
// This file is the payload of the ThreadSanitizer CI leg: it runs with
// -fsanitize=thread against the pool backend, so pool tests here double as
// race detectors for the Chase-Lev deques and the idle/wake protocol.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/scenario.hpp"
#include "parallel/parallel.hpp"
#include "random/distributions.hpp"
#include "random/seeding.hpp"

namespace {

using namespace epismc;

/// Restore the global thread budget after a test that resizes it.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : prev_(parallel::max_threads()) {
    parallel::set_threads(n);
  }
  ~ScopedThreads() { parallel::set_threads(prev_); }

 private:
  int prev_;
};

TEST(ParallelFor, EveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel::parallel_for(kN, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EveryIndexExactlyOnceOnPoolLanes) {
  ScopedThreads threads(8);
  parallel::ScopedBackend pool(parallel::PoolBackend::kPool);
  for (int rep = 0; rep < 20; ++rep) {
    constexpr std::size_t kN = 5000;
    std::vector<std::atomic<int>> hits(kN);
    parallel::parallel_for(
        kN, [&](std::size_t i) { hits[i]++; }, /*chunk=*/1);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " index " << i;
    }
  }
}

TEST(ParallelFor, EmptyAndSingle) {
  std::atomic<int> count{0};
  parallel::parallel_for(0, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel::parallel_for(1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, IndexDerivedRandomnessIsThreadCountInvariant) {
  constexpr std::size_t kN = 2000;
  const auto run_with = [&](int threads) {
    std::vector<double> out(kN);
    ScopedThreads scoped(threads);
    parallel::parallel_for(kN, [&](std::size_t i) {
      auto eng = rng::make_engine(123, {i});
      out[i] = rng::normal(eng) + static_cast<double>(rng::binomial(eng, 100, 0.3));
    });
    return out;
  };
  const auto serial = run_with(1);
  const auto two = run_with(2);
  const auto many = run_with(8);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, many);
}

TEST(ParallelFor, ResultsAreBackendInvariant) {
  constexpr std::size_t kN = 3000;
  const auto run_on = [&](parallel::PoolBackend be, int threads) {
    ScopedThreads scoped(threads);
    parallel::ScopedBackend backend(be);
    std::vector<double> out(kN);
    parallel::parallel_for(kN, [&](std::size_t i) {
      auto eng = rng::make_engine(99, {i});
      out[i] = rng::normal(eng);
    });
    return out;
  };
  const auto serial = run_on(parallel::PoolBackend::kSerial, 1);
  EXPECT_EQ(serial, run_on(parallel::PoolBackend::kPool, 4));
  EXPECT_EQ(serial, run_on(parallel::PoolBackend::kPool, 8));
}

TEST(ParallelFor, ChunkSizeDoesNotChangeResults) {
  constexpr std::size_t kN = 512;
  const auto run_chunk = [&](int chunk) {
    std::vector<std::uint64_t> out(kN);
    parallel::parallel_for(
        kN, [&](std::size_t i) { out[i] = rng::mix64(i); }, chunk);
    return out;
  };
  EXPECT_EQ(run_chunk(1), run_chunk(64));
}

TEST(ParallelFor, ExceptionAggregationAcrossBackends) {
  // Contract on every backend: body exceptions are captured per index,
  // the remaining iterations still run, one captured exception is
  // rethrown at the join point.
  for (const parallel::PoolBackend be :
       {parallel::PoolBackend::kSerial, parallel::PoolBackend::kPool}) {
    ScopedThreads threads(4);
    parallel::ScopedBackend backend(be);
    constexpr std::size_t kN = 512;
    std::vector<std::atomic<int>> ran(kN);
    bool caught = false;
    try {
      parallel::parallel_for(
          kN,
          [&](std::size_t i) {
            ran[i]++;
            if (i % 17 == 3) throw std::runtime_error("task failure");
          },
          /*chunk=*/1);
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "task failure");
    }
    EXPECT_TRUE(caught) << "backend " << parallel::backend_name(be);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(ran[i].load(), 1)
          << "backend " << parallel::backend_name(be) << " index " << i;
    }
  }
}

TEST(Backend, ParseAndNames) {
  EXPECT_EQ(parallel::parse_backend("serial"), parallel::PoolBackend::kSerial);
  EXPECT_EQ(parallel::parse_backend("pool"), parallel::PoolBackend::kPool);
  EXPECT_THROW((void)parallel::parse_backend("fibers"), std::invalid_argument);
  EXPECT_THROW((void)parallel::parse_backend(""), std::invalid_argument);

  EXPECT_STREQ(parallel::backend_name(parallel::PoolBackend::kSerial),
               "serial");
  EXPECT_STREQ(parallel::backend_name(parallel::PoolBackend::kPool), "pool");
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Backend, OmpIsRejectedNamingTheValidBackends) {
  const parallel::PoolBackend prev = parallel::backend();
  const std::string parse_error = invalid_argument_message(
      [] { (void)parallel::parse_backend("omp"); });
  EXPECT_NE(parse_error.find("serial|pool"), std::string::npos) << parse_error;
  const std::string set_error =
      invalid_argument_message([] { parallel::set_backend("omp"); });
  EXPECT_NE(set_error.find("serial|pool"), std::string::npos) << set_error;
  EXPECT_EQ(parallel::backend(), prev);
}

TEST(Backend, SerialBackendReportsOneThread) {
  parallel::ScopedBackend backend(parallel::PoolBackend::kSerial);
  EXPECT_EQ(parallel::max_threads(), 1);
  EXPECT_EQ(parallel::thread_id(), 0);
}

TEST(Threads, IntrospectionSane) {
  EXPECT_GE(parallel::max_threads(), 1);
  EXPECT_GE(parallel::thread_id(), 0);
}

TEST(Threads, ThreadIdStaysBelowMaxThreadsInsidePoolBodies) {
  ScopedThreads threads(4);
  parallel::ScopedBackend backend(parallel::PoolBackend::kPool);
  const int cap = parallel::max_threads();
  ASSERT_EQ(cap, 4);
  std::atomic<bool> ok{true};
  parallel::parallel_for(
      2000,
      [&](std::size_t) {
        const int id = parallel::thread_id();
        if (id < 0 || id >= cap) ok.store(false);
      },
      /*chunk=*/1);
  EXPECT_TRUE(ok.load());
}

TEST(DefaultChunk, TinyAndHugeCounts) {
  ScopedThreads threads(4);
  // The heuristic divides by max_threads(), which is backend-dependent
  // (serial reports 1); pin the pool backend so the expectations below
  // hold regardless of the ambient EPISMC_POOL.
  parallel::ScopedBackend backend(parallel::PoolBackend::kPool);
  // Tiny loops never round the chunk down to zero.
  EXPECT_EQ(parallel::default_chunk(0), 1);
  EXPECT_EQ(parallel::default_chunk(1), 1);
  EXPECT_EQ(parallel::default_chunk(15), 1);
  // A quarter of an even split per thread.
  const std::size_t per =
      static_cast<std::size_t>(4 * parallel::max_threads());
  EXPECT_EQ(parallel::default_chunk(16 * per), 16);
  EXPECT_EQ(static_cast<std::size_t>(parallel::default_chunk(1u << 24)),
            (1u << 24) / per);
  // Chunk extremes execute correctly: grain beyond the count degrades to
  // one inline chunk, grain 1 splits maximally.
  for (const int chunk : {1, 1 << 20}) {
    std::vector<std::atomic<int>> hits(100);
    parallel::parallel_for(
        100, [&](std::size_t i) { hits[i]++; }, chunk);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(TaskPool, StealCountersRecordRebalancing) {
  ScopedThreads threads(4);
  parallel::ScopedBackend backend(parallel::PoolBackend::kPool);
  constexpr std::size_t kN = 256;

  const parallel::LaneStats before = parallel::pool_stats().totals();

  // Index 0 parks until some other index has run. The submitter executes
  // chunks LIFO off its own deque, so if it hits index 0 first the only
  // way forward is a worker stealing one of the queued chunks -- this
  // forces at least one steal even on a single-core host.
  std::atomic<bool> other_ran{false};
  parallel::parallel_for(
      kN,
      [&](std::size_t i) {
        if (i == 0) {
          while (!other_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        } else {
          other_ran.store(true, std::memory_order_release);
        }
      },
      /*chunk=*/1);

  const parallel::LaneStats after = parallel::pool_stats().totals();
  EXPECT_EQ(after.iterations_run - before.iterations_run, kN);
  EXPECT_GT(after.tasks_run, before.tasks_run);
  EXPECT_GE(after.steals, before.steals + 1);

  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_EQ(stats.lanes, 4);
  EXPECT_FALSE(stats.summary().empty());
  EXPECT_NE(stats.summary().find("steals="), std::string::npos);
}

TEST(TaskPool, HierarchicalNestingStaysWithinLaneBudget) {
  ScopedThreads threads(4);
  parallel::ScopedBackend backend(parallel::PoolBackend::kPool);
  parallel::TaskPool::instance().reset_peak();

  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 128;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel::parallel_for(
      kOuter,
      [&](std::size_t outer) {
        // Nested submit: inner loops ride the same lanes as the outer.
        parallel::parallel_for(
            kInner,
            [&](std::size_t inner) { hits[outer * kInner + inner]++; },
            /*chunk=*/1);
      },
      /*chunk=*/1);

  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  const parallel::PoolStats stats = parallel::pool_stats();
  EXPECT_LE(stats.peak_active, stats.lanes)
      << "nesting oversubscribed the configured lanes";
  EXPECT_GE(stats.peak_active, 1);
}

TEST(TaskPool, ForkThenReuseOnBothSides) {
  ScopedThreads threads(4);
  parallel::ScopedBackend backend(parallel::PoolBackend::kPool);

  // Warm the pool so workers exist before the fork.
  std::atomic<long> warm{0};
  parallel::parallel_for(
      512, [&](std::size_t i) { warm.fetch_add(static_cast<long>(i)); },
      /*chunk=*/1);
  ASSERT_EQ(warm.load(), 512L * 511 / 2);

  parallel::prepare_fork();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the pool must respawn its own workers and run correctly.
    std::atomic<long> sum{0};
    parallel::parallel_for(
        1000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); },
        /*chunk=*/1);
    ::_exit(sum.load() == 1000L * 999 / 2 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child-side pool reuse failed";

  // Parent: lazily respawns too, results unchanged.
  std::atomic<long> sum{0};
  parallel::parallel_for(
      1000, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); },
      /*chunk=*/1);
  EXPECT_EQ(sum.load(), 1000L * 999 / 2);
}

TEST(Calibration, FullWindowBitIdenticalAcrossBackendsAndWorkerCounts) {
  // The end-to-end determinism gate: one calibration window's weights,
  // resampled ids and posterior draws must be bit-identical no matter
  // which backend ran the particle loops or how many workers it used.
  core::ScenarioConfig scenario;
  scenario.params.population = 200000;
  scenario.initial_exposed = 120;
  scenario.total_days = 40;
  scenario.theta_segments = {{0, 0.32}};
  scenario.rho_segments = {{0, 0.65}};
  const core::GroundTruth truth = core::simulate_ground_truth(scenario);

  api::SimulatorSpec spec;
  spec.params = scenario.params;
  spec.initial_exposed = scenario.initial_exposed;

  const auto run_on = [&](parallel::PoolBackend be, int threads) {
    ScopedThreads scoped(threads);
    parallel::ScopedBackend backend(be);
    api::CalibrationSession session;
    session.with_simulator("seir-event", spec)
        .with_data(truth.observed())
        .with_windows({{20, 33}})
        .with_budget(60, 2, 120)
        .with_seed(4242);
    session.run_all();
    return session;
  };

  api::CalibrationSession reference = run_on(parallel::PoolBackend::kSerial, 1);
  const core::WindowResult& ref = reference.results().back();
  ASSERT_FALSE(ref.weights.empty());

  struct Case {
    parallel::PoolBackend backend;
    int threads;
  };
  for (const Case c : {Case{parallel::PoolBackend::kPool, 1},
                       Case{parallel::PoolBackend::kPool, 4},
                       Case{parallel::PoolBackend::kPool, 8}}) {
    api::CalibrationSession session = run_on(c.backend, c.threads);
    const core::WindowResult& got = session.results().back();
    const std::string label = std::string(parallel::backend_name(c.backend)) +
                              "/" + std::to_string(c.threads);
    EXPECT_EQ(got.weights, ref.weights) << label;
    EXPECT_EQ(got.resampled, ref.resampled) << label;
    EXPECT_EQ(got.posterior_thetas(), ref.posterior_thetas()) << label;
    EXPECT_EQ(got.posterior_rhos(), ref.posterior_rhos()) << label;
  }
}

TEST(Timer, MeasuresElapsedTime) {
  parallel::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  const double s = t.seconds();
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 10.0);
  EXPECT_NEAR(t.milliseconds(), t.seconds() * 1000.0, 50.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
