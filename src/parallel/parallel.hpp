#pragma once

// Threading layer for the particle-parallel hot paths.
//
// The SMC workload is embarrassingly parallel over particles; these helpers
// keep the threading surface small and auditable: an indexed parallel_for
// over one of two interchangeable backends, thread introspection, and a
// scoped wall-clock timer for the scaling benches.
//
// Backends (PoolBackend):
//   pool    work-stealing TaskPool (task_pool.hpp) -- the default; lazy
//           worker spawn, hierarchical nesting, fork-safe via prepare_fork
//   serial  plain loop on the calling thread -- the reference
// Selection order: set_backend() > EPISMC_POOL env var > pool. The backend
// only decides WHERE iterations execute, never what they compute.
//
// Determinism contract: loop bodies receive only the index; any randomness
// must come from a stream derived from that index (see random/seeding.hpp),
// never from thread id. All library code follows this rule, which is what
// makes results bit-identical across thread counts AND across backends
// (tests/parallel_test.cpp pins a full calibration window to that claim).

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string>

#include "parallel/task_pool.hpp"

namespace epismc::parallel {

/// Which engine parallel_for routes through. Numeric values are stable
/// (they appear in bench JSON stamps via backend_name()).
enum class PoolBackend { kSerial = 0, kPool = 2 };

/// Current backend. First call resolves EPISMC_POOL (unknown values are
/// ignored in favor of pool).
[[nodiscard]] PoolBackend backend() noexcept;

void set_backend(PoolBackend b) noexcept;

/// Name form of set_backend: "serial" | "pool".
/// Throws std::invalid_argument on anything else.
void set_backend(const std::string& name);

/// Parse a backend name; throws std::invalid_argument on unknown names.
[[nodiscard]] PoolBackend parse_backend(const std::string& name);

/// Stable lower-case name for stamps and logs.
[[nodiscard]] const char* backend_name(PoolBackend b) noexcept;

/// Tear down pool workers so the process can fork safely; parent and
/// child respawn lazily on their next parallel_for. Harmless when no
/// workers are alive (serial backend, or pool never used).
void prepare_fork();

/// Observability snapshot of the work-stealing pool (zeros until the pool
/// backend has run something).
[[nodiscard]] inline PoolStats pool_stats() { return TaskPool::instance().stats(); }

/// How many lanes/threads a parallel_for may use under the current
/// backend. This is also the exclusive upper bound of thread_id(), which
/// is what sizes the per-thread scratch arrays in core/batch_runner.hpp.
[[nodiscard]] inline int max_threads() noexcept {
  return backend() == PoolBackend::kSerial ? 1 : TaskPool::instance().lanes();
}

/// Id of the calling thread inside a parallel_for body: the pool lane id
/// when running on the pool, else 0. Always in [0, max_threads()).
[[nodiscard]] inline int thread_id() noexcept {
  const int lane = TaskPool::current_lane();
  return lane >= 0 ? lane : 0;
}

/// Set the thread budget: the pool lane target (pool workers are torn
/// down and respawn lazily at the new width). Values < 1 are ignored.
inline void set_threads(int n) noexcept {
  if (n <= 0) return;
  TaskPool::instance().set_lanes(n);
}

/// Pool grain for a loop of `count` iterations: a quarter of an even split
/// per lane, clamped to at least 1. Small loops stay fine-grained enough
/// that every lane gets work; large loops amortize the scheduling overhead
/// instead of paying it every 16 iterations (the previous fixed default,
/// which penalized ensemble-sized counts).
[[nodiscard]] inline int default_chunk(std::size_t count) noexcept {
  const std::size_t per = count / (4 * static_cast<std::size_t>(max_threads()));
  return per < 1 ? 1 : static_cast<int>(per);
}

namespace detail {

/// Pool trampoline: per-index try/catch with first-exception capture, so
/// the pool itself never sees a throwing task (its RangeFn contract).
/// Remaining iterations still run; one of the captured exceptions is
/// rethrown at the join point.
template <typename Body>
void pool_for(std::size_t count, int chunk, Body& body) {
  struct Ctx {
    Body* body;
    std::mutex mu;
    std::exception_ptr first;
  } ctx{&body, {}, nullptr};
  const auto trampoline = +[](void* p, std::size_t begin, std::size_t end) {
    auto* c = static_cast<Ctx*>(p);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*c->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(c->mu);
        if (!c->first) c->first = std::current_exception();
      }
    }
  };
  const std::size_t grain = chunk <= 0 ? static_cast<std::size_t>(default_chunk(count))
                                       : static_cast<std::size_t>(chunk);
  TaskPool::instance().run(count, grain, trampoline, &ctx);
  if (ctx.first) std::rethrow_exception(ctx.first);
}

}  // namespace detail

/// Parallel loop over [0, count) on the selected backend. `body` must be thread-safe and index-deterministic (see header
/// comment). `chunk` <= 0 selects the default_chunk(count) heuristic.
///
/// Exception contract (identical across backends): body exceptions are
/// captured per index, remaining iterations still run, and the first
/// captured exception is rethrown at the join point. Which exception wins
/// under concurrent failures is unspecified, but these are terminal wiring
/// errors -- results never depend on it.
///
/// Nesting: under the pool backend a parallel_for issued from inside a
/// parallel_for body schedules hierarchically on the same lanes (no
/// oversubscription).
template <typename Body>
void parallel_for(std::size_t count, Body&& body, int chunk = 0) {
  const PoolBackend be = backend();
  // Serial fast path when only one thread would run: skips the parallel
  // machinery entirely, which also keeps single-threaded work safe inside
  // a freshly forked child before the pool notices the pid change. Same
  // exception contract as the pool path: capture per index, finish
  // the loop, rethrow the first.
  if (count <= 1 || be == PoolBackend::kSerial || max_threads() <= 1) {
    std::exception_ptr error = nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  detail::pool_for(count, chunk, body);
}

/// Scoped backend override for tests and benches; restores the previous
/// backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(PoolBackend b) : prev_(backend()) { set_backend(b); }
  ~ScopedBackend() { set_backend(prev_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  PoolBackend prev_;
};

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace epismc::parallel
