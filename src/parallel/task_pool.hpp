#pragma once

// Persistent work-stealing task pool: the thread backend behind
// parallel::parallel_for (the default; EPISMC_POOL=serial bypasses it).
//
// Layout. The pool is a set of `lanes` execution lanes. Lane 0 is the
// submitting (external) thread; lanes 1..lanes-1 are worker threads,
// spawned lazily on the first run() that can use them. Every lane owns a
// bounded Chase-Lev deque: the owner pushes and pops at the bottom
// (LIFO, cache-warm), thieves steal from the top (FIFO, oldest first).
//
// Steal-half policy. A parallel_for submits ONE root descriptor covering
// [0, count). Whoever executes a descriptor splits it binarily while it
// is wider than the grain, pushing the upper half and keeping the lower:
// the oldest entry in any deque is therefore always the largest
// outstanding chunk -- roughly half the victim's remaining iterations --
// so one successful steal rebalances half the victim's work, without the
// multi-element-CAS hazards of stealing k entries at once.
//
// Hierarchical scheduling. run() is re-entrant: a worker executing an
// outer task (a ScenarioSweep cell) that submits an inner parallel_for
// pushes onto its *own* deque and helps until the inner loop drains, so
// both levels share one set of lanes -- nesting never oversubscribes the
// machine (peak_active in the stats proves it). While waiting, a lane
// steals whatever is available, including other runs' descriptors.
// External (non-lane) submitters serialize on a root mutex so lane 0 is
// never claimed by two OS threads at once -- which is what keeps the
// lane-id-indexed scratch workspaces in core/batch_runner.hpp race-free.
//
// Determinism. The pool decides only *where* a chunk executes, never
// what it computes: bodies receive the index alone, so results are
// bit-identical across 1/4/8/16 lanes and across the serial/pool
// backends (tests/parallel_test.cpp locks a full calibration window).
//
// Fork safety. prepare_fork() joins and discards every worker; parent
// and child then respawn lazily on their next run(). A fork that skipped
// prepare_fork is still survivable: the pool notices the pid change and
// abandons the inherited (nonexistent-in-the-child) thread handles
// rather than joining them. src/supervise/ calls prepare_fork() before
// every child spawn, so a parent may run parallel work between spawns.
//
// Memory model / TSan. top and bottom are seq_cst (the owner's
// pop-vs-steal arbitration needs a StoreLoad order that relaxed+fence
// idioms provide but ThreadSanitizer cannot model -- standalone fences
// are invisible to it); deque slots are relaxed atomics published by the
// bottom store. The deque is bounded: a push into a full deque simply
// stops splitting and runs the chunk inline, so slot reuse can never
// outrun the size <= capacity invariant the steal proof relies on.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace epismc::parallel {

/// Per-lane observability counters, sampled via TaskPool::stats().
struct LaneStats {
  std::uint64_t tasks_run = 0;        // descriptors executed
  std::uint64_t iterations_run = 0;   // loop indices executed
  std::uint64_t steals = 0;           // successful steals BY this lane
  std::uint64_t steal_failures = 0;   // full failed victim sweeps
  std::uint64_t idle_wakeups = 0;     // worker returns from idle sleep
};

/// Snapshot of the pool's observability state.
struct PoolStats {
  int lanes = 1;             // configured lane count (callers + workers)
  int spawned_workers = 0;   // worker threads currently alive
  int peak_active = 0;       // max lanes ever executing chunks at once
  std::vector<LaneStats> lane;  // one entry per lane, index == lane id

  [[nodiscard]] LaneStats totals() const noexcept;
  /// One-line "lanes=4 workers=3 peak=4 tasks=96 steals=17 ..." form for
  /// bench JSONs and the SupervisionReport.
  [[nodiscard]] std::string summary() const;
};

class TaskPool {
 public:
  /// Chunk executor: body over [begin, end). Must not throw -- the
  /// parallel_for trampoline catches per index and records the first
  /// exception itself.
  using RangeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// The process-wide pool (workers are a per-process resource).
  [[nodiscard]] static TaskPool& instance();

  /// Target lane count (>= 1). Takes effect lazily: live workers are
  /// torn down when the count changes and respawn on the next run().
  /// Not safe concurrently with run().
  void set_lanes(int n);
  [[nodiscard]] int lanes() const noexcept {
    return lanes_target_.load(std::memory_order_relaxed);
  }

  /// Execute fn over [0, count) with chunks no finer than grain,
  /// blocking until every index ran. Re-entrant from inside tasks
  /// (hierarchical submit); concurrent external callers serialize.
  void run(std::size_t count, std::size_t grain, RangeFn fn, void* ctx);

  /// Lane id of the calling thread while it executes pool work (or
  /// submits a run), -1 outside the pool. parallel::thread_id() builds
  /// on this; ids are always < lanes().
  [[nodiscard]] static int current_lane() noexcept;

  /// Join and discard all workers. Call in the parent before fork();
  /// both sides respawn lazily. Idempotent; not safe while a run() is
  /// in flight on another thread.
  void prepare_fork();

  /// Counter snapshot (monotonic since process start, except
  /// peak_active which reset_peak() rewinds).
  [[nodiscard]] PoolStats stats() const;
  void reset_peak() noexcept;

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

 private:
  TaskPool();

  struct Lane;
  struct Task {
    void* run = nullptr;  // RunState*
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void ensure_workers();
  void teardown_workers();
  void teardown_workers_locked();
  void worker_main(int lane_id);
  void execute(Lane& lane, const Task& task);
  /// One sweep over all other lanes; returns true with a stolen task.
  bool try_steal(int thief_lane, Task& out);
  void wake_one();
  void note_active(int delta) noexcept;

  std::vector<Lane*> lanes_;  // fixed per spawn generation; index == id
  std::atomic<int> lanes_target_;
  std::atomic<int> spawned_workers_{0};
  std::atomic<int> active_{0};
  std::atomic<int> peak_active_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> signal_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<long> spawn_pid_{0};

  // Serializes external submitters (lane 0 is single-occupancy) and
  // structural changes (spawn/teardown/resize).
  struct Sync;
  Sync* sync_;
};

}  // namespace epismc::parallel
