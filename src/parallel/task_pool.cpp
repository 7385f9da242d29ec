#include "parallel/task_pool.hpp"

#include <array>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "parallel/parallel.hpp"

namespace epismc::parallel {

namespace {

/// Shared state of one parallel_for while it drains. Lives on the
/// submitter's stack; thieves never touch it after their final
/// remaining.fetch_sub, and the submitter returns only once remaining
/// reaches zero (the acquire load synchronizes with the whole release
/// sequence of decrements), so the lifetime is airtight.
struct RunState {
  TaskPool::RangeFn fn;
  void* ctx;
  std::size_t grain;
  std::atomic<std::size_t> remaining;
};

/// Lane id of this OS thread while it participates in pool execution.
thread_local int tl_lane = -1;
/// Nested-execution depth: the active-lane gauge counts a lane once even
/// when an outer task is suspended on a nested parallel_for.
thread_local int tl_depth = 0;

constexpr std::size_t kDequeCapacity = 2048;  // power of two
constexpr std::size_t kDequeMask = kDequeCapacity - 1;

}  // namespace

/// Bounded Chase-Lev work-stealing deque plus this lane's counters and
/// (for lanes >= 1) its worker thread. top/bottom are seq_cst -- the
/// owner's pop needs StoreLoad ordering against thieves, and seq_cst on
/// the accesses themselves (rather than standalone fences) is the form
/// ThreadSanitizer models exactly. Slots are relaxed atomics published
/// by the bottom store and guarded by the top CAS.
struct TaskPool::Lane {
  struct Slot {
    std::atomic<void*> run{nullptr};
    std::atomic<std::size_t> begin{0};
    std::atomic<std::size_t> end{0};
  };

  alignas(64) std::atomic<std::int64_t> top{0};
  alignas(64) std::atomic<std::int64_t> bottom{0};
  std::array<Slot, kDequeCapacity> ring;

  alignas(64) std::atomic<std::uint64_t> tasks_run{0};
  std::atomic<std::uint64_t> iterations_run{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> steal_failures{0};
  std::atomic<std::uint64_t> idle_wakeups{0};

  std::thread thread;  // default-constructed (empty) for lane 0

  /// Owner-side push. Returns false when the deque is full -- the
  /// caller then stops splitting and runs the chunk inline, which is
  /// also what keeps size <= capacity (the invariant that makes slot
  /// reuse safe against in-flight steals: a slot is only overwritten
  /// once top has moved past it, and any thief still holding the old
  /// top value loses its CAS).
  bool push(const Task& t) {
    const std::int64_t b = bottom.load(std::memory_order_relaxed);
    const std::int64_t tp = top.load(std::memory_order_seq_cst);
    if (b - tp >= static_cast<std::int64_t>(kDequeCapacity)) return false;
    Slot& s = ring[static_cast<std::size_t>(b) & kDequeMask];
    s.run.store(t.run, std::memory_order_relaxed);
    s.begin.store(t.begin, std::memory_order_relaxed);
    s.end.store(t.end, std::memory_order_relaxed);
    bottom.store(b + 1, std::memory_order_seq_cst);  // publish
    return true;
  }

  /// Owner-side pop (LIFO end). Arbitration for the last element goes
  /// through the top CAS, same as a steal.
  bool pop(Task& out) {
    const std::int64_t b = bottom.load(std::memory_order_relaxed) - 1;
    bottom.store(b, std::memory_order_seq_cst);
    std::int64_t t = top.load(std::memory_order_seq_cst);
    if (t > b) {  // empty
      bottom.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    Slot& s = ring[static_cast<std::size_t>(b) & kDequeMask];
    out.run = s.run.load(std::memory_order_relaxed);
    out.begin = s.begin.load(std::memory_order_relaxed);
    out.end = s.end.load(std::memory_order_relaxed);
    if (t == b) {  // last element: race any thief for it
      const bool won = top.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Thief-side steal (FIFO end = the largest outstanding chunk).
  /// 1 = stolen, 0 = empty, -1 = lost the CAS race (worth retrying).
  int steal(Task& out) {
    std::int64_t t = top.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom.load(std::memory_order_seq_cst);
    if (t >= b) return 0;
    Slot& s = ring[static_cast<std::size_t>(t) & kDequeMask];
    out.run = s.run.load(std::memory_order_relaxed);
    out.begin = s.begin.load(std::memory_order_relaxed);
    out.end = s.end.load(std::memory_order_relaxed);
    if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
      return -1;  // raced; the values read may be stale -- discarded
    }
    return 1;
  }
};

struct TaskPool::Sync {
  std::mutex structure;  // spawn / teardown / resize / stats
  std::mutex root;       // single-occupancy of lane 0 by external callers
  std::mutex sleep;
  std::condition_variable cv;
  /// Folded counters of torn-down worker generations, by lane id, so
  /// stats() stays monotonic across resize/fork cycles.
  std::vector<LaneStats> retired;
};

LaneStats PoolStats::totals() const noexcept {
  LaneStats sum;
  for (const LaneStats& l : lane) {
    sum.tasks_run += l.tasks_run;
    sum.iterations_run += l.iterations_run;
    sum.steals += l.steals;
    sum.steal_failures += l.steal_failures;
    sum.idle_wakeups += l.idle_wakeups;
  }
  return sum;
}

std::string PoolStats::summary() const {
  const LaneStats t = totals();
  std::ostringstream os;
  os << "lanes=" << lanes << " workers=" << spawned_workers
     << " peak_active=" << peak_active << " tasks=" << t.tasks_run
     << " iterations=" << t.iterations_run << " steals=" << t.steals
     << " steal_failures=" << t.steal_failures
     << " idle_wakeups=" << t.idle_wakeups;
  return os.str();
}

TaskPool& TaskPool::instance() {
  static TaskPool pool;
  return pool;
}

TaskPool::TaskPool()
    : lanes_target_(static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()))),
      sync_(new Sync) {}

TaskPool::~TaskPool() {
  teardown_workers();
  delete sync_;
}

int TaskPool::current_lane() noexcept { return tl_lane; }

void TaskPool::set_lanes(int n) {
  if (n < 1) n = 1;
  if (n == lanes_target_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(sync_->structure);
  teardown_workers_locked();
  lanes_target_.store(n, std::memory_order_relaxed);
}

void TaskPool::prepare_fork() { teardown_workers(); }

void TaskPool::teardown_workers() {
  std::lock_guard<std::mutex> lock(sync_->structure);
  teardown_workers_locked();
}

void TaskPool::teardown_workers_locked() {
  if (lanes_.empty()) return;
  const bool same_process =
      spawn_pid_.load(std::memory_order_relaxed) ==
      static_cast<long>(::getpid());
  stop_.store(true, std::memory_order_seq_cst);
  if (same_process) {
    {
      std::lock_guard<std::mutex> sleep_lock(sync_->sleep);
      sync_->cv.notify_all();
    }
    for (Lane* l : lanes_) {
      if (l->thread.joinable()) l->thread.join();
    }
  }
  if (sync_->retired.size() < lanes_.size()) {
    sync_->retired.resize(lanes_.size());
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    LaneStats& r = sync_->retired[i];
    r.tasks_run += lanes_[i]->tasks_run.load(std::memory_order_relaxed);
    r.iterations_run +=
        lanes_[i]->iterations_run.load(std::memory_order_relaxed);
    r.steals += lanes_[i]->steals.load(std::memory_order_relaxed);
    r.steal_failures +=
        lanes_[i]->steal_failures.load(std::memory_order_relaxed);
    r.idle_wakeups += lanes_[i]->idle_wakeups.load(std::memory_order_relaxed);
    if (same_process) {
      delete lanes_[i];
    }
    // A fork that skipped prepare_fork left us thread handles for
    // pthreads that do not exist in this process: deliberately leak the
    // Lane (joining or destroying a joinable std::thread would abort).
  }
  lanes_.clear();
  spawned_workers_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_seq_cst);
}

void TaskPool::ensure_workers() {
  const int target = lanes_target_.load(std::memory_order_relaxed);
  const long pid = static_cast<long>(::getpid());
  if (static_cast<int>(lanes_.size()) == target &&
      spawn_pid_.load(std::memory_order_relaxed) == pid) {
    return;
  }
  std::lock_guard<std::mutex> lock(sync_->structure);
  if (static_cast<int>(lanes_.size()) == target &&
      spawn_pid_.load(std::memory_order_relaxed) == pid) {
    return;
  }
  teardown_workers_locked();  // stale generation (resize or fork)
  lanes_.reserve(static_cast<std::size_t>(target));
  for (int i = 0; i < target; ++i) lanes_.push_back(new Lane);
  spawn_pid_.store(pid, std::memory_order_relaxed);
  for (int i = 1; i < target; ++i) {
    lanes_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_main(i); });
  }
  spawned_workers_.store(target - 1, std::memory_order_relaxed);
}

void TaskPool::wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(sync_->sleep);
    sync_->cv.notify_one();
  }
}

void TaskPool::note_active(int delta) noexcept {
  if (delta > 0) {
    const int now = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = peak_active_.load(std::memory_order_relaxed);
    while (now > peak && !peak_active_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  } else {
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TaskPool::execute(Lane& lane, const Task& task) {
  RunState* rs = static_cast<RunState*>(task.run);
  std::size_t begin = task.begin;
  std::size_t end = task.end;
  // Binary split: push the upper half (which becomes the oldest --
  // biggest -- steal target) and keep the lower. A full deque stops the
  // splitting and runs the remainder inline.
  while (end - begin > rs->grain) {
    const std::size_t mid = begin + (end - begin) / 2;
    if (!lane.push(Task{rs, mid, end})) break;
    signal_epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake_one();
    end = mid;
  }
  if (++tl_depth == 1) note_active(+1);
  rs->fn(rs->ctx, begin, end);
  if (--tl_depth == 0) note_active(-1);
  lane.tasks_run.fetch_add(1, std::memory_order_relaxed);
  lane.iterations_run.fetch_add(end - begin, std::memory_order_relaxed);
  rs->remaining.fetch_sub(end - begin, std::memory_order_release);
}

bool TaskPool::try_steal(int thief_lane, Task& out) {
  const int n = static_cast<int>(lanes_.size());
  bool contended = true;
  for (int round = 0; round < 2 && contended; ++round) {
    contended = false;
    for (int k = 1; k < n; ++k) {
      Lane& victim = *lanes_[static_cast<std::size_t>((thief_lane + k) % n)];
      const int r = victim.steal(out);
      if (r == 1) {
        lanes_[static_cast<std::size_t>(thief_lane)]->steals.fetch_add(
            1, std::memory_order_relaxed);
        return true;
      }
      if (r == -1) contended = true;
    }
  }
  lanes_[static_cast<std::size_t>(thief_lane)]->steal_failures.fetch_add(
      1, std::memory_order_relaxed);
  return false;
}

void TaskPool::worker_main(int lane_id) {
  tl_lane = lane_id;
  Lane& me = *lanes_[static_cast<std::size_t>(lane_id)];
  Task task;
  int dry_sweeps = 0;
  while (!stop_.load(std::memory_order_seq_cst)) {
    if (me.pop(task) || try_steal(lane_id, task)) {
      execute(me, task);
      dry_sweeps = 0;
      continue;
    }
    // Idle backoff: a few yielding re-sweeps, then sleep until a push
    // signals (epoch check under the sleep mutex closes the lost-wakeup
    // window; the timeout is only insurance).
    if (++dry_sweeps < 4) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t epoch = signal_epoch_.load(std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(sync_->sleep);
      if (signal_epoch_.load(std::memory_order_seq_cst) == epoch &&
          !stop_.load(std::memory_order_seq_cst)) {
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        sync_->cv.wait_for(lock, std::chrono::milliseconds(50));
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        me.idle_wakeups.fetch_add(1, std::memory_order_relaxed);
      }
    }
    dry_sweeps = 0;
  }
  tl_lane = -1;
}

void TaskPool::run(std::size_t count, std::size_t grain, RangeFn fn,
                   void* ctx) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  RunState rs{fn, ctx, grain, {count}};

  const int target = lanes_target_.load(std::memory_order_relaxed);
  const int caller_lane = tl_lane;
  if (target <= 1 && caller_lane < 0) {
    // Degenerate single-lane pool, no workers to spawn: run inline.
    fn(ctx, 0, count);
    return;
  }

  ensure_workers();

  const bool external = caller_lane < 0;
  std::unique_lock<std::mutex> root_lock;
  if (external) {
    // Lane 0 is single-occupancy: concurrent external submitters
    // serialize here, which keeps thread_id() unique per in-flight run
    // (the scratch-workspace contract in core/batch_runner.hpp).
    root_lock = std::unique_lock<std::mutex>(sync_->root);
    tl_lane = 0;
  }
  const int my_lane = external ? 0 : caller_lane;
  Lane& lane = *lanes_[static_cast<std::size_t>(my_lane)];

  execute(lane, Task{&rs, 0, count});

  // Help until the run drains: own deque first (this run's splits),
  // then steal -- possibly chunks of other in-flight runs, which is
  // what lets two scheduling levels share one set of lanes.
  Task task;
  int idle_spins = 0;
  while (rs.remaining.load(std::memory_order_acquire) != 0) {
    if (lane.pop(task) || try_steal(my_lane, task)) {
      execute(lane, task);
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 16) {
      std::this_thread::yield();
    } else {
      // Everything left is in flight on other lanes; nap briefly
      // instead of burning the core they need.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  if (external) {
    tl_lane = -1;
  }
}

PoolStats TaskPool::stats() const {
  std::lock_guard<std::mutex> lock(sync_->structure);
  PoolStats out;
  out.lanes = lanes_target_.load(std::memory_order_relaxed);
  out.spawned_workers = spawned_workers_.load(std::memory_order_relaxed);
  out.peak_active = peak_active_.load(std::memory_order_relaxed);
  const std::size_t n =
      std::max(sync_->retired.size(),
               std::max(lanes_.size(), static_cast<std::size_t>(out.lanes)));
  out.lane.resize(n);
  for (std::size_t i = 0; i < sync_->retired.size(); ++i) {
    out.lane[i] = sync_->retired[i];
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    out.lane[i].tasks_run +=
        lanes_[i]->tasks_run.load(std::memory_order_relaxed);
    out.lane[i].iterations_run +=
        lanes_[i]->iterations_run.load(std::memory_order_relaxed);
    out.lane[i].steals += lanes_[i]->steals.load(std::memory_order_relaxed);
    out.lane[i].steal_failures +=
        lanes_[i]->steal_failures.load(std::memory_order_relaxed);
    out.lane[i].idle_wakeups +=
        lanes_[i]->idle_wakeups.load(std::memory_order_relaxed);
  }
  return out;
}

void TaskPool::reset_peak() noexcept {
  peak_active_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Backend selection (parallel.hpp's PoolBackend surface).
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_backend{-1};  // -1 = not resolved yet

PoolBackend resolve_initial_backend() noexcept {
  if (const char* env = std::getenv("EPISMC_POOL")) {
    try {
      return parse_backend(env);
    } catch (...) {
      // Lazy resolution must not throw from noexcept callers; unknown env
      // values keep the pool default.
    }
  }
  return PoolBackend::kPool;
}

}  // namespace

PoolBackend backend() noexcept {
  int v = g_backend.load(std::memory_order_acquire);
  if (v < 0) {
    const PoolBackend resolved = resolve_initial_backend();
    int expected = -1;
    if (g_backend.compare_exchange_strong(expected, static_cast<int>(resolved),
                                          std::memory_order_acq_rel)) {
      return resolved;
    }
    v = expected;  // another thread resolved first
  }
  return static_cast<PoolBackend>(v);
}

void set_backend(PoolBackend b) noexcept {
  g_backend.store(static_cast<int>(b), std::memory_order_release);
}

void set_backend(const std::string& name) { set_backend(parse_backend(name)); }

PoolBackend parse_backend(const std::string& name) {
  if (name == "serial") return PoolBackend::kSerial;
  if (name == "pool") return PoolBackend::kPool;
  throw std::invalid_argument("unknown pool backend '" + name +
                              "' (expected serial|pool)");
}

const char* backend_name(PoolBackend b) noexcept {
  switch (b) {
    case PoolBackend::kSerial:
      return "serial";
    case PoolBackend::kPool:
      return "pool";
  }
  return "serial";
}

void prepare_fork() { TaskPool::instance().prepare_fork(); }

}  // namespace epismc::parallel
