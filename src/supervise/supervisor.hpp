#pragma once

// Process-isolated supervised execution of calibration work units.
//
// The durability layer (PR 8) made crashes *survivable*: checkpoints are
// sealed and dual-slotted, resume_latest falls back past corruption. This
// layer makes them *hands-off*: each work unit (a scenario-sweep cell, a
// streaming session, any std::function) runs in a forked child so a
// crash, a wedge or a corrupted address space is contained to that task.
// Children report liveness through a heartbeat pipe the drivers beat via
// core::ProgressReporter at window/day boundaries; the supervisor
// enforces per-task deadlines and stall timeouts (SIGKILL on violation),
// classifies every exit through the TaskOutcome taxonomy, and retries
// retryable failures with deterministic exponential backoff + jitter
// (Philox-seeded, so schedules reproduce bit-for-bit) up to a budget.
// A task whose budget is exhausted fails *alone*: the rest of the fleet
// completes and the SupervisionReport names the casualty precisely.
//
// fork() without exec keeps the child a copy-on-write clone -- task
// bodies capture whatever state they need and the armed fault-injection
// specs are inherited, which is exactly what the recovery tests want.
// Threads vs fork: the supervisor calls parallel::prepare_fork() before
// every spawn, which joins and discards the work-stealing pool's workers;
// parent and child then respawn their own lazily on the next
// parallel_for, so the parent may run parallel work between spawns.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/progress.hpp"
#include "io/checkpoint_rotation.hpp"
#include "supervise/report.hpp"

namespace epismc::supervise {

/// Handed to the task body inside the forked child.
class TaskContext {
 public:
  /// Emit one heartbeat (a byte down the supervisor's pipe). Cheap,
  /// non-blocking, never throws; drivers call it through progress().
  void beat() const noexcept;

  /// Which attempt this is (0-based; >0 means a retry).
  [[nodiscard]] std::uint32_t attempt() const noexcept { return attempt_; }

  /// A ProgressReporter wired to beat() -- thread this through the
  /// calibrator so every window/day boundary refreshes liveness.
  [[nodiscard]] core::ProgressReporter progress() const;

  /// Record recovered-slot provenance for this attempt's report row
  /// (call after resume_latest succeeds).
  void report_recovery(const io::RecoveredSlot& slot) const;

  /// Attach a free-form note to this attempt's report row (exception
  /// text, degradation detail). Last call wins.
  void report_note(const std::string& note) const;

 private:
  friend class Supervisor;
  TaskContext(int heartbeat_fd, std::uint32_t attempt,
              std::filesystem::path sidecar)
      : heartbeat_fd_(heartbeat_fd),
        attempt_(attempt),
        sidecar_(std::move(sidecar)) {}

  void append_sidecar(const std::string& key, const std::string& value) const;

  int heartbeat_fd_;
  std::uint32_t attempt_;
  std::filesystem::path sidecar_;  // child -> parent metadata channel
};

/// One supervised work unit. The body runs in a forked child process: it
/// may crash, hang, or corrupt itself freely. Return 0 for success; throw
/// or return nonzero for failure (ArchiveError and FaultInjected map to
/// the taxonomy's retryable/corrupt exit codes automatically).
struct SupervisedTask {
  std::string name;
  std::string kind = "task";
  std::function<int(TaskContext&)> body;
  /// When set, the supervisor garbage-collects stale save temps around
  /// this rotation base before every attempt (a killed child leaks one
  /// `.tmp.<pid>.<n>` per interrupted save).
  std::filesystem::path checkpoint_base;
};

struct SupervisorOptions {
  /// Retries *after* the first attempt (budget 2 = up to 3 executions).
  std::uint32_t max_retries = 2;
  /// Hard per-attempt wall clock; 0 disables. Exceeding it is a kStall.
  double task_deadline_seconds = 0.0;
  /// Kill an attempt with no heartbeat for this long; 0 disables. The
  /// clock starts at spawn, so it also bounds time-to-first-beat.
  double stall_timeout_seconds = 0.0;
  /// Backoff before retry k (1-based): min(cap, base * 2^(k-1)),
  /// jittered to [0.5, 1.0) of itself by a Philox stream keyed on
  /// (seed, task name, k) -- reproducible, and de-synchronized across
  /// tasks.
  double backoff_base_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  std::uint64_t seed = 20240306;
  /// Concurrent children; 0 means parallel::max_threads().
  std::uint32_t max_concurrent = 0;
  /// Disarm inherited fault-injection specs in retry children (attempt
  /// > 0), modelling transient faults that do not recur. Exhausted-
  /// budget tests set this false to make every attempt fail.
  bool disarm_faults_on_retry = true;
  /// Where run_all saves the sealed SupervisionReport; empty skips.
  std::filesystem::path report_path;
  /// Directory for child->parent sidecar files; empty derives one from
  /// report_path or the system temp dir. Cleaned up by run_all.
  std::filesystem::path scratch_dir;
};

/// How one child ended, as waitpid saw it.
struct ChildStatus {
  bool exited = false;
  int code = 0;
  bool signaled = false;
  int signal = 0;
};

/// Why the supervisor stopped a child, if it did.
enum class StopCause : std::uint8_t { kNone, kStall, kDeadline };

/// Pure exit classification -- the whole taxonomy in one testable
/// function. Supervisor-initiated kills classify as kStall regardless of
/// how the corpse looks; otherwise exit 0 is kOk, the retryable exit
/// code (== fault crash code) and any signal death are kRetryableCrash,
/// the corrupt-checkpoint exit code is kCorruptCheckpoint, and any other
/// clean nonzero exit is kFatal.
[[nodiscard]] TaskOutcome classify_exit(const ChildStatus& status,
                                        StopCause cause) noexcept;

/// Philox stream key for a task name (order-sensitive fold, same scheme
/// as the sweep's scenario seeds).
[[nodiscard]] std::uint64_t task_stream_key(const std::string& name) noexcept;

/// Deterministic jittered backoff before retry `attempt` (1-based).
[[nodiscard]] double backoff_delay(std::uint64_t seed,
                                   std::uint64_t task_key,
                                   std::uint32_t attempt, double base_seconds,
                                   double max_seconds);

/// The full schedule for `retries` retries, for reproducibility tests
/// and operator docs.
[[nodiscard]] std::vector<double> backoff_schedule(std::uint64_t seed,
                                                   std::uint64_t task_key,
                                                   std::uint32_t retries,
                                                   double base_seconds,
                                                   double max_seconds);

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options = {});

  void add_task(SupervisedTask task);
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] const SupervisorOptions& options() const noexcept {
    return options_;
  }

  /// Run every task to completion or budget exhaustion. Never throws on
  /// task failure -- per-task outcomes live in the report (which is also
  /// saved to options().report_path when set, with fault injection
  /// suppressed around the save so an armed EPISMC_FAULT aimed at the
  /// workers cannot kill the bookkeeping).
  SupervisionReport run_all();

 private:
  SupervisorOptions options_;
  std::vector<SupervisedTask> tasks_;
};

}  // namespace epismc::supervise
