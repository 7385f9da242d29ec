#include "supervise/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <deque>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fault/fault.hpp"
#include "parallel/parallel.hpp"
#include "random/seeding.hpp"

namespace epismc::supervise {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBackoffTag = 0x4241434B4F4646ull;  // "BACKOFF"

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Uniform in [0, 1) from one Philox draw, the engine's canonical mapping.
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Sidecar values travel one per line; strip the newlines a free-form
// exception message may carry.
std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

/// Parse the child's sidecar (`key=value` lines, last value per key
/// wins) into the attempt row. Missing or unreadable sidecars are fine:
/// a child that died before reporting simply has nothing to say.
void apply_sidecar(const std::filesystem::path& sidecar, TaskAttempt& row) {
  std::ifstream in(sidecar);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "note") {
      row.note = value;
    } else if (key == "resumed") {
      row.resumed = value == "1" ? 1 : 0;
    } else if (key == "generation") {
      try {
        row.recovered_generation = std::stoull(value);
      } catch (const std::exception&) {
        // Torn sidecar line; keep the default.
      }
    } else if (key == "fell_back") {
      row.fell_back = value == "1" ? 1 : 0;
    }
  }
}

}  // namespace

void TaskContext::beat() const noexcept {
  if (heartbeat_fd_ < 0) return;
  // Best-effort: a full pipe or a closed parent end must never take the
  // worker down (SIGPIPE is ignored in supervised children).
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(heartbeat_fd_, &byte, 1);
}

core::ProgressReporter TaskContext::progress() const {
  const int fd = heartbeat_fd_;
  return core::ProgressReporter{[fd]() {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }};
}

void TaskContext::append_sidecar(const std::string& key,
                                 const std::string& value) const {
  if (sidecar_.empty()) return;
  std::ofstream out(sidecar_, std::ios::app);
  if (!out) return;
  out << key << '=' << one_line(value) << '\n';
}

void TaskContext::report_recovery(const io::RecoveredSlot& slot) const {
  append_sidecar("resumed", "1");
  append_sidecar("generation", std::to_string(slot.generation));
  append_sidecar("fell_back", slot.fell_back ? "1" : "0");
  if (!slot.note.empty()) append_sidecar("note", slot.note);
}

void TaskContext::report_note(const std::string& note) const {
  append_sidecar("note", note);
}

TaskOutcome classify_exit(const ChildStatus& status, StopCause cause) noexcept {
  // The supervisor pulled the trigger: however the corpse looks (the
  // SIGKILL usually lands as a signal death), the diagnosis is the
  // missed liveness contract.
  if (cause != StopCause::kNone) return TaskOutcome::kStall;
  if (status.exited) {
    if (status.code == 0) return TaskOutcome::kOk;
    if (status.code == kRetryableExitCode) return TaskOutcome::kRetryableCrash;
    if (status.code == kCorruptCheckpointExitCode) {
      return TaskOutcome::kCorruptCheckpoint;
    }
    return TaskOutcome::kFatal;
  }
  if (status.signaled) return TaskOutcome::kRetryableCrash;
  return TaskOutcome::kFatal;  // waitpid reported neither; treat as broken
}

std::uint64_t task_stream_key(const std::string& name) noexcept {
  std::uint64_t key = 0x53555056ull;  // "SUPV"
  for (const unsigned char c : name) key = rng::hash_combine(key, c);
  return key;
}

double backoff_delay(std::uint64_t seed, std::uint64_t task_key,
                     std::uint32_t attempt, double base_seconds,
                     double max_seconds) {
  if (attempt == 0 || base_seconds <= 0.0) return 0.0;
  const double raw = std::min(
      max_seconds, base_seconds * std::ldexp(1.0, static_cast<int>(
                                                      std::min(attempt, 60u)) -
                                                      1));
  rng::PhiloxEngine engine =
      rng::make_engine(seed, {kBackoffTag, task_key, attempt});
  const double u = to_unit(engine());
  // Jitter to [raw/2, raw): retries of different tasks de-synchronize
  // without any schedule ever collapsing to zero.
  return raw * (0.5 + 0.5 * u);
}

std::vector<double> backoff_schedule(std::uint64_t seed,
                                     std::uint64_t task_key,
                                     std::uint32_t retries,
                                     double base_seconds,
                                     double max_seconds) {
  std::vector<double> schedule;
  schedule.reserve(retries);
  for (std::uint32_t k = 1; k <= retries; ++k) {
    schedule.push_back(
        backoff_delay(seed, task_key, k, base_seconds, max_seconds));
  }
  return schedule;
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {}

void Supervisor::add_task(SupervisedTask task) {
  if (task.name.empty()) {
    throw std::invalid_argument("Supervisor::add_task: task needs a name");
  }
  if (!task.body) {
    throw std::invalid_argument("Supervisor::add_task: task '" + task.name +
                                "' has no body");
  }
  tasks_.push_back(std::move(task));
}

SupervisionReport Supervisor::run_all() {
  SupervisionReport report;
  report.seed = options_.seed;
  report.max_retries = options_.max_retries;
  report.task_deadline_seconds = options_.task_deadline_seconds;
  report.stall_timeout_seconds = options_.stall_timeout_seconds;
  report.tasks.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    report.tasks[i].name = tasks_[i].name;
    report.tasks[i].kind = tasks_[i].kind;
  }
  if (tasks_.empty()) return report;

  // Scratch directory for the child->parent sidecar files.
  std::filesystem::path scratch = options_.scratch_dir;
  if (scratch.empty()) {
    scratch = options_.report_path.empty()
                  ? std::filesystem::temp_directory_path() /
                        ("epismc-supervise." + std::to_string(::getpid()))
                  : std::filesystem::path(options_.report_path.string() +
                                          ".scratch");
  }
  std::error_code scratch_ec;
  std::filesystem::create_directories(scratch, scratch_ec);

  const std::size_t max_concurrent =
      options_.max_concurrent > 0
          ? options_.max_concurrent
          : static_cast<std::size_t>(std::max(1, parallel::max_threads()));

  struct Pending {
    std::size_t index = 0;
    std::uint32_t attempt = 0;
    double backoff = 0.0;
    Clock::time_point ready;
  };
  struct Running {
    std::size_t index = 0;
    std::uint32_t attempt = 0;
    double backoff = 0.0;
    pid_t pid = -1;
    int heartbeat_fd = -1;
    Clock::time_point start;
    Clock::time_point last_beat;
    StopCause cause = StopCause::kNone;
    std::filesystem::path sidecar;
  };

  std::deque<Pending> pending;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    pending.push_back(Pending{i, 0, 0.0, t0});
  }
  std::vector<Running> running;
  std::vector<double> task_wall(tasks_.size(), 0.0);

  const auto spawn = [&](const Pending& p) -> Running {
    const SupervisedTask& task = tasks_[p.index];
    if (!task.checkpoint_base.empty()) {
      // A previously killed attempt may have leaked a save temp; collect
      // it before the next attempt writes its own.
      io::CheckpointRotation(task.checkpoint_base).gc_stale_temps();
    }
    Running r;
    r.index = p.index;
    r.attempt = p.attempt;
    r.backoff = p.backoff;
    r.sidecar = scratch / ("task" + std::to_string(p.index) + ".a" +
                           std::to_string(p.attempt) + ".meta");
    std::error_code rm_ec;
    std::filesystem::remove(r.sidecar, rm_ec);  // stale from a prior run

    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "Supervisor: pipe() failed");
    }
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

    // Join and discard pool workers so the child is born single-threaded
    // with no inherited lock state; both sides respawn lazily on their
    // next parallel_for. This is what lets the parent run parallel work
    // between spawns (the old restriction required it to stay serial).
    parallel::prepare_fork();

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::system_error(errno, std::generic_category(),
                              "Supervisor: fork() failed");
    }
    if (pid == 0) {
      // --- child ---
      ::close(fds[0]);
      std::signal(SIGPIPE, SIG_IGN);
      if (p.attempt > 0 && options_.disarm_faults_on_retry) fault::disarm();
      TaskContext ctx(fds[1], p.attempt, r.sidecar);
      int code = 0;
      try {
        code = task.body(ctx);
      } catch (const fault::FaultInjected& e) {
        ctx.report_note(e.what());
        code = kRetryableExitCode;
      } catch (const io::ArchiveError& e) {
        ctx.report_note(e.what());
        code = e.retryable() ? kRetryableExitCode : kCorruptCheckpointExitCode;
      } catch (const std::exception& e) {
        ctx.report_note(e.what());
        code = 1;
      }
      // _Exit: no atexit handlers, no flushed parent-inherited streams,
      // no ASan leak sweep over the COW heap -- the child's only legacy
      // is its exit code, its sidecar and its checkpoints.
      std::_Exit(code & 0xFF);
    }
    // --- parent ---
    ::close(fds[1]);
    r.pid = pid;
    r.heartbeat_fd = fds[0];
    r.start = Clock::now();
    r.last_beat = r.start;
    return r;
  };

  while (!pending.empty() || !running.empty()) {
    const Clock::time_point now = Clock::now();

    // Launch ready tasks into free slots, submission order preserved.
    for (auto it = pending.begin();
         it != pending.end() && running.size() < max_concurrent;) {
      if (it->ready <= now) {
        running.push_back(spawn(*it));
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    for (std::size_t ri = 0; ri < running.size();) {
      Running& r = running[ri];

      // Drain heartbeats.
      char buf[256];
      ssize_t n;
      while ((n = ::read(r.heartbeat_fd, buf, sizeof buf)) > 0) {
        r.last_beat = Clock::now();
      }

      // Enforce the liveness contract (once; the kill is not repeated).
      if (r.cause == StopCause::kNone) {
        const Clock::time_point check = Clock::now();
        if (options_.task_deadline_seconds > 0.0 &&
            seconds_between(r.start, check) > options_.task_deadline_seconds) {
          r.cause = StopCause::kDeadline;
        } else if (options_.stall_timeout_seconds > 0.0 &&
                   seconds_between(r.last_beat, check) >
                       options_.stall_timeout_seconds) {
          r.cause = StopCause::kStall;
        }
        if (r.cause != StopCause::kNone) ::kill(r.pid, SIGKILL);
      }

      int wstatus = 0;
      const pid_t reaped = ::waitpid(r.pid, &wstatus, WNOHANG);
      if (reaped != r.pid) {
        ++ri;
        continue;
      }

      // Final drain, then release the pipe.
      while (::read(r.heartbeat_fd, buf, sizeof buf) > 0) {
      }
      ::close(r.heartbeat_fd);

      ChildStatus status;
      if (WIFEXITED(wstatus)) {
        status.exited = true;
        status.code = WEXITSTATUS(wstatus);
      } else if (WIFSIGNALED(wstatus)) {
        status.signaled = true;
        status.signal = WTERMSIG(wstatus);
      }

      TaskAttempt row;
      row.attempt = r.attempt;
      row.outcome = classify_exit(status, r.cause);
      row.exit_code = status.exited ? status.code : -1;
      row.signal = status.signaled ? status.signal : 0;
      row.wall_seconds = seconds_between(r.start, Clock::now());
      row.backoff_seconds = r.backoff;
      apply_sidecar(r.sidecar, row);
      std::error_code rm_ec;
      std::filesystem::remove(r.sidecar, rm_ec);

      TaskReport& task_report = report.tasks[r.index];
      task_wall[r.index] += row.backoff_seconds + row.wall_seconds;
      const TaskOutcome outcome = row.outcome;
      task_report.attempts.push_back(std::move(row));
      task_report.outcome = outcome;
      task_report.wall_seconds = task_wall[r.index];

      if (is_retryable(outcome) && r.attempt < options_.max_retries) {
        const std::uint32_t next = r.attempt + 1;
        const double delay = backoff_delay(
            options_.seed, task_stream_key(tasks_[r.index].name), next,
            options_.backoff_base_seconds, options_.backoff_max_seconds);
        pending.push_back(
            Pending{r.index, next, delay,
                    Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(delay))});
      }

      running.erase(running.begin() + static_cast<std::ptrdiff_t>(ri));
      // Do not advance ri: the erase shifted the next entry into place.
    }

    if (!running.empty() || !pending.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::error_code cleanup_ec;
  std::filesystem::remove_all(scratch, cleanup_ec);

  // Pool observability for the operator: did the parent's parallel work
  // between spawns actually schedule (tasks/steals), and did the
  // teardown/respawn protocol keep the lane count bounded (peak_active)?
  {
    const parallel::PoolStats ps = parallel::pool_stats();
    if (ps.totals().tasks_run > 0) report.pool_stats = ps.summary();
  }

  if (!options_.report_path.empty()) {
    // The workers' fault matrix must not be able to shoot the scribe:
    // suppress any armed specs around the report save.
    fault::ScopedSuppress suppress;
    report.save(options_.report_path);
  }
  return report;
}

}  // namespace epismc::supervise
