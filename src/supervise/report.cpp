#include "supervise/report.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

namespace epismc::supervise {

namespace {

constexpr std::uint8_t kOutcomeMax =
    static_cast<std::uint8_t>(TaskOutcome::kFatal);

TaskOutcome outcome_from_wire(std::uint8_t raw) {
  if (raw > kOutcomeMax) {
    throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                           "SupervisionReport: unknown TaskOutcome value " +
                               std::to_string(raw));
  }
  return static_cast<TaskOutcome>(raw);
}

// CSV notes may carry anything the child wrote (exception messages with
// commas included); quote when needed, RFC-4180 style.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string fmt_seconds(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace

const char* to_string(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kOk:
      return "ok";
    case TaskOutcome::kRetryableCrash:
      return "retryable-crash";
    case TaskOutcome::kStall:
      return "stall";
    case TaskOutcome::kCorruptCheckpoint:
      return "corrupt-checkpoint";
    case TaskOutcome::kFatal:
      return "fatal";
  }
  return "unknown";
}

bool SupervisionReport::all_ok() const noexcept {
  return std::all_of(tasks.begin(), tasks.end(),
                     [](const TaskReport& t) { return t.ok(); });
}

std::size_t SupervisionReport::n_ok() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      tasks.begin(), tasks.end(), [](const TaskReport& t) { return t.ok(); }));
}

std::size_t SupervisionReport::n_recovered() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(tasks.begin(), tasks.end(),
                    [](const TaskReport& t) { return t.recovered(); }));
}

std::size_t SupervisionReport::n_failed() const noexcept {
  return tasks.size() - n_ok();
}

const TaskReport* SupervisionReport::find(const std::string& name) const {
  const auto it =
      std::find_if(tasks.begin(), tasks.end(),
                   [&](const TaskReport& t) { return t.name == name; });
  return it == tasks.end() ? nullptr : &*it;
}

void SupervisionReport::serialize(io::BinaryWriter& out) const {
  out.write_string(kArchiveTag);
  out.write(seed);
  out.write(max_retries);
  out.write(task_deadline_seconds);
  out.write(stall_timeout_seconds);
  out.write(static_cast<std::uint64_t>(tasks.size()));
  for (const TaskReport& task : tasks) {
    out.write_string(task.name);
    out.write_string(task.kind);
    out.write(static_cast<std::uint8_t>(task.outcome));
    out.write(task.wall_seconds);
    out.write(static_cast<std::uint64_t>(task.attempts.size()));
    for (const TaskAttempt& a : task.attempts) {
      out.write(a.attempt);
      out.write(static_cast<std::uint8_t>(a.outcome));
      out.write(a.exit_code);
      out.write(a.signal);
      out.write(a.wall_seconds);
      out.write(a.backoff_seconds);
      out.write(a.resumed);
      out.write(a.recovered_generation);
      out.write(a.fell_back);
      out.write_string(a.note);
    }
  }
  out.write_string(pool_stats);  // v2
}

SupervisionReport SupervisionReport::deserialize(io::BinaryReader& in) {
  const std::string tag = in.read_string();
  if (tag != kArchiveTag) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kForeignTag,
        "SupervisionReport: archive tagged '" + tag + "', expected '" +
            std::string(kArchiveTag) + "'");
  }
  SupervisionReport report;
  report.seed = in.read<std::uint64_t>();
  report.max_retries = in.read<std::uint32_t>();
  report.task_deadline_seconds = in.read<double>();
  report.stall_timeout_seconds = in.read<double>();
  // Lower bounds per record, where every string costs at least its length
  // field. A task: name, kind, outcome, wall time, attempt count.
  const std::size_t n_tasks = in.read_count(
      2 * sizeof(std::uint64_t) + 1 + sizeof(double) + sizeof(std::uint64_t));
  report.tasks.reserve(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    TaskReport task;
    task.name = in.read_string();
    task.kind = in.read_string();
    task.outcome = outcome_from_wire(in.read<std::uint8_t>());
    task.wall_seconds = in.read<double>();
    // An attempt: index, outcome, exit code, signal, wall and backoff
    // times, resumed, recovered generation, fell_back, note.
    const std::size_t n_attempts = in.read_count(
        sizeof(std::uint32_t) + 3 + 2 * sizeof(std::int32_t) +
        2 * sizeof(double) + 2 * sizeof(std::uint64_t));
    task.attempts.reserve(n_attempts);
    for (std::size_t a = 0; a < n_attempts; ++a) {
      TaskAttempt attempt;
      attempt.attempt = in.read<std::uint32_t>();
      attempt.outcome = outcome_from_wire(in.read<std::uint8_t>());
      attempt.exit_code = in.read<std::int32_t>();
      attempt.signal = in.read<std::int32_t>();
      attempt.wall_seconds = in.read<double>();
      attempt.backoff_seconds = in.read<double>();
      attempt.resumed = in.read<std::uint8_t>();
      attempt.recovered_generation = in.read<std::uint64_t>();
      attempt.fell_back = in.read<std::uint8_t>();
      attempt.note = in.read_string();
      task.attempts.push_back(std::move(attempt));
    }
    report.tasks.push_back(std::move(task));
  }
  if (in.version() >= 2) {
    report.pool_stats = in.read_string();
  }
  return report;
}

void SupervisionReport::save(const std::filesystem::path& path) const {
  io::BinaryWriter out(kArchiveVersion);
  serialize(out);
  out.save(path);
}

SupervisionReport SupervisionReport::load(const std::filesystem::path& path) {
  io::BinaryReader in = io::BinaryReader::load(path);
  if (in.version() < 1 || in.version() > kArchiveVersion) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kVersion,
        "SupervisionReport: archive version " + std::to_string(in.version()) +
            ", this build reads versions 1.." +
            std::to_string(kArchiveVersion));
  }
  return deserialize(in);
}

void write_supervision_csv(std::ostream& os, const SupervisionReport& report) {
  os << "task,kind,attempt,outcome,exit_code,signal,wall_seconds,"
        "backoff_seconds,resumed,generation,fell_back,note\n";
  for (const TaskReport& task : report.tasks) {
    for (const TaskAttempt& a : task.attempts) {
      os << csv_field(task.name) << ',' << csv_field(task.kind) << ','
         << a.attempt << ',' << to_string(a.outcome) << ',' << a.exit_code
         << ',' << a.signal << ',' << fmt_seconds(a.wall_seconds) << ','
         << fmt_seconds(a.backoff_seconds) << ','
         << static_cast<int>(a.resumed) << ',' << a.recovered_generation
         << ',' << static_cast<int>(a.fell_back) << ',' << csv_field(a.note)
         << '\n';
    }
  }
}

}  // namespace epismc::supervise
