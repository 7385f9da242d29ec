// Operator tool for durable checkpoint archives: print the seal and
// payload header of both rotation slots (or a single archive file)
// without loading the session itself.
//
//   checkpoint_inspect --path=stream.ckpt        # slots stream.ckpt.a/.b
//   checkpoint_inspect --path=run.bin --single   # one non-rotated archive
//
// For every file this reports existence, footer generation stamp, CRC32C
// verification, format version, payload size and the leading archive tag,
// plus which slot resume_latest would pick -- the same io::inspect_archive
// probe StreamingCalibrator uses for recovery. If a supervisor left its
// report next to the slots (BASE.supervision), the per-task attempt
// history is printed too. Exits 1 when no inspected archive is usable,
// 2 on a command-line mistake.

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "api/cli.hpp"
#include "io/checkpoint_rotation.hpp"
#include "io/table.hpp"
#include "supervise/report.hpp"

namespace {

void add_row(epismc::io::Table& table, const std::string& label,
             const epismc::io::SlotInfo& info) {
  if (!info.exists) {
    table.add_row_values(label, info.path.string(), "-", "-", "-", "-",
                         "missing");
    return;
  }
  table.add_row_values(
      label, info.path.string(), info.usable ? "ok" : "FAIL",
      std::to_string(info.generation),
      info.usable ? std::to_string(info.version) : "-",
      info.usable ? std::to_string(info.payload_bytes) : "-",
      info.usable ? (info.tag.empty() ? "(untagged)" : info.tag)
                  : info.error);
}

// A supervisor saves its report as BASE.supervision next to the slots;
// surface the per-task attempt history when one is there. A torn or
// foreign file is reported, never fatal -- this is a read-only probe.
void maybe_print_supervision(const std::string& base) {
  namespace fs = std::filesystem;
  using namespace epismc;
  const fs::path report_path = base + ".supervision";
  std::error_code ec;
  if (!fs::exists(report_path, ec)) return;
  std::cout << "\nSupervision report (" << report_path.string() << "):\n";
  try {
    const auto report = supervise::SupervisionReport::load(report_path);
    io::Table table({"task", "kind", "attempt", "outcome", "exit", "signal",
                     "resumed", "wall-s"});
    for (const auto& t : report.tasks) {
      for (const auto& a : t.attempts) {
        table.add_row_values(
            a.attempt == 0 ? t.name : "", a.attempt == 0 ? t.kind : "",
            std::to_string(a.attempt), supervise::to_string(a.outcome),
            a.exit_code < 0 ? "-" : std::to_string(a.exit_code),
            a.signal == 0 ? "-" : std::to_string(a.signal),
            a.resumed ? "gen " + std::to_string(a.recovered_generation) : "",
            io::Table::num(a.wall_seconds, 2));
      }
    }
    table.print(std::cout);
    std::cout << report.n_ok() << "/" << report.tasks.size() << " task(s) ok, "
              << report.n_recovered() << " recovered after retries\n";
  } catch (const std::exception& e) {
    std::cout << "  unreadable: " << e.what() << "\n";
  }
}

int run(const epismc::io::Args& args) {
  using namespace epismc;

  const std::string path = args.get_string("path", "");
  const bool single = args.get_flag("single");
  args.check_unused();
  if (path.empty()) {
    throw std::invalid_argument(
        "--path=BASE is required: a rotation base (inspects BASE.a and "
        "BASE.b), or with --single one sealed archive");
  }

  io::Table table(
      {"slot", "file", "seal", "generation", "version", "payload-bytes",
       "tag / error"});

  if (single) {
    const io::SlotInfo info = io::inspect_archive(path);
    add_row(table, "-", info);
    table.print(std::cout);
    maybe_print_supervision(path);
    return info.usable ? 0 : 1;
  }

  const io::CheckpointRotation rotation{path};
  const auto slots = rotation.inspect();
  add_row(table, "a", slots[0]);
  add_row(table, "b", slots[1]);
  table.print(std::cout);

  // What resume_latest would do with these slots.
  const auto ordered = rotation.by_recency();
  if (ordered[0].usable) {
    std::cout << "\nrecovery would restore " << ordered[0].path.string()
              << " (generation " << ordered[0].generation << ")\n";
  } else if (ordered[1].usable) {
    std::cout << "\nrecovery would FALL BACK to " << ordered[1].path.string()
              << " (generation " << ordered[1].generation
              << "); newest slot is unusable: " << ordered[0].error << "\n";
  } else if (ordered[0].exists || ordered[1].exists) {
    std::cout << "\nno usable slot -- recovery would fail\n";
    maybe_print_supervision(path);
    return 1;
  } else {
    std::cout << "\nno slots on disk -- a session here would start fresh\n";
  }
  maybe_print_supervision(path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
