// Online streaming calibration: the paper's windowed SMC, fed one day of
// surveillance at a time instead of whole windows.
//
// A long-lived StreamingCalibrator ingests observations as they "arrive"
// (here: replayed from a CSV or a synthetic scenario), advances the
// particle cloud incrementally, and emits each window's posterior the
// moment its last day lands -- with periodic checkpoints so an
// interrupted session resumes bit-exactly on another process:
//
//   streaming_calibration                            # scenario replay
//   streaming_calibration --data=observed.csv        # day,cases[,deaths]
//   streaming_calibration --checkpoint-every=7 \
//       --checkpoint-path=stream.ckpt                # archive weekly
//   streaming_calibration --stop-after=20 --checkpoint-path=stream.ckpt
//   streaming_calibration --resume-from=stream.ckpt  # pick up mid-window
//   streaming_calibration --checkpoint-every=7 \
//       --checkpoint-path=stream.ckpt --resume-latest
//       # crash recovery: restore the newest CRC-passing rotated slot
//       # (stream.ckpt.a / .b), falling back to the older on corruption
//   streaming_calibration --stream-csv=days.csv      # per-day diagnostics
//   streaming_calibration --inference=tempered --ess-threshold=0.6
//       # adaptive: resample the live cloud the day ESS collapses
//   streaming_calibration --supervise --checkpoint-every=4 \
//       --checkpoint-path=stream.ckpt --max-retries=2 --stall-timeout=10
//       # hands-off: the whole feed runs in a forked, heartbeat-monitored
//       # worker; crashes/hangs are killed, backed off and resumed from
//       # the newest CRC-passing slot (--report-csv=PATH dumps attempts)

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "fault/fault.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "stream/stream_state.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;

  if (api::handle_list_flag(args, std::cout)) return 0;

  api::CalibrationSession session;
  api::CliDefaults defaults;
  defaults.n_params = 400;
  defaults.replicates = 5;
  defaults.likelihood = "nb-sqrt";
  defaults.likelihood_parameter = 500.0;
  api::configure_session_from_args(session, args, defaults);

  // --checkpoint-path doubles as the automatic-checkpoint destination
  // (with --checkpoint-every) and the --stop-after archive target; only
  // the automatic mode requires both knobs.
  const std::string checkpoint_path = args.get_string("checkpoint-path", "");
  api::StreamOptions options;
  options.checkpoint_every = args.get_int("checkpoint-every", 0);
  if (options.checkpoint_every > 0) options.checkpoint_path = checkpoint_path;
  const std::string resume_from = args.get_string("resume-from", "");
  options.resume_latest = args.get_flag("resume-latest");
  if (options.resume_latest) options.checkpoint_path = checkpoint_path;
  const std::string data_csv = args.get_string("data", "");
  const std::string stream_csv = args.get_string("stream-csv", "");
  const auto stop_after = args.get_int("stop-after", 0);
  const api::SuperviseFlags sup_flags = api::query_supervise_flags(args);
  args.check_unused();

  // --- Supervised mode: the whole feed in a monitored worker. -------------
  if (sup_flags.enabled) {
    if (options.checkpoint_every <= 0 || checkpoint_path.empty()) {
      std::cerr << "--supervise needs --checkpoint-every=N and "
                   "--checkpoint-path=PATH (retries resume from the rotated "
                   "slots)\n";
      return 2;
    }
    if (!data_csv.empty()) {
      std::cerr << "--supervise replays the session's scenario feed; "
                   "--data is not supported here\n";
      return 2;
    }
    options.checkpoint_path = checkpoint_path;
    const supervise::SupervisionReport report =
        session.supervised(options, sup_flags.options);

    io::Table table({"task", "kind", "outcome", "attempts", "wall-s"});
    for (const auto& t : report.tasks) {
      table.add_row_values(t.name, t.kind, supervise::to_string(t.outcome),
                           std::to_string(t.attempts.size()),
                           io::Table::num(t.wall_seconds, 2));
    }
    std::cout << "Supervision report (" << report.n_ok() << "/"
              << report.tasks.size() << " ok, " << report.n_recovered()
              << " recovered):\n";
    table.print(std::cout);
    if (!sup_flags.report_csv.empty()) {
      std::ofstream out(sup_flags.report_csv);
      supervise::write_supervision_csv(out, report);
      std::cout << "Attempt log written to "
                << sup_flags.report_csv.string() << "\n";
    }
    if (!report.all_ok()) {
      std::cout << "FAILED: " << report.n_failed()
                << " task(s) exhausted the retry budget\n";
      return 1;
    }

    // Load the worker's final durable state and show what it computed.
    // Any EPISMC_FAULT matrix aimed at the worker is suppressed here: the
    // parent is bookkeeping, not the system under test.
    fault::ScopedSuppress suppress;
    api::StreamOptions load_options;
    load_options.checkpoint_every = options.checkpoint_every;
    load_options.checkpoint_path = checkpoint_path;
    load_options.resume_latest = true;
    stream::StreamingCalibrator calibrator = session.stream(load_options);
    if (!stream_csv.empty()) {
      std::ofstream out(stream_csv);
      stream::write_stream_day_csv(out, calibrator.day_records());
    }
    std::cout << "\nAll " << calibrator.history().size()
              << " windows assimilated.\n";
    return 0;
  }

  // --- The day feed: a CSV (day,cases[,deaths]) or the scenario truth. ----
  std::vector<stream::DailyObservation> feed;
  if (!data_csv.empty()) {
    const io::CsvTable table = io::read_csv(data_csv);
    const auto days = table.column_as_double("day");
    const auto cases = table.column_as_double("cases");
    std::vector<double> deaths;
    for (const auto& h : table.header) {
      if (h == "deaths") deaths = table.column_as_double("deaths");
    }
    for (std::size_t i = 0; i < days.size(); ++i) {
      if (days[i] != std::floor(days[i]) ||
          std::abs(days[i]) > std::numeric_limits<std::int32_t>::max()) {
        throw std::invalid_argument(
            "--data: line " + std::to_string(table.line_of(i)) +
            ": day must be a whole number, got '" +
            table.rows[i][table.column_index("day")] + "'");
      }
      stream::DailyObservation obs;
      obs.day = static_cast<std::int32_t>(days[i]);
      obs.cases = cases[i];
      if (!deaths.empty()) obs.deaths = deaths[i];
      feed.push_back(obs);
    }
  } else {
    const core::ObservedData& data = session.data();
    for (std::int32_t d = data.first_day(); d <= data.last_day(); ++d) {
      stream::DailyObservation obs;
      obs.day = d;
      obs.cases = data.cases_at(d);
      if (data.has_deaths()) obs.deaths = data.deaths_at(d);
      feed.push_back(obs);
    }
  }

  stream::StreamingCalibrator calibrator = session.stream(options);
  if (const auto& rec = calibrator.last_recovery()) {
    std::cout << "Recovered from " << rec->path.string() << " (generation "
              << rec->generation << (rec->fell_back ? ", after fallback: " : ": ")
              << rec->note << "): " << calibrator.windows_completed()
              << " window(s) done, next expected day "
              << calibrator.next_expected_day() << "\n";
  }
  if (!resume_from.empty()) {
    calibrator.load(resume_from);
    std::cout << "Resumed from " << resume_from << ": "
              << calibrator.windows_completed() << " window(s) done, next "
              << "expected day " << calibrator.next_expected_day() << "\n";
  }

  const auto& cfg = session.config();
  std::cout << "Streaming SMC calibration: engine="
            << session.simulator().name() << ", " << cfg.n_params << " x "
            << cfg.replicates << " trajectories, inference="
            << core::to_string(cfg.inference) << "\n\n";

  // --- Replay the feed day by day. ----------------------------------------
  io::Table table({"day", "window", "ESS", "resampled", "log-evidence"});
  std::int64_t assimilated = 0;
  for (const stream::DailyObservation& obs : feed) {
    if (calibrator.finished()) break;
    if (obs.day != calibrator.next_expected_day()) continue;  // resume skip
    const stream::StreamDayRecord& rec = calibrator.ingest(obs);
    table.add_row_values(rec.day, rec.window, io::Table::num(rec.ess, 1),
                         rec.resampled ? "yes" : "",
                         io::Table::num(rec.log_marginal, 3));
    ++assimilated;
    if (const std::size_t done = calibrator.windows_completed();
        done > 0 && calibrator.history().back().to_day == rec.day) {
      const auto& w = calibrator.history().back();
      std::cout << "window " << done << " [" << w.from_day << ", "
                << w.to_day << "] closed: theta "
                << io::Table::num(w.summary.theta.mean, 3) << " +- "
                << io::Table::num(w.summary.theta.sd, 3) << ", rho "
                << io::Table::num(w.summary.rho.mean, 3) << ", ESS "
                << io::Table::num(w.diag.ess, 1) << "\n";
    }
    if (stop_after > 0 && assimilated >= stop_after) {
      if (!checkpoint_path.empty()) {
        calibrator.save(checkpoint_path);
        std::cout << "\nStopped after " << assimilated
                  << " day(s); session archived to " << checkpoint_path
                  << " -- resume with --resume-from=" << checkpoint_path
                  << "\n";
      }
      break;
    }
  }
  std::cout << "\nPer-day assimilation:\n";
  table.print(std::cout);

  if (!stream_csv.empty()) {
    std::ofstream out(stream_csv);
    stream::write_stream_day_csv(out, calibrator.day_records());
    std::cout << "\nPer-day diagnostics written to " << stream_csv << "\n";
  }
  if (calibrator.finished()) {
    std::cout << "\nAll " << calibrator.history().size()
              << " windows assimilated.\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
