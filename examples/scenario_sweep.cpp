// ScenarioSweep: every named scenario preset crossed with multiple
// simulator backends in one invocation -- the facade's answer to the
// ROADMAP's "as many scenarios as you can imagine".
//
// Each (scenario, simulator) cell runs a full sequential calibration;
// cells execute in parallel on the pool and the sweep output is
// byte-identical regardless of --threads (counter-based RNG addressing,
// see parallel/parallel.hpp).
//
//   scenario_sweep                                  # 4 presets x 2 backends
//   scenario_sweep --scenarios=paper-baseline,abm-truth --simulators=abm
//   scenario_sweep --windows=2 --n-params=400 --threads=8
//   scenario_sweep --supervise --max-retries=2 --stall-timeout=10
//       # each cell in a forked, heartbeat-monitored worker: crashes and
//       # hangs are killed, backed off, retried; surviving cells report
//       # normally and the failed ones are named (--report-csv=PATH dumps
//       # the per-attempt log)

#include <fstream>
#include <iostream>

#include "api/api.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "parallel/parallel.hpp"

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  for (auto& tok : epismc::io::split_csv_line(csv)) {
    if (!tok.empty()) out.push_back(std::move(tok));
  }
  return out;
}

int run(const epismc::io::Args& args) {
  using namespace epismc;
  if (api::handle_list_flag(args, std::cout)) return 0;

  api::apply_threads_flag(args);

  const auto scenario_list = split_list(args.get_string(
      "scenarios",
      "paper-baseline,sharp-jump,low-reporting,chain-binomial-truth"));
  const auto simulator_list =
      split_list(args.get_string("simulators", "seir-event,chain-binomial"));
  const auto n_windows = static_cast<std::size_t>(args.get_int("windows", 4));
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 250));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 5));
  const auto resample = static_cast<std::size_t>(
      args.get_int("resample", static_cast<std::int64_t>(2 * n_params)));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20240306));
  const api::SuperviseFlags sup_flags = api::query_supervise_flags(args);
  args.check_unused();

  std::vector<std::pair<std::int32_t, std::int32_t>> windows(
      {{20, 33}, {34, 47}, {48, 61}, {62, 75}});
  windows.resize(std::min<std::size_t>(std::max<std::size_t>(n_windows, 1),
                                       windows.size()));

  api::ScenarioSweep sweep;
  sweep.add_scenarios(scenario_list)
      .add_simulators(simulator_list)
      .with_windows(windows)
      .with_budget(n_params, replicates, resample)
      .with_seed(seed);

  std::cout << "Sweeping " << scenario_list.size() << " scenarios x "
            << simulator_list.size() << " simulators = " << sweep.cell_count()
            << " calibration runs (" << windows.size() << " windows each, "
            << n_params * replicates << " trajectories per window) on "
            << parallel::max_threads() << " threads"
            << (sup_flags.enabled ? " (supervised workers)" : "")
            << "...\n\n";

  std::vector<api::SweepRun> runs;
  bool supervision_ok = true;
  if (sup_flags.enabled) {
    api::ScenarioSweep::SupervisedSweep result =
        sweep.run_supervised(sup_flags.options);
    supervision_ok = result.all_ok();
    runs = std::move(result.runs);

    io::Table sup_table({"task", "outcome", "attempts", "wall-s"});
    for (const auto& t : result.report.tasks) {
      sup_table.add_row_values(t.name, supervise::to_string(t.outcome),
                               std::to_string(t.attempts.size()),
                               io::Table::num(t.wall_seconds, 2));
    }
    std::cout << "Supervision report (" << result.report.n_ok() << "/"
              << result.report.tasks.size() << " ok, "
              << result.report.n_recovered() << " recovered):\n";
    sup_table.print(std::cout);
    if (!sup_flags.report_csv.empty()) {
      std::ofstream out(sup_flags.report_csv);
      supervise::write_supervision_csv(out, result.report);
      std::cout << "Attempt log written to " << sup_flags.report_csv.string()
                << "\n";
    }
    std::cout << "\n";
  } else {
    runs = sweep.run_all();
  }

  io::Table table({"scenario", "simulator", "window", "theta*", "theta mean",
                   "theta sd", "rho*", "rho mean", "ESS", "wall (s)"});
  for (const auto& run : runs) {
    if (!run.ok()) {
      std::cout << "CELL FAILED (" << run.scenario << " x " << run.simulator
                << "): " << run.error << "\n";
      continue;
    }
    for (std::size_t m = 0; m < run.windows.size(); ++m) {
      const auto& w = run.windows[m];
      table.add_row_values(
          m == 0 ? run.scenario : "", m == 0 ? run.simulator : "",
          "d" + std::to_string(w.from_day) + "-" + std::to_string(w.to_day),
          io::Table::num(run.truth_theta[m]), io::Table::num(w.theta.mean),
          io::Table::num(w.theta.sd), io::Table::num(run.truth_rho[m]),
          io::Table::num(w.rho.mean),
          io::Table::num(run.diagnostics[m].ess, 1),
          m == 0 ? io::Table::num(run.wall_seconds, 2) : "");
    }
  }
  table.print(std::cout);

  std::size_t failed = 0;
  for (const auto& run : runs) {
    if (!run.ok()) ++failed;
  }
  std::cout << "\n" << runs.size() - failed << "/" << runs.size()
            << " cells completed.\n";
  return failed == 0 && supervision_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
