// Ablation: what does process supervision cost, and what does recovery buy?
//
// Three arms over the same reduced scenario sweep (2 presets x 1 backend):
//
//   direct       ScenarioSweep::run_all() in-process -- the baseline;
//   supervised   run_supervised(): every cell forked, heartbeat-monitored,
//                cell results round-tripped through sealed archives. The
//                delta over direct is pure supervision overhead (fork +
//                pipe + archive), which --check gates at --max-overhead;
//   recovery     run_supervised() with EPISMC_FAULT crashing every cell's
//                first attempt at its first window boundary -- total cost
//                of detect + backoff + re-run, the price of a hands-off
//                retry versus losing the whole sweep.
//
//   ./abl_supervision [--n-params=48] [--replicates=2] [--repeats=3]
//                     [--check] [--max-overhead=1.5]
//                     [--out=BENCH_supervision.json] [--threads=N]

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "supervise/supervisor.hpp"

namespace {

using namespace epismc;

api::ScenarioSweep make_sweep(std::size_t n_params, std::size_t replicates) {
  api::ScenarioSweep sweep;
  sweep.add_scenarios({"paper-baseline", "sharp-jump"})
      .add_simulator("seir-event")
      .with_windows({{20, 33}, {34, 47}})
      .with_budget(n_params, replicates, 2 * n_params * replicates)
      .with_seed(20240306);
  return sweep;
}

double best_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.front();
}

int run(const epismc::io::Args& args) {
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 48));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const bool check = args.get_flag("check");
  const double max_overhead = args.get_double("max-overhead", 1.5);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_supervision.json");
  api::apply_threads_flag(args);
  args.check_unused();

  // Truths simulate once per arm construction; run them all through the
  // same process-wide scenario cache by building sweeps up front.
  supervise::SupervisorOptions sup;
  sup.stall_timeout_seconds = 60.0;

  std::vector<double> direct_s, supervised_s, recovery_s;
  std::size_t cells = 0;
  std::size_t recovery_attempts = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    {
      const api::ScenarioSweep sweep = make_sweep(n_params, replicates);
      parallel::Timer timer;
      const auto runs = sweep.run_all();
      direct_s.push_back(timer.seconds());
      cells = runs.size();
    }
    {
      const api::ScenarioSweep sweep = make_sweep(n_params, replicates);
      parallel::Timer timer;
      const auto result = sweep.run_supervised(sup);
      supervised_s.push_back(timer.seconds());
      if (!result.all_ok()) {
        std::cerr << "supervised arm failed a cell\n";
        return 1;
      }
    }
    {
      const api::ScenarioSweep sweep = make_sweep(n_params, replicates);
      fault::arm("window-boundary:crash_after=0");
      parallel::Timer timer;
      const auto result = sweep.run_supervised(sup);
      recovery_s.push_back(timer.seconds());
      fault::disarm();
      if (!result.all_ok()) {
        std::cerr << "recovery arm failed a cell\n";
        return 1;
      }
      recovery_attempts = 0;
      for (const auto& t : result.report.tasks) {
        recovery_attempts += t.attempts.size();
      }
    }
  }

  const double direct = best_of(direct_s);
  const double supervised = best_of(supervised_s);
  const double recovery = best_of(recovery_s);
  const double overhead = supervised / direct;

  io::Table table({"arm", "total s", "vs direct"});
  table.add_row_values("direct run_all", io::Table::num(direct, 3), "1.00x");
  table.add_row_values("supervised (no faults)", io::Table::num(supervised, 3),
                       io::Table::num(overhead, 3) + "x");
  table.add_row_values(
      "supervised + crash-every-cell", io::Table::num(recovery, 3),
      io::Table::num(recovery / direct, 3) + "x");
  std::cout << "Supervision-overhead ablation: " << cells << " cells, "
            << n_params << " x " << replicates
            << " trajectories, 2 windows each\n\n";
  table.print(std::cout);
  std::cout << "\nrecovery arm: " << recovery_attempts << " attempts across "
            << cells << " cells (every first attempt crashed and was "
            << "resumed)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-supervision-abl-v1\",\n"
      << "  \"generated_by\": \"bench/abl_supervision\",\n"
      << "  \"workload\": \"2-preset x 1-backend sweep, 2 windows per "
         "cell\",\n"
      << bench::json_build_stamp() << "  \"cells\": " << cells << ",\n"
      << "  \"n_sims\": " << n_params * replicates << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"direct_seconds\": " << direct << ",\n"
      << "  \"supervised_seconds\": " << supervised << ",\n"
      << "  \"recovery_seconds\": " << recovery << ",\n"
      << "  \"supervision_overhead_ratio\": " << overhead << ",\n"
      << "  \"recovery_vs_direct_ratio\": " << recovery / direct << ",\n"
      << "  \"recovery_attempts\": " << recovery_attempts << "\n"
      << "}\n";
  std::cout << "Wrote " << out_path.string() << "\n";

  if (check && overhead > max_overhead) {
    std::cerr << "CHECK FAILED: supervision overhead " << overhead
              << "x exceeds --max-overhead=" << max_overhead << "x\n";
    return 1;
  }
  if (check) {
    std::cout << "CHECK PASSED: supervision overhead " << overhead
              << "x <= " << max_overhead << "x\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
