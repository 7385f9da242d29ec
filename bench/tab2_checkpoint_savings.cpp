// E9 / Table 2 (from the paper's §III-B checkpointing claim): restarting a
// calibration window from checkpointed states versus re-simulating every
// trajectory from day 0. Checkpointing makes window m cost O(window length)
// instead of O(t_m), so cumulative savings grow as the epidemic progresses.
// Also reports checkpoint byte sizes (the serialization overhead traded for
// that compute).

#include <iostream>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 400, 5, 800);
  args.check_unused();

  const std::size_t n_sims = budget.n_params * budget.replicates;
  std::cout << "=== Checkpoint-restart savings: " << n_sims
            << " trajectories per window ===\n\n";

  // Run the real sequential calibration (checkpointed restarts).
  const core::CalibrationConfig config =
      bench::paper_calibration(budget, false);
  api::CalibrationSession calibrator = bench::paper_session(config);
  const core::Simulator& simulator = calibrator.simulator();

  io::Table table({"window", "ckpt-restart (s)", "from-day-0 (s)", "speedup",
                   "sim-days saved", "ckpt bytes"});
  io::CsvWriter csv(budget.out_dir / "tab2_checkpoint_savings.csv",
                    {"window", "restart_s", "scratch_s", "speedup",
                     "days_saved", "ckpt_bytes"});

  double total_restart = 0.0;
  double total_scratch = 0.0;
  for (std::size_t m = 0; m < config.windows.size(); ++m) {
    const auto [from_day, to_day] = config.windows[m];

    parallel::Timer restart_timer;
    const core::WindowResult& w = calibrator.run_next_window();
    const double restart_s = restart_timer.seconds();

    // Counterfactual: simulate the same number of trajectories from day 0
    // through the window end (what a non-checkpointing pipeline pays).
    const epi::Checkpoint day0 = simulator.initial_state(0, 12345);
    parallel::Timer scratch_timer;
    parallel::parallel_for(n_sims, [&](std::size_t i) {
      (void)simulator.run_window(day0, 0.3 + 0.0001 * static_cast<double>(i % 100),
                                 99, i, to_day, false);
    });
    const double scratch_s = scratch_timer.seconds();

    const double window_days = to_day - from_day + 1;
    const double days_saved =
        static_cast<double>(n_sims) * (to_day - window_days);
    const std::size_t ckpt_bytes =
        w.state_count() == 0
            ? 0
            : w.state_pool->to_checkpoint(0).bytes.size();
    table.add_row_values(
        "days " + std::to_string(from_day) + "-" + std::to_string(to_day),
        io::Table::num(restart_s), io::Table::num(scratch_s),
        io::Table::num(scratch_s / restart_s, 2),
        static_cast<std::int64_t>(days_saved),
        static_cast<std::int64_t>(ckpt_bytes));
    csv.row_values(m + 1, restart_s, scratch_s, scratch_s / restart_s,
                   days_saved, ckpt_bytes);
    total_restart += restart_s;
    total_scratch += scratch_s;
  }

  table.print(std::cout);
  std::cout << "\nCumulative: " << io::Table::num(total_restart)
            << "s with checkpointing vs " << io::Table::num(total_scratch)
            << "s from scratch (" << io::Table::num(total_scratch / total_restart, 2)
            << "x). Savings grow with each additional window, exactly the\n"
               "operational argument of paper section III-B.\n";
  std::cout << "Wrote "
            << (budget.out_dir / "tab2_checkpoint_savings.csv").string()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
