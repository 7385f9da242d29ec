// E8 / Table 1 (from the paper's HPC-concurrency claim): strong scaling of
// particle propagation. The SMC workload is embarrassingly parallel over
// (theta, s, rho) tuples; this bench fixes one window's workload and sweeps
// the thread count, reporting speedup and parallel efficiency. It also
// verifies that results are bit-identical across thread counts (the
// counter-based RNG contract). --pool=serial|pool selects the
// parallel_for engine the sweep runs on (default: the ambient backend, so
// EPISMC_POOL also works).

#include <iostream>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 600, 5, 1200);
  const std::vector<std::int64_t> thread_counts =
      args.get_int_list("threads", "1,2,4,8,16,24");
  api::apply_pool_flag(args);
  args.check_unused();

  (void)bench::paper_truth();  // simulate once, outside the timed loops

  const int hw = parallel::max_threads();

  std::cout << "=== Strong scaling: one calibration window, "
            << budget.n_params * budget.replicates
            << " trajectories x 14 days, hardware threads: " << hw
            << ", pool backend: "
            << parallel::backend_name(parallel::backend()) << " ===\n\n";

  core::CalibrationConfig config = bench::paper_calibration(budget, false);
  config.windows = {{20, 33}};

  double t1 = 0.0;
  std::vector<double> reference_thetas;
  io::Table table({"threads", "propagate (s)", "total (s)", "speedup",
                   "efficiency", "identical"});
  io::CsvWriter csv(budget.out_dir / "tab1_scaling.csv",
                    {"threads", "propagate_s", "total_s", "speedup",
                     "efficiency"});

  for (const int threads : thread_counts) {
    if (threads > hw) continue;
    parallel::set_threads(threads);
    api::CalibrationSession session = bench::paper_session(config);
    parallel::Timer timer;
    const core::WindowResult& w = session.run_next_window();
    const double total = timer.seconds();
    const double propagate = w.diag.propagate_seconds;
    if (reference_thetas.empty()) {
      t1 = propagate;
      reference_thetas = w.posterior_thetas();
    }
    const double speedup = t1 / propagate;
    const double efficiency = speedup / threads;
    const bool identical = w.posterior_thetas() == reference_thetas;
    table.add_row_values(threads, io::Table::num(propagate),
                         io::Table::num(total), io::Table::num(speedup, 2),
                         io::Table::num(efficiency, 2),
                         identical ? "yes" : "NO");
    csv.row_values(threads, propagate, total, speedup, efficiency);
  }
  parallel::set_threads(hw);

  table.print(std::cout);
  std::cout << "\n'identical' = posterior draws bit-identical to the 1-thread"
               " run (counter-based RNG contract).\n";
  std::cout << "Wrote " << (budget.out_dir / "tab1_scaling.csv").string()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
