// E12 / Ablation: replicate count and common random numbers (paper §V-B:
// "the same set of random seeds is employed to generate the 20 realizations
// ... to control variability between replicates"). Sweeps R at a fixed
// total trajectory budget and toggles CRN, plus the defensive-mixture
// fraction that guards against regime shifts.

#include <iostream>

#include "bench_common.hpp"
#include "stats/descriptive.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const auto total_budget =
      static_cast<std::size_t>(args.get_int("budget", 6400));
  const auto out_dir =
      std::filesystem::path(args.get_string("out-dir", "bench_results"));
  api::apply_threads_flag(args);
  args.check_unused();
  std::filesystem::create_directories(out_dir);

  const core::GroundTruth& truth = bench::paper_truth();
  const double theta_true = truth.theta_at(20);

  std::cout << "=== Ablation: replicates & common random numbers (fixed "
               "budget of "
            << total_budget << " trajectories, window days 20-33) ===\n\n";

  io::Table table({"R", "CRN", "n_params", "theta mean", "theta sd", "ESS",
                   "abs err"});
  io::CsvWriter csv(out_dir / "abl_replicates.csv",
                    {"replicates", "crn", "n_params", "theta_mean",
                     "theta_sd", "ess", "abs_error"});

  for (const std::size_t replicates : {1u, 5u, 10u, 20u}) {
    for (const bool crn : {true, false}) {
      core::CalibrationConfig config;
      config.windows = {{20, 33}};
      config.replicates = replicates;
      config.n_params = total_budget / replicates;
      config.resample_size = total_budget / 4;
      config.common_random_numbers = crn;
      api::CalibrationSession cal = bench::paper_session(config);
      const core::WindowResult& w = cal.run_next_window();
      const auto s = core::summarize_window(w);
      table.add_row_values(
          static_cast<std::int64_t>(replicates), crn ? "yes" : "no",
          static_cast<std::int64_t>(config.n_params),
          io::Table::num(s.theta.mean, 4), io::Table::num(s.theta.sd, 4),
          io::Table::num(w.diag.ess, 1),
          io::Table::num(std::abs(s.theta.mean - theta_true), 4));
      csv.row_values(replicates, crn ? 1 : 0, config.n_params, s.theta.mean,
                     s.theta.sd, w.diag.ess,
                     std::abs(s.theta.mean - theta_true));
    }
  }
  table.print(std::cout);

  // Defensive-fraction sweep on the regime-shift window (theta 0.25 -> 0.40
  // at day 62, the hardest jump in the paper's schedule).
  std::cout << "\nDefensive-mixture sweep across the day-62 regime shift "
               "(theta* jumps 0.25 -> 0.40):\n";
  io::Table def_table({"defensive fraction", "w4 theta mean", "w4 theta sd",
                       "abs err vs 0.40"});
  // 0.01 is the near-off cell: CalibrationConfig rejects a zero fraction
  // outright (a disabled defensive mixture leaves regime shifts beyond the
  // jitter width unreachable), so the sweep starts just above it.
  for (const double frac : {0.01, 0.05, 0.1, 0.2}) {
    core::CalibrationConfig config;
    config.windows = bench::paper_windows();
    config.n_params = total_budget / 8;
    config.replicates = 8;
    config.resample_size = total_budget / 4;
    config.defensive_fraction = frac;
    api::CalibrationSession cal = bench::paper_session(config);
    cal.run_all();
    const auto s = core::summarize_window(cal.results().back());
    def_table.add_row_values(io::Table::num(frac, 2),
                             io::Table::num(s.theta.mean, 4),
                             io::Table::num(s.theta.sd, 4),
                             io::Table::num(std::abs(s.theta.mean - 0.40), 4));
  }
  def_table.print(std::cout);
  std::cout << "\nWrote " << (out_dir / "abl_replicates.csv").string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
