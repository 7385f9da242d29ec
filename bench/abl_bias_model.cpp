// E11 / Ablation: the binomial reporting-bias model (paper §IV-A). The
// observed data are thinned with rho = 0.6; calibrating with the bias model
// should recover theta, while pretending reporting is perfect
// (IdentityBias) must bias theta downward -- the simulator then needs fewer
// true infections to match the under-reported counts. This is the paper's
// motivation for modeling the bias at all.

#include <iostream>

#include <cmath>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"
#include "stats/descriptive.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 800, 8, 1600);
  args.check_unused();

  const core::GroundTruth& truth = bench::paper_truth();
  const double theta_true = truth.theta_at(20);

  std::cout << "=== Ablation: reporting-bias model (window days 20-33, true "
               "rho = 0.6) ===\n\n";

  io::Table table({"bias model", "theta mean", "theta sd", "theta 90% CI",
                   "covers truth", "abs error"});
  io::CsvWriter csv(budget.out_dir / "abl_bias_model.csv",
                    {"bias", "theta_mean", "theta_sd", "ci_lo", "ci_hi",
                     "covers", "abs_error"});

  for (const std::string& bias :
       {std::string("binomial"), std::string("deterministic-thinning"),
        std::string("identity")}) {
    core::CalibrationConfig config = bench::paper_calibration(budget, false);
    config.windows = {{20, 33}};
    config.bias_name = bias;
    api::CalibrationSession cal = bench::paper_session(config);
    const core::WindowResult& w = cal.run_next_window();
    const auto s = core::summarize_window(w);
    const bool covers = s.theta.ci90.contains(theta_true);
    table.add_row_values(
        bias, io::Table::num(s.theta.mean, 4), io::Table::num(s.theta.sd, 4),
        "[" + io::Table::num(s.theta.ci90.lo) + ", " +
            io::Table::num(s.theta.ci90.hi) + "]",
        covers ? "yes" : "NO",
        io::Table::num(std::abs(s.theta.mean - theta_true), 4));
    csv.row_values(bias, s.theta.mean, s.theta.sd, s.theta.ci90.lo,
                   s.theta.ci90.hi, covers ? 1 : 0,
                   std::abs(s.theta.mean - theta_true));
  }

  table.print(std::cout);
  std::cout << "\nExpected shape: the binomial bias model recovers theta* = "
            << io::Table::num(theta_true)
            << "; identity (no bias correction) underestimates it because "
               "only ~60% of infections are reported.\n";
  std::cout << "Wrote " << (budget.out_dir / "abl_bias_model.csv").string()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
