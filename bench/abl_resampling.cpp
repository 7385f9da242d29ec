// E10 / Ablation: resampling scheme. Runs the same single-window
// calibration under multinomial, stratified, systematic and residual
// resampling and compares posterior quality (theta RMSE vs truth across
// replicate runs), unique-ancestor counts, and Monte-Carlo variance of the
// posterior mean. Expectation: systematic/stratified/residual show lower
// variance than multinomial at identical cost; systematic is the default.

#include <iostream>

#include <cmath>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"
#include "stats/descriptive.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 1500, 8, 3000);
  const auto repeats = static_cast<std::size_t>(args.get_int("repeats", 8));
  args.check_unused();

  const core::GroundTruth& truth = bench::paper_truth();
  const double theta_true = truth.theta_at(20);

  std::cout << "=== Ablation: resampling scheme (window days 20-33, "
            << repeats << " independent runs each) ===\n\n";

  io::Table table({"scheme", "mean theta-hat", "sd(theta-hat)",
                   "rmse vs truth", "mean uniq ancestors", "mean ESS"});
  io::CsvWriter csv(budget.out_dir / "abl_resampling.csv",
                    {"scheme", "mean_theta", "sd_theta", "rmse", "uniq",
                     "ess"});

  for (const auto scheme :
       {stats::ResamplingScheme::kMultinomial,
        stats::ResamplingScheme::kStratified,
        stats::ResamplingScheme::kSystematic,
        stats::ResamplingScheme::kResidual}) {
    std::vector<double> means;
    double uniq_acc = 0.0;
    double ess_acc = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      core::CalibrationConfig config = bench::paper_calibration(budget, false);
      config.windows = {{20, 33}};
      config.scheme = scheme;
      config.seed = 9000 + rep;  // new randomness each repeat
      api::CalibrationSession cal = bench::paper_session(config);
      const core::WindowResult& w = cal.run_next_window();
      means.push_back(stats::mean(w.posterior_thetas()));
      uniq_acc += static_cast<double>(w.diag.unique_resampled);
      ess_acc += w.diag.ess;
    }
    double rmse_acc = 0.0;
    for (const double m : means) {
      rmse_acc += (m - theta_true) * (m - theta_true);
    }
    const double rmse = std::sqrt(rmse_acc / static_cast<double>(repeats));
    const double sd = means.size() > 1 ? stats::std_dev(means) : 0.0;
    table.add_row_values(std::string(stats::to_string(scheme)),
                         io::Table::num(stats::mean(means), 4),
                         io::Table::num(sd, 4), io::Table::num(rmse, 4),
                         io::Table::num(uniq_acc / static_cast<double>(repeats), 1),
                         io::Table::num(ess_acc / static_cast<double>(repeats), 1));
    csv.row_values(stats::to_string(scheme), stats::mean(means), sd, rmse,
                   uniq_acc / static_cast<double>(repeats),
                   ess_acc / static_cast<double>(repeats));
  }

  table.print(std::cout);
  std::cout << "\nWrote " << (budget.out_dir / "abl_resampling.csv").string()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
