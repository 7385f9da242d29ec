// Ablation: error-model choice. The paper states a Gaussian on sqrt-counts
// with sigma = 1; at late-epidemic count magnitudes (30k+/day) that
// tolerance is ~1% relative and the ensemble collapses (ESS -> 1). This
// bench quantifies the trade across error models on the *final* window of
// the sequential experiment -- the regime where the substitution note in
// EXPERIMENTS.md applies -- plus window 1 where all models behave.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"
#include "stats/descriptive.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 1200, 8, 2400);
  args.check_unused();

  const core::GroundTruth& truth = bench::paper_truth();

  struct Candidate {
    const char* name;
    double parameter;
  };
  const Candidate candidates[] = {
      {"gaussian-sqrt", 1.0},   // the paper's stated model
      {"gaussian-sqrt", 3.0},   // same family, relaxed
      {"nb-sqrt", 500.0},       // count-magnitude-aware (our default)
      {"poisson", 0.0},         // counting-noise-only
      {"gaussian-count", 2.0},  // raw-count overdispersed
  };

  std::cout << "=== Ablation: error model across the four-window sequential "
               "run ===\n\n";
  io::Table table({"likelihood", "param", "w1 theta err", "w1 ESS",
                   "w4 theta err", "w4 ESS", "w4 theta sd"});
  io::CsvWriter csv(budget.out_dir / "abl_likelihood.csv",
                    {"likelihood", "param", "w1_err", "w1_ess", "w4_err",
                     "w4_ess", "w4_sd"});

  for (const auto& cand : candidates) {
    core::CalibrationConfig config = bench::paper_calibration(budget, false);
    config.likelihood_name = cand.name;
    config.likelihood_parameter = cand.parameter;
    api::CalibrationSession cal = bench::paper_session(config);
    cal.run_all();

    const auto& w1 = cal.results().front();
    const auto& w4 = cal.results().back();
    const auto s1 = core::summarize_window(w1);
    const auto s4 = core::summarize_window(w4);
    table.add_row_values(
        cand.name, cand.parameter,
        io::Table::num(std::abs(s1.theta.mean - truth.theta_at(20)), 4),
        io::Table::num(w1.diag.ess, 1),
        io::Table::num(std::abs(s4.theta.mean - truth.theta_at(70)), 4),
        io::Table::num(w4.diag.ess, 1), io::Table::num(s4.theta.sd, 4));
    csv.row_values(cand.name, cand.parameter,
                   std::abs(s1.theta.mean - truth.theta_at(20)), w1.diag.ess,
                   std::abs(s4.theta.mean - truth.theta_at(70)), w4.diag.ess,
                   s4.theta.sd);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the paper's sigma = 1 stays accurate but "
               "degenerates (w4 ESS ~ 1,\nsd ~ 0); magnitude-aware models "
               "keep a usable ensemble at equal accuracy.\nWrote "
            << (budget.out_dir / "abl_likelihood.csv").string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
