// Ablation: importance sampling (paper Algorithm 1) vs particle marginal
// Metropolis-Hastings at a matched simulation budget. Both target the same
// window-1 posterior; IS is one embarrassingly parallel sweep, PMMH an
// inherently sequential chain whose only parallelism is across replicate
// likelihood estimates. The wall-clock column is the paper's HPC argument
// in one number.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/pmmh.hpp"
#include "parallel/parallel.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const auto budget_sims =
      static_cast<std::size_t>(args.get_int("budget", 12000));
  const auto out_dir =
      std::filesystem::path(args.get_string("out-dir", "bench_results"));
  api::apply_threads_flag(args);
  args.check_unused();
  std::filesystem::create_directories(out_dir);

  const core::GroundTruth& truth = bench::paper_truth();
  const std::unique_ptr<core::Simulator> simulator = api::simulators().create(
      "seir-event", bench::paper_preset().simulator_spec());
  const double theta_true = truth.theta_at(20);

  std::cout << "=== IS (Algorithm 1) vs PMMH at ~" << budget_sims
            << " simulations, window days 20-33 ===\n\n";

  io::Table table({"method", "theta mean", "theta sd", "abs err", "rho mean",
                   "sims", "wall (s)", "parallel"});
  io::CsvWriter csv(out_dir / "abl_pmmh.csv",
                    {"method", "theta_mean", "theta_sd", "abs_err",
                     "rho_mean", "sims", "wall_s"});

  // --- Importance sampling. ------------------------------------------------
  {
    core::CalibrationConfig config;
    config.windows = {{20, 33}};
    config.replicates = 10;
    config.n_params = budget_sims / config.replicates;
    config.resample_size = budget_sims / 4;
    api::CalibrationSession cal = bench::paper_session(config);
    parallel::Timer timer;
    const core::WindowResult& w = cal.run_next_window();
    const double wall = timer.seconds();
    const auto s = core::summarize_window(w);
    table.add_row_values("importance sampling", io::Table::num(s.theta.mean, 4),
                         io::Table::num(s.theta.sd, 4),
                         io::Table::num(std::abs(s.theta.mean - theta_true), 4),
                         io::Table::num(s.rho.mean, 3),
                         static_cast<std::int64_t>(w.diag.n_sims),
                         io::Table::num(wall, 2), "full sweep");
    csv.row_values("is", s.theta.mean, s.theta.sd,
                   std::abs(s.theta.mean - theta_true), s.rho.mean,
                   w.diag.n_sims, wall);
  }

  // --- PMMH at the same simulation budget. ---------------------------------
  {
    core::PmmhConfig config;
    config.replicates = 10;
    config.iterations = budget_sims / config.replicates - 1;
    config.burnin = config.iterations / 4;
    const auto lik = api::likelihoods().create("gaussian-sqrt", 1.0);
    const auto bias = api::bias_models().create("binomial");
    const epi::Checkpoint init = simulator->initial_state(0, 4321);
    parallel::Timer timer;
    const core::PmmhResult res =
        run_pmmh(*simulator, *lik, *bias, truth.observed(), init, config);
    const double wall = timer.seconds();
    table.add_row_values(
        "PMMH", io::Table::num(res.theta_mean(), 4),
        io::Table::num(res.theta_sd(), 4),
        io::Table::num(std::abs(res.theta_mean() - theta_true), 4),
        io::Table::num(res.rho_mean(), 3),
        static_cast<std::int64_t>(res.simulations_used),
        io::Table::num(wall, 2), "replicates only");
    csv.row_values("pmmh", res.theta_mean(), res.theta_sd(),
                   std::abs(res.theta_mean() - theta_true), res.rho_mean(),
                   res.simulations_used, wall);
    std::cout << "PMMH acceptance rate: "
              << io::Table::num(res.acceptance_rate, 3) << "\n\n";
  }

  table.print(std::cout);
  std::cout << "\nBoth methods target the same posterior; IS exposes the "
               "whole budget to the\nscheduler at once (the paper's HPC "
               "design point), PMMH serializes it.\nWrote "
            << (out_dir / "abl_pmmh.csv").string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
