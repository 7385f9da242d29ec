// E14 / Simulator-agnosticism (paper §VI): the same SMC core calibrates
// three different stochastic simulators -- the event-driven compartmental
// model, the memoryless chain-binomial baseline, and the agent-based model
// -- against data generated by each, with no changes to the calibration
// machinery. Reports posterior accuracy and the relative compute cost per
// trajectory (the paper: "the computational demands of ABMs will likely
// require better efficiency").

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 250));
  const auto out_dir =
      std::filesystem::path(args.get_string("out-dir", "bench_results"));
  api::apply_threads_flag(args);
  args.check_unused();
  std::filesystem::create_directories(out_dir);

  constexpr std::int64_t kAbmPopulation = 50000;
  constexpr std::int64_t kSeeded = 150;
  constexpr double kThetaTrue = 0.32;
  constexpr double kRhoTrue = 0.7;

  std::cout << "=== Simulator-agnosticism: one SMC core, three simulators "
               "(theta* = " << kThetaTrue << ", rho* = " << kRhoTrue
            << ", window days 20-33) ===\n\n";

  // One SimulatorSpec over a common small population so costs are
  // comparable; each backend comes out of the registry by name.
  api::SimulatorSpec spec;
  spec.params.population = kAbmPopulation;
  spec.initial_exposed = kSeeded;

  io::Table table({"simulator", "theta mean", "theta sd", "abs err",
                   "rho mean", "ESS", "window wall (s)", "us/trajectory"});
  io::CsvWriter csv(out_dir / "abl_abm_generality.csv",
                    {"simulator", "theta_mean", "theta_sd", "abs_err",
                     "rho_mean", "ess", "wall_s", "us_per_traj"});

  const auto calibrate = [&](const std::string& backend) {
    // Each simulator generates its own ground truth (same engine family as
    // the calibration model), thinned with rho = 0.7.
    const std::unique_ptr<core::Simulator> truth_sim =
        api::simulators().create(backend, spec);
    const epi::Checkpoint init = truth_sim->initial_state(0, 424242);
    core::WindowRun truth_run = truth_sim->run_window(
        init, kThetaTrue, 31415, 0, 40, /*want_checkpoint=*/false);
    auto thin_eng = rng::PhiloxEngine(2718, 1);
    std::vector<double> observed;
    for (const double v : truth_run.true_cases) {
      observed.push_back(static_cast<double>(
          rng::binomial(thin_eng, static_cast<std::int64_t>(v), kRhoTrue)));
    }

    core::CalibrationConfig config;
    config.windows = {{20, 33}};
    config.n_params = n_params;
    config.replicates = 6;
    config.resample_size = 2 * n_params;
    config.seed = 606;
    api::CalibrationSession cal;
    cal.with_simulator(backend, spec)
        .with_data(core::ObservedData(1, observed, {}))
        .with_config(config);
    parallel::Timer timer;
    const core::WindowResult& w = cal.run_next_window();
    const double wall = timer.seconds();
    const auto s = core::summarize_window(w);
    const double us_per_traj =
        w.diag.propagate_seconds * 1e6 / static_cast<double>(w.diag.n_sims) *
        parallel::max_threads();
    const std::string label = cal.simulator().name();
    table.add_row_values(label, io::Table::num(s.theta.mean, 4),
                         io::Table::num(s.theta.sd, 4),
                         io::Table::num(std::abs(s.theta.mean - kThetaTrue), 4),
                         io::Table::num(s.rho.mean, 3),
                         io::Table::num(w.diag.ess, 1), io::Table::num(wall, 2),
                         io::Table::num(us_per_traj, 0));
    csv.row_values(label, s.theta.mean, s.theta.sd,
                   std::abs(s.theta.mean - kThetaTrue), s.rho.mean, w.diag.ess,
                   wall, us_per_traj);
  };

  calibrate("seir-event");
  calibrate("chain-binomial");
  calibrate("abm");

  table.print(std::cout);
  std::cout << "\nAll three simulators run through the identical "
               "SequentialCalibrator; only the Simulator implementation "
               "differs.\nWrote "
            << (out_dir / "abl_abm_generality.csv").string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
