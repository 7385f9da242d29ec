// Quickstart: the smallest end-to-end use of the epismc public API.
//
//   1. Pick a ground-truth scenario and a simulator backend by registry
//      name (the §V-A synthetic epidemic and the event-driven SEIR engine
//      by default).
//   2. Calibrate the first time window against the *reported* cases with
//      single-window importance sampling (paper Algorithm 1).
//   3. Print the recovered posterior for (theta, rho) next to the truth.
//
// Build & run:  ./build/examples/quickstart [--simulator=seir-event]
//               [--scenario=paper-baseline] [--likelihood=gaussian-sqrt]
//               [--n-params=N] [--replicates=R] [--threads=T] [--list]

#include <algorithm>
#include <iostream>

#include "api/api.hpp"
#include "io/table.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;

  if (api::handle_list_flag(args, std::cout)) return 0;

  api::CalibrationSession session;
  api::CliDefaults defaults;
  defaults.n_params = 400;
  defaults.replicates = 5;
  api::configure_session_from_args(session, args, defaults);
  // Quickstart only reads days 1-40: trim the truth horizon so the
  // smallest example never simulates the preset's unused later days.
  api::ScenarioPreset preset =
      api::scenarios().create(args.get_string("scenario", defaults.scenario));
  preset.scenario.total_days =
      std::min<std::int32_t>(preset.scenario.total_days, 40);
  session.with_scenario(std::move(preset));
  session.with_windows({{20, 33}});
  args.check_unused();

  // --- 1. Ground truth -----------------------------------------------------
  const core::GroundTruth& truth = session.truth();
  std::cout << "Synthetic epidemic (simulator " << session.simulator().name()
            << ", theta*=" << truth.theta_at(20)
            << ", rho*=" << truth.rho_at(20) << "):\n";
  io::Table head({"day", "true cases", "reported cases", "deaths",
                  "hospital census"});
  for (std::int32_t day = 5; day <= 40; day += 5) {
    const auto& rec = truth.trajectory.at_day(day);
    head.add_row_values(day, rec.new_infections,
                        static_cast<std::int64_t>(
                            truth.observed_cases[static_cast<std::size_t>(day - 1)]),
                        rec.new_deaths, rec.hospital_census);
  }
  head.print(std::cout);

  // --- 2. Calibrate window days 20-33 on reported cases --------------------
  const auto& cfg = session.config();
  std::cout << "\nCalibrating days 20-33 with " << cfg.n_params << " x "
            << cfg.replicates << " = " << cfg.n_params * cfg.replicates
            << " trajectories...\n";
  const core::WindowResult& window = session.run_next_window();
  const core::WindowPosteriorSummary posterior = session.posterior_summary(0);

  // --- 3. Report -----------------------------------------------------------
  io::Table out({"parameter", "truth", "posterior mean", "sd", "90% CI"});
  out.add_row_values(
      "theta (transmission)", truth.theta_at(20), posterior.theta.mean,
      posterior.theta.sd,
      "[" + io::Table::num(posterior.theta.ci90.lo) + ", " +
          io::Table::num(posterior.theta.ci90.hi) + "]");
  out.add_row_values(
      "rho (reporting)", truth.rho_at(20), posterior.rho.mean,
      posterior.rho.sd,
      "[" + io::Table::num(posterior.rho.ci90.lo) + ", " +
          io::Table::num(posterior.rho.ci90.hi) + "]");
  out.print(std::cout);

  std::cout << "\nDiagnostics: ESS=" << window.diag.ess << "/"
            << window.diag.n_sims
            << ", unique ancestors=" << window.diag.unique_resampled
            << ", propagation=" << io::Table::num(window.diag.propagate_seconds)
            << "s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
