// Sequential multi-window calibration -- the paper's full workflow, as a
// configurable application on top of the epismc::api facade.
//
// Simulates a ground-truth epidemic with time-varying transmission theta(t)
// and reporting bias rho(t), then calibrates the model window by window
// against the reported data, carrying each window's posterior (parameters
// *and* checkpointed simulator states) into the next window's prior.
//
// Every component is selected by registry name:
//   sequential_calibration                          # defaults, 4 windows
//   sequential_calibration --use-deaths             # + death stream (eq. 4)
//   sequential_calibration --n-params=25000 --replicates=20  # paper scale
//   sequential_calibration --simulator=chain-binomial        # baseline engine
//   sequential_calibration --scenario=sharp-jump --jitter=wide
//   sequential_calibration --inference=tempered --ess-threshold=0.5
//       # adaptive: windows whose ESS collapses below 50% of n_sims
//       # re-score through a bisected likelihood^phi temper ladder
//   sequential_calibration --inference=tempered+rejuvenate \
//       --rejuvenation-moves=2 --smc-csv=smc_diagnostics.csv
//       # + independence-MH rejuvenation of the resampled duplicates,
//       # with the per-rung ESS/phi/acceptance trace dumped as CSV
//   sequential_calibration --threads=8 --list

#include <fstream>
#include <iostream>

#include "api/api.hpp"
#include "io/table.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;

  if (api::handle_list_flag(args, std::cout)) return 0;

  api::CalibrationSession session;
  api::CliDefaults defaults;
  defaults.likelihood = "nb-sqrt";
  defaults.likelihood_parameter = 500.0;
  api::configure_session_from_args(session, args, defaults);
  const std::string smc_csv = args.get_string("smc-csv", "");
  args.check_unused();

  const core::GroundTruth& truth = session.truth();
  const auto& cfg = session.config();
  std::cout << "Sequential SMC calibration: engine="
            << session.simulator().name()
            << ", data=" << (cfg.use_deaths ? "cases+deaths" : "cases")
            << ", " << cfg.n_params << " x " << cfg.replicates
            << " trajectories per window, inference="
            << core::to_string(cfg.inference);
  if (cfg.inference != core::InferenceStrategy::kSingleStage) {
    std::cout << " (ESS threshold " << cfg.ess_threshold << ")";
  }
  std::cout << "\n\n";

  io::Table table({"window", "theta truth", "theta posterior", "rho truth",
                   "rho posterior", "ESS", "log-evidence"});
  while (!session.finished()) {
    const core::WindowResult& w = session.run_next_window();
    const auto s = core::summarize_window(w);
    table.add_row_values(
        "days " + std::to_string(w.from_day) + "-" + std::to_string(w.to_day),
        truth.theta_at(w.from_day),
        io::Table::num(s.theta.mean) + " +/- " + io::Table::num(s.theta.sd),
        truth.rho_at(w.from_day),
        io::Table::num(s.rho.mean) + " +/- " + io::Table::num(s.rho.sd),
        io::Table::num(w.diag.ess, 1), io::Table::num(w.diag.log_marginal, 1));
    std::cout << "calibrated days " << w.from_day << "-" << w.to_day
              << " (ESS " << io::Table::num(w.diag.ess, 1) << ", "
              << w.diag.unique_resampled << " unique ancestors, "
              << io::Table::num(w.diag.propagate_seconds, 2) << "s)";
    if (w.smc.tempered()) {
      std::cout << " [tempered: " << w.smc.stages.size() << " rungs, ESS "
                << io::Table::num(w.smc.initial_ess, 1) << " -> "
                << io::Table::num(w.smc.final_ess, 1);
      if (w.smc.acceptance_rate() >= 0.0) {
        std::cout << ", move acceptance "
                  << io::Table::num(w.smc.acceptance_rate(), 3);
      }
      std::cout << "]";
    }
    std::cout << "\n";
  }

  if (!smc_csv.empty()) {
    std::ofstream csv(smc_csv);
    core::write_smc_diagnostics_csv(csv, session.results());
    if (!csv) {
      std::cerr << "\nFailed to write SMC diagnostics to " << smc_csv << "\n";
      return 1;
    }
    std::cout << "\nWrote SMC diagnostics to " << smc_csv << "\n";
  }

  std::cout << "\n";
  table.print(std::cout);

  // Posterior-median reconstruction of the unobserved true case curve.
  std::cout << "\nPosterior median of *true* (unobserved) cases per window "
               "vs actual truth:\n";
  io::Table recon({"window", "posterior median true cases (window total)",
                   "actual (window total)", "ratio"});
  for (const auto& w : session.results()) {
    const auto mid = w.posterior_quantile(
        core::WindowResult::Series::kTrueCases, 0.5);
    double post_total = 0.0;
    for (const double v : mid) post_total += v;
    double actual_total = 0.0;
    for (std::int32_t d = w.from_day; d <= w.to_day; ++d) {
      actual_total += truth.true_cases[static_cast<std::size_t>(d - 1)];
    }
    recon.add_row_values(
        "days " + std::to_string(w.from_day) + "-" + std::to_string(w.to_day),
        static_cast<std::int64_t>(post_total),
        static_cast<std::int64_t>(actual_total),
        io::Table::num(post_total / actual_total, 2));
  }
  recon.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
