// Posterior-predictive forecasting and intervention assessment -- the
// decision-support loop the paper's discussion (§VI) motivates: "The
// trajectories produced from this SMC-based analysis can produce samples of
// plausible outcomes that allow direct, probabilistic assessment of
// different intervention strategies."
//
// Calibrates through day 75 via a CalibrationSession, then branches the
// posterior ensemble forward to day 100 under (a) status quo
// (session.forecast: each draw keeps its own theta) and (b) a
// transmission-reducing intervention from day 76
// (session.forecast_with_theta), and reports probabilistic outcome
// summaries for both.

#include <iostream>

#include "api/api.hpp"
#include "io/table.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  if (api::handle_list_flag(args, std::cout)) return 0;

  const auto draws = static_cast<std::size_t>(args.get_int("draws", 400));
  const double intervention_theta = args.get_double("intervention-theta", 0.15);

  // Calibrate all four windows on cases + deaths.
  api::CalibrationSession session;
  api::CliDefaults defaults;
  defaults.likelihood = "nb-sqrt";
  defaults.likelihood_parameter = 500.0;
  defaults.n_params = 800;
  defaults.replicates = 8;
  session.with_deaths(true);  // this example's default; --use-deaths=false overrides
  api::configure_session_from_args(session, args, defaults);
  args.check_unused();

  const core::GroundTruth& truth = session.truth();
  std::cout << "Calibrating days 20-75 ("
            << (session.config().use_deaths ? "cases + deaths" : "cases only")
            << ")...\n";
  session.run_all();
  const auto s = session.posterior_summary(session.results().size() - 1);
  std::cout << "Final-window posterior: theta = " << io::Table::num(s.theta.mean)
            << " +/- " << io::Table::num(s.theta.sd) << " (truth "
            << truth.theta_at(70) << ")\n\n";

  // Forecast day 76-100 under the posterior theta (status quo).
  std::cout << "Forecasting days 76-100 with " << draws
            << " posterior-predictive draws...\n";
  const core::Forecast status_quo = session.forecast(100, draws, /*seed=*/777);

  // Intervention branch: restart every posterior state with reduced theta.
  const core::Forecast intervention =
      session.forecast_with_theta(intervention_theta, 100, draws, /*seed=*/777);

  // Probabilistic outcome comparison.
  const auto summarize = [&](const core::Forecast& fc, const char* label,
                             io::Table& table) {
    std::vector<double> totals;
    std::vector<double> peak;
    std::vector<double> death_totals;
    for (std::size_t i = 0; i < fc.true_cases.size(); ++i) {
      double total = 0.0;
      double mx = 0.0;
      for (const double v : fc.true_cases[i]) {
        total += v;
        mx = std::max(mx, v);
      }
      double dt = 0.0;
      for (const double v : fc.deaths[i]) dt += v;
      totals.push_back(total);
      peak.push_back(mx);
      death_totals.push_back(dt);
    }
    const auto ci = stats::credible_interval(totals, 0.9);
    table.add_row_values(
        label, static_cast<std::int64_t>(stats::quantile(totals, 0.5)),
        "[" + io::Table::num(ci.lo, 0) + ", " + io::Table::num(ci.hi, 0) + "]",
        static_cast<std::int64_t>(stats::quantile(peak, 0.5)),
        static_cast<std::int64_t>(stats::quantile(death_totals, 0.5)));
    return stats::quantile(totals, 0.5);
  };

  io::Table table({"scenario", "median cases d76-100", "90% CI",
                   "median peak cases/day", "median deaths d76-100"});
  const double sq = summarize(status_quo, "status quo", table);
  const double iv = summarize(
      intervention,
      ("intervention (theta=" + io::Table::num(intervention_theta, 2) + ")")
          .c_str(),
      table);
  table.print(std::cout);
  std::cout << "\nMedian intervention effect: "
            << io::Table::num(100.0 * (1.0 - iv / sq), 1)
            << "% fewer infections over days 76-100.\n";

  // Forecast skill against the realized truth (status quo arm).
  std::vector<double> day90_ensemble;
  for (const auto& row : status_quo.true_cases) {
    day90_ensemble.push_back(row[90 - 76]);
  }
  const double actual_day90 = truth.true_cases[89];
  std::cout << "Forecast check at day 90 (status quo): CRPS = "
            << io::Table::num(
                   stats::crps_ensemble(day90_ensemble, actual_day90), 1)
            << ", actual = " << actual_day90 << ", forecast median = "
            << io::Table::num(stats::quantile(day90_ensemble, 0.5), 0)
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
