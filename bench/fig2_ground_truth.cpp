// E2 / Figure 2: the simulated ground truth. Reproduces the paper's
// log-scale plot of daily true cases, binomially thinned observed cases,
// and deaths over 100 days under the time-varying theta/rho schedules.

#include <iostream>

#include "bench_common.hpp"
#include "epi/reproduction.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const auto out_dir =
      std::filesystem::path(args.get_string("out-dir", "bench_results"));
  api::apply_threads_flag(args);
  args.check_unused();
  std::filesystem::create_directories(out_dir);

  const core::ScenarioConfig& scenario = bench::paper_preset().scenario;
  const core::GroundTruth& truth = bench::paper_truth();

  std::cout << "=== Figure 2: simulated ground truth (theta: 0.30/0.27/0.25/"
               "0.40 at days 0/34/48/62; rho: 0.60/0.70/0.85/0.80) ===\n\n";

  std::cout << "Daily counts, log scale ('#' true cases, 'o' observed "
               "cases):\n";
  std::cout << io::ascii_band_chart(truth.true_cases, truth.true_cases,
                                    truth.true_cases, truth.observed_cases,
                                    72, 16, /*log_scale=*/true);

  std::cout << "\nDeaths (linear scale):\n";
  std::cout << io::ascii_chart(truth.deaths, 72, 10, /*log_scale=*/false);

  io::Table table({"day", "theta*", "rho*", "true cases", "observed cases",
                   "deaths", "hosp census", "icu census"});
  for (std::int32_t day = 10; day <= 100; day += 10) {
    const auto i = static_cast<std::size_t>(day - 1);
    const auto& rec = truth.trajectory.at_day(day);
    table.add_row_values(day, truth.theta_at(day), truth.rho_at(day),
                         static_cast<std::int64_t>(truth.true_cases[i]),
                         static_cast<std::int64_t>(truth.observed_cases[i]),
                         static_cast<std::int64_t>(truth.deaths[i]),
                         rec.hospital_census, rec.icu_census);
  }
  std::cout << "\n";
  table.print(std::cout);

  // CSV artifact with the full series.
  io::CsvWriter csv(out_dir / "fig2_ground_truth.csv",
                    {"day", "theta", "rho", "true_cases", "observed_cases",
                     "deaths"});
  for (std::size_t i = 0; i < truth.true_cases.size(); ++i) {
    const auto day = static_cast<std::int32_t>(i) + 1;
    csv.row_values(day, truth.theta_at(day), truth.rho_at(day),
                   truth.true_cases[i], truth.observed_cases[i],
                   truth.deaths[i]);
  }
  std::cout << "\nWrote " << (out_dir / "fig2_ground_truth.csv").string()
            << "\n";

  // Shape checks the paper's figure exhibits: growth to day ~33, slower
  // growth/decline mid-epidemic, and a resurgence after day 62.
  const auto mean_over = [&](std::size_t a, std::size_t b) {
    double acc = 0.0;
    for (std::size_t i = a; i < b; ++i) acc += truth.true_cases[i];
    return acc / static_cast<double>(b - a);
  };
  const double early = mean_over(25, 34);
  const double mid = mean_over(50, 62);
  const double late = mean_over(85, 100);
  std::cout << "\nShape check: mean daily cases days 26-34: "
            << io::Table::num(early, 0) << ", days 51-62: "
            << io::Table::num(mid, 0) << ", days 86-100: "
            << io::Table::num(late, 0)
            << (late > mid ? "  [resurgence after day 62: OK]"
                           : "  [WARNING: no resurgence]")
            << "\n";

  // Reproduction numbers implied by the schedule (the quantity the
  // related-work estimates from data like these): analytic R_t next to the
  // incidence-only Cori estimator.
  const auto analytic =
      epi::instantaneous_rt(truth.trajectory, scenario.params, truth.theta);
  const auto cori = epi::cori_rt(
      truth.true_cases, epi::generation_interval_pmf(scenario.params), 7);
  std::cout << "\nReproduction numbers (analytic R_t vs Cori estimate from "
               "incidence):\n";
  io::Table rt_table({"day", "theta*", "R_t analytic", "R_t Cori"});
  for (const std::int32_t day : {25, 40, 55, 70, 90}) {
    const auto i = static_cast<std::size_t>(day - 1);
    rt_table.add_row_values(day, truth.theta_at(day),
                            io::Table::num(analytic[i], 2),
                            io::Table::num(cori[i], 2));
  }
  rt_table.print(std::cout);
  std::cout << "R0 at theta=0.30: "
            << io::Table::num(epi::basic_reproduction_number(scenario.params,
                                                             0.30), 2)
            << " (effective infectious duration "
            << io::Table::num(
                   epi::effective_infectious_duration(scenario.params), 1)
            << " days)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
