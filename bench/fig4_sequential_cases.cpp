// E4 + E5 / Figures 4 and 5: sequential calibration across four windows.
// Panel (a): posterior credible ribbons over reported and true (unobserved)
// case counts -- and, for Figure 5, deaths -- stitched across windows.
// Panel (b): joint (theta, rho) posterior per window, summarized by 2-D
// KDE mode, truth-box mass and HPD levels.
//
// This translation unit is built twice: as fig4_sequential_cases
// (cases-only likelihood) and, with EPISMC_WITH_DEATHS defined, as
// fig5_sequential_cases_deaths (composite cases + deaths likelihood,
// paper eq. 4).

#include <iostream>

#include <cmath>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args);
#ifdef EPISMC_WITH_DEATHS
  const bool use_deaths = !args.get_flag("no-deaths");
#else
  const bool use_deaths = args.get_flag("use-deaths");
#endif
  args.check_unused();

  const core::GroundTruth& truth = bench::paper_truth();
  const core::CalibrationConfig config =
      bench::paper_calibration(budget, use_deaths);

  std::cout << "=== Figure " << (use_deaths ? "5" : "4")
            << ": sequential calibration, 4 windows (days 20-75), "
            << (use_deaths ? "cases + deaths" : "cases only") << ", "
            << budget.n_params * budget.replicates
            << " trajectories/window ===\n\n";

  api::CalibrationSession calibrator = bench::paper_session(config);
  parallel::Timer total;
  calibrator.run_all();
  const double wall = total.seconds();

  // --- Panel (a): stitched credible ribbons. ------------------------------
  const auto stitched = [&](core::WindowResult::Series series, double level) {
    core::Ribbon out;
    for (const auto& w : calibrator.results()) {
      const core::Ribbon r = core::posterior_ribbon(w, series, level);
      out.lo.insert(out.lo.end(), r.lo.begin(), r.lo.end());
      out.mid.insert(out.mid.end(), r.mid.begin(), r.mid.end());
      out.hi.insert(out.hi.end(), r.hi.begin(), r.hi.end());
    }
    return out;
  };

  const auto observed = truth.observed().cases_window(20, 75);
  std::vector<double> true_cases_window(truth.true_cases.begin() + 19,
                                        truth.true_cases.begin() + 75);
  {
    const core::Ribbon r = stitched(core::WindowResult::Series::kObsCases, 0.9);
    std::cout << "Reported cases: 90% posterior ribbon vs observations "
                 "(days 20-75):\n"
              << io::ascii_band_chart(r.lo, r.mid, r.hi, observed, 56, 14,
                                      true);
  }
  {
    const core::Ribbon r = stitched(core::WindowResult::Series::kTrueCases, 0.9);
    std::cout << "\nTrue (unobserved) cases: 90% ribbon vs actual truth:\n"
              << io::ascii_band_chart(r.lo, r.mid, r.hi, true_cases_window, 56,
                                      14, true);
  }
  if (use_deaths) {
    const auto deaths_observed = truth.observed().deaths_window(20, 75);
    const core::Ribbon r = stitched(core::WindowResult::Series::kDeaths, 0.9);
    std::cout << "\nDeaths: 90% ribbon vs observations:\n"
              << io::ascii_band_chart(r.lo, r.mid, r.hi, deaths_observed, 56,
                                      12, false);
  }

  // Ribbon coverage of the truth (shape check: intervals should cover).
  const auto coverage = [&](core::WindowResult::Series series,
                            std::span<const double> target) {
    const core::Ribbon r = stitched(series, 0.9);
    std::size_t hits = 0;
    for (std::size_t d = 0; d < target.size(); ++d) {
      if (target[d] >= r.lo[d] && target[d] <= r.hi[d]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(target.size());
  };
  std::cout << "\n90% ribbon empirical coverage: reported cases "
            << io::Table::num(
                   coverage(core::WindowResult::Series::kObsCases, observed))
            << ", true cases "
            << io::Table::num(coverage(core::WindowResult::Series::kTrueCases,
                                       true_cases_window))
            << "\n";

  // --- Per-window posterior summary (panel b). ----------------------------
  std::cout << "\nPer-window posteriors (black-square truth in the paper):\n";
  auto table = bench::posterior_table();
  for (const auto& w : calibrator.results()) {
    bench::add_posterior_row(table, w, truth);
  }
  table.print(std::cout);

  std::cout << "\nJoint (theta, rho) KDE contours per window:\n";
  for (const auto& w : calibrator.results()) {
    bench::print_contour_summary(std::cout, w, truth);
  }

  // --- CSV artifacts. ------------------------------------------------------
  const std::string tag = use_deaths ? "fig5" : "fig4";
  {
    io::CsvWriter csv(budget.out_dir / (tag + "_ribbons.csv"),
                      {"day", "obs_lo", "obs_mid", "obs_hi", "true_lo",
                       "true_mid", "true_hi", "observed", "truth"});
    const core::Ribbon ro = stitched(core::WindowResult::Series::kObsCases, 0.9);
    const core::Ribbon rt = stitched(core::WindowResult::Series::kTrueCases, 0.9);
    for (std::size_t d = 0; d < ro.mid.size(); ++d) {
      csv.row_values(20 + static_cast<int>(d), ro.lo[d], ro.mid[d], ro.hi[d],
                     rt.lo[d], rt.mid[d], rt.hi[d], observed[d],
                     true_cases_window[d]);
    }
  }
  {
    io::CsvWriter csv(budget.out_dir / (tag + "_posteriors.csv"),
                      {"window", "theta", "rho"});
    for (std::size_t m = 0; m < calibrator.results().size(); ++m) {
      const auto thetas = calibrator.results()[m].posterior_thetas();
      const auto rhos = calibrator.results()[m].posterior_rhos();
      for (std::size_t i = 0; i < thetas.size(); ++i) {
        csv.row_values(m + 1, thetas[i], rhos[i]);
      }
    }
  }
  std::cout << "\nWrote " << (budget.out_dir / (tag + "_ribbons.csv")).string()
            << " and " << (budget.out_dir / (tag + "_posteriors.csv")).string()
            << "\nTotal wall time: " << io::Table::num(wall) << "s on "
            << parallel::max_threads() << " threads\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
