// E3 / Figure 3: single-window importance-sampling calibration on reported
// case counts, days 20-33. Reproduces the three panels: prior vs posterior
// trajectory envelopes, the rho prior/posterior densities, and the theta
// prior/posterior densities. Paper scale is --n-params=25000
// --replicates=20 --resample=10000 (500k trajectories).

#include <iostream>

#include <cmath>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"
#include "stats/histogram.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  const bench::BenchBudget budget = bench::parse_budget(args, 2000, 10, 4000);
  args.check_unused();

  const core::GroundTruth& truth = bench::paper_truth();

  core::CalibrationConfig config = bench::paper_calibration(budget, false);
  config.windows = {{20, 33}};

  std::cout << "=== Figure 3: single-window IS calibration, days 20-33, "
            << budget.n_params << " x " << budget.replicates << " = "
            << budget.n_params * budget.replicates << " trajectories ===\n\n";

  api::CalibrationSession session = bench::paper_session(config);
  const core::WindowResult& window = session.run_next_window();

  // --- Left panel: prior (all sims) vs posterior (resampled) envelopes. ---
  const auto envelope = [&](bool posterior_only) {
    const std::size_t days = window.window_length();
    std::vector<double> lo(days, 1e300);
    std::vector<double> hi(days, -1e300);
    std::vector<double> mid(days, 0.0);
    std::size_t count = 0;
    const auto consider = [&](std::size_t sim) {
      const auto obs = window.ensemble.obs_cases(sim);
      for (std::size_t d = 0; d < days; ++d) {
        lo[d] = std::min(lo[d], obs[d]);
        hi[d] = std::max(hi[d], obs[d]);
        mid[d] += obs[d];
      }
      ++count;
    };
    if (posterior_only) {
      for (const auto s : window.resampled) consider(s);
    } else {
      for (std::size_t s = 0; s < window.n_sims(); ++s) consider(s);
    }
    for (auto& m : mid) m /= static_cast<double>(count);
    return std::tuple{lo, mid, hi};
  };

  const auto y_window = truth.observed().cases_window(20, 33);
  {
    const auto [lo, mid, hi] = envelope(false);
    std::cout << "Prior trajectory envelope (reported cases, 'o' = observed "
                 "data):\n"
              << io::ascii_band_chart(lo, mid, hi, y_window, 56, 14, true);
  }
  {
    const auto [lo, mid, hi] = envelope(true);
    std::cout << "\nPosterior trajectory envelope:\n"
              << io::ascii_band_chart(lo, mid, hi, y_window, 56, 14, true);
  }

  // --- Center/right panels: prior and posterior marginal densities. -------
  const auto print_density = [&](const char* label, double lo, double hi,
                                 const std::vector<double>& draws,
                                 double truth_value) {
    stats::Histogram hist(lo, hi, 30);
    hist.add_all(draws);
    const auto density = hist.density();
    std::cout << "\n" << label << " posterior density (| marks truth "
              << io::Table::num(truth_value) << "):\n";
    const double peak = *std::max_element(density.begin(), density.end());
    for (std::size_t b = 0; b < hist.bins(); b += 2) {
      const auto bars =
          static_cast<std::size_t>(density[b] / peak * 48.0);
      const bool truth_bin =
          truth_value >= hist.bin_center(b) - hist.bin_width() &&
          truth_value < hist.bin_center(b) + hist.bin_width();
      std::cout << "  " << io::Table::num(hist.bin_center(b), 3) << " "
                << std::string(bars, '#') << (truth_bin ? " |" : "") << "\n";
    }
  };
  print_density("theta", 0.1, 0.5, window.posterior_thetas(),
                truth.theta_at(20));
  print_density("rho", 0.0, 1.0, window.posterior_rhos(), truth.rho_at(20));

  // --- Summary table + CSV. ----------------------------------------------
  auto table = bench::posterior_table();
  bench::add_posterior_row(table, window, truth);
  std::cout << "\n";
  table.print(std::cout);

  const auto s = core::summarize_window(window);
  std::cout << "\nPrior sd for theta (U(0.1,0.5)): "
            << io::Table::num((0.5 - 0.1) / std::sqrt(12.0))
            << "  -> posterior sd: " << io::Table::num(s.theta.sd)
            << "\nRho posterior remains prior-dominated (paper: \"the "
               "posterior on rho exhibits less influence\"): prior mean "
            << io::Table::num(0.8) << " -> posterior mean "
            << io::Table::num(s.rho.mean) << "\n";

  io::CsvWriter csv(budget.out_dir / "fig3_posterior_draws.csv",
                    {"theta", "rho"});
  const auto thetas = window.posterior_thetas();
  const auto rhos = window.posterior_rhos();
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    csv.row_values(thetas[i], rhos[i]);
  }
  std::cout << "Wrote "
            << (budget.out_dir / "fig3_posterior_draws.csv").string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
