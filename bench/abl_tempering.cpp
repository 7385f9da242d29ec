// Ablation: adaptive inference strategies across ESS thresholds.
//
// Runs the paper's four-window calibration under a deliberately sharp
// gaussian-sqrt error model (sigma ~ 1 at Chicago-scale counts collapses
// every window's single-stage ESS), sweeping the strategy x ess-threshold
// matrix:
//
//   single-stage            the paper's scheme (the degenerate baseline)
//   tempered       x {thresholds}   ESS-triggered bisected temper ladder
//   tempered+rejuvenate x {thresholds}   ladder + independence-MH moves
//
// Per cell: wall time (best of --repeats) and the per-window ESS story
// (initial -> final, rung count, move acceptance), emitted as a table,
// machine-readable JSON (--out) and an SmcDiagnostics CSV (--out-dir).
//
// --check gates two properties the tentpole promises:
//   (a) "tempered" is re-scoring only: wall time <= --max-overhead x the
//       single-stage run (default 1.3, the acceptance bound);
//   (b) every triggered window's final rung holds ESS >= threshold x n_sims.
//
//   ./abl_tempering [--n-params=48] [--replicates=4] [--sigma=1.0]
//                   [--thresholds=0.3,0.5,0.7] [--repeats=2]
//                   [--out=BENCH_tempering.json] [--out-dir=bench_results]
//                   [--check] [--max-overhead=1.3] [--threads=N]

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace epismc;

struct WindowTrace {
  double initial_ess = 0.0;
  double final_ess = 0.0;
  std::size_t stages = 0;
  double acceptance = -1.0;
  double log_marginal = 0.0;
  bool tempered = false;
};

struct Cell {
  std::string strategy;
  double threshold = 0.0;  // 0: single-stage (threshold not applicable)
  double total_seconds = 0.0;
  double total_seconds_median = 0.0;
  std::vector<WindowTrace> windows;
};

int run(const epismc::io::Args& args) {
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 48));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 4));
  const std::size_t n_sims = n_params * replicates;
  const double sigma = args.get_double("sigma", 1.0);
  const std::vector<double> thresholds =
      args.get_double_list("thresholds", "0.3,0.5,0.7");
  const int repeats = static_cast<int>(args.get_int("repeats", 2));
  const bool check = args.get_flag("check");
  const double max_overhead = args.get_double("max-overhead", 1.3);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_tempering.json");
  const std::filesystem::path out_dir =
      args.get_string("out-dir", "bench_results");
  api::apply_threads_flag(args);
  args.check_unused();
  std::filesystem::create_directories(out_dir);

  const auto make_config = [&](const std::string& strategy, double threshold) {
    core::CalibrationConfig cfg;
    cfg.windows = bench::paper_windows();
    cfg.n_params = n_params;
    cfg.replicates = replicates;
    cfg.resample_size = 2 * n_sims;
    cfg.likelihood_name = "gaussian-sqrt";
    cfg.likelihood_parameter = sigma;
    cfg.inference = api::inference_strategies().create(strategy);
    if (threshold > 0.0) cfg.ess_threshold = threshold;
    return cfg;
  };

  bool wrote_csv = false;
  const auto run_cell = [&](const std::string& strategy, double threshold) {
    Cell cell;
    cell.strategy = strategy;
    cell.threshold = threshold;
    std::vector<double> samples;
    for (int rep = 0; rep < repeats; ++rep) {
      api::CalibrationSession session =
          bench::paper_session(make_config(strategy, threshold));
      parallel::Timer timer;
      session.run_all();
      const double seconds = timer.seconds();
      samples.push_back(seconds);
      if (seconds <= *std::min_element(samples.begin(), samples.end())) {
        cell.windows.clear();
        for (const core::WindowResult& w : session.results()) {
          WindowTrace t;
          t.initial_ess = w.smc.initial_ess;
          t.final_ess = w.smc.final_ess;
          t.stages = w.smc.stages.size();
          t.acceptance = w.smc.acceptance_rate();
          t.log_marginal = w.diag.log_marginal;
          t.tempered = w.smc.tempered();
          cell.windows.push_back(t);
        }
        // One representative SmcDiagnostics CSV: the first tempered cell.
        if (strategy == "tempered" && !thresholds.empty() &&
            threshold == thresholds.front()) {
          std::ofstream csv(out_dir / "abl_tempering_smc.csv");
          core::write_smc_diagnostics_csv(csv, session.results());
          wrote_csv = static_cast<bool>(csv);
        }
      }
    }
    std::sort(samples.begin(), samples.end());
    cell.total_seconds = samples.front();
    cell.total_seconds_median = samples[samples.size() / 2];
    return cell;
  };

  std::vector<Cell> cells;
  cells.push_back(run_cell("single-stage", 0.0));
  for (const std::string strategy : {"tempered", "tempered+rejuvenate"}) {
    for (const double threshold : thresholds) {
      cells.push_back(run_cell(strategy, threshold));
    }
  }
  const double single_stage_seconds = cells.front().total_seconds;

  io::Table table({"strategy", "threshold", "seconds", "vs single-stage",
                   "mean ESS in->out", "rungs/window", "move accept"});
  for (const Cell& c : cells) {
    double in_ess = 0.0, out_ess = 0.0, rungs = 0.0, accept = 0.0;
    int accept_cells = 0;
    for (const WindowTrace& t : c.windows) {
      in_ess += t.initial_ess;
      out_ess += t.final_ess;
      rungs += static_cast<double>(t.stages);
      if (t.acceptance >= 0.0) {
        accept += t.acceptance;
        ++accept_cells;
      }
    }
    const auto n_windows = static_cast<double>(c.windows.size());
    table.add_row_values(
        c.strategy,
        c.threshold > 0.0 ? io::Table::num(c.threshold, 2) : std::string("-"),
        io::Table::num(c.total_seconds, 3),
        io::Table::num(c.total_seconds / single_stage_seconds, 2) + "x",
        io::Table::num(in_ess / n_windows, 1) + " -> " +
            io::Table::num(out_ess / n_windows, 1),
        io::Table::num(rungs / n_windows, 1),
        accept_cells > 0 ? io::Table::num(accept / accept_cells, 3)
                         : std::string("-"));
  }
  std::cout << "Adaptive-inference ablation: " << n_sims << " sims/window, "
            << bench::paper_windows().size()
            << " windows, gaussian-sqrt sigma=" << sigma << "\n\n";
  table.print(std::cout);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-tempering-abl-v1\",\n"
      << "  \"generated_by\": \"bench/abl_tempering\",\n"
      << "  \"workload\": \"paper windows 20-75, gaussian-sqrt sigma="
      << sigma << ", strategy x ess-threshold matrix\",\n"
      << bench::json_build_stamp() << "  \"n_sims\": " << n_sims << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"single_stage_seconds\": " << single_stage_seconds << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"strategy\": \"" << c.strategy
        << "\", \"ess_threshold\": " << c.threshold
        << ", \"total_seconds\": " << c.total_seconds
        << ", \"total_seconds_median\": " << c.total_seconds_median
        << ",\n     \"overhead_vs_single_stage\": "
        << c.total_seconds / single_stage_seconds << ", \"windows\": [\n";
    for (std::size_t w = 0; w < c.windows.size(); ++w) {
      const WindowTrace& t = c.windows[w];
      out << "       {\"window\": " << w << ", \"initial_ess\": "
          << t.initial_ess << ", \"final_ess\": " << t.final_ess
          << ", \"stages\": " << t.stages << ", \"tempered\": "
          << (t.tempered ? "true" : "false") << ", \"acceptance_rate\": "
          << t.acceptance << ", \"log_marginal\": " << t.log_marginal << "}"
          << (w + 1 < c.windows.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nWrote " << out_path.string();
  if (wrote_csv) {
    std::cout << " and " << (out_dir / "abl_tempering_smc.csv").string();
  }
  std::cout << "\n";

  bool failed = false;
  if (check) {
    for (const Cell& c : cells) {
      if (c.strategy == "tempered") {
        // (a) Re-scoring only: the ladder must not cost propagation.
        const double overhead = c.total_seconds / single_stage_seconds;
        if (!(overhead <= max_overhead)) {
          std::cerr << "CHECK FAILED: tempered @ threshold " << c.threshold
                    << " is " << overhead << "x single-stage (required <= "
                    << max_overhead << "x)\n";
          failed = true;
        }
      }
      if (c.strategy != "single-stage") {
        // (b) Every triggered window recovered ESS to the target -- except
        // a ladder that hit the stage cap, whose forced final rung is
        // allowed to finish below target by design (run_temper_ladder).
        const std::size_t max_stages =
            core::CalibrationConfig{}.max_temper_stages;
        for (std::size_t w = 0; w < c.windows.size(); ++w) {
          const WindowTrace& t = c.windows[w];
          const double target = c.threshold * static_cast<double>(n_sims);
          if (t.tempered && t.stages < max_stages &&
              !(t.final_ess >= 0.999 * target)) {
            std::cerr << "CHECK FAILED: " << c.strategy << " @ threshold "
                      << c.threshold << " window " << w << " final ESS "
                      << t.final_ess << " < target " << target << "\n";
            failed = true;
          }
        }
      }
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
