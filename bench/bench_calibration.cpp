// End-to-end calibration benchmark for the single-pass window: the fused
// path (inline end-state capture, forced by an unlimited
// inline_state_budget) against the legacy two-pass path (survivor replay,
// forced by a budget of one byte), over the paper's four sequential
// calibration windows, for all three backends at 1/4/8 threads. Emits
// machine-readable results to BENCH_calibration.json -- stamped with the
// compiler, flags and git SHA -- so the window-pipeline perf trajectory is
// tracked from PR 3 onward.
//
//   ./bench_calibration [--n-params=48] [--replicates=4] [--resample=192]
//                       [--likelihood-k=1] [--abm-population=6000]
//                       [--abm-populations=6000,60000,500000,2700000]
//                       [--abm-sweep-params=6] [--abm-sweep-replicates=2]
//                       [--repeats=2] [--out=BENCH_calibration.json]
//                       [--simd=LEVEL]
//                       [--check] [--min-speedup=1.0] [--min-abm-speedup=0]
//
// The ABM engine sweep runs the same four-window calibration once per
// --abm-populations entry, 1 thread, fused capture, for the event-driven
// "fast" engine against the per-agent-scan "reference" engine, recording
// agent-days/second throughput per cell. The largest population is the
// paper-scale cell: its fast-vs-reference ratio is reported as
// abm_1thread_fast_speedup_vs_reference and gated by --min-abm-speedup
// when --check is set.
//
// The default budget resamples as many posterior draws as there are sims
// (a standard N-from-N SMC configuration) under an nb-sqrt error model
// dispersed enough (--likelihood-k) to keep every window's ESS *fraction*
// healthy at this reduced budget -- a few hundred sims stand in for the
// paper's half-million, so the error model must be proportionally flatter
// to leave the same share of the ensemble alive (raise k toward the
// paper's 500 as --n-params grows). The survivor set then covers a large
// fraction of the ensemble and the legacy path pays close to a full extra
// propagation sweep per window: the redundancy this PR removes.
// Degenerate windows (tiny survivor sets) replay almost nothing, so both
// paths converge there; the JSON records the measured unique fraction and
// checkpoint-pass share so either regime is interpretable.
//
// --check exits nonzero unless fused >= --min-speedup x legacy on the
// seir-event workload at 1 thread (the CI regression gate).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/cli.hpp"
#include "bench_common.hpp"
#include "simd/simd.hpp"

namespace {

using namespace epismc;

struct Cell {
  std::string backend;
  bool fused = false;
  int threads = 1;
  std::size_t n_sims = 0;
  std::size_t windows = 0;
  double total_seconds = 0.0;       // best-of-repeats full calibration
  double total_seconds_median = 0.0;
  double propagate_seconds = 0.0;   // summed diag over the best run
  double checkpoint_seconds = 0.0;
  double unique_fraction = 0.0;     // mean unique_resampled / n_sims
};

struct AbmEngineCell {
  std::int64_t population = 0;
  abm::AbmEngine engine = abm::AbmEngine::kFast;
  std::size_t n_sims = 0;
  double total_seconds = 0.0;
  double total_seconds_median = 0.0;
  double agent_days_per_second = 0.0;
};

int run(const epismc::io::Args& args) {
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 48));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 4));
  const auto resample = static_cast<std::size_t>(
      args.get_int("resample", static_cast<std::int64_t>(n_params * replicates)));
  const double likelihood_k = args.get_double("likelihood-k", 1.0);
  const auto abm_population = args.get_int("abm-population", 6000);
  const std::vector<std::int64_t> abm_populations =
      args.get_int_list("abm-populations", "6000,60000,500000,2700000");
  const auto abm_sweep_params =
      static_cast<std::size_t>(args.get_int("abm-sweep-params", 6));
  const auto abm_sweep_replicates =
      static_cast<std::size_t>(args.get_int("abm-sweep-replicates", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 2));
  const bool check = args.get_flag("check");
  const double min_speedup = args.get_double("min-speedup", 1.0);
  const double min_abm_speedup = args.get_double("min-abm-speedup", 0.0);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_calibration.json");
  api::apply_simd_flag(args);
  args.check_unused();

  const core::ObservedData observed = bench::paper_truth().observed();
  const std::vector<int> thread_counts = {1, 4, 8};
  const int machine_threads = parallel::max_threads();

  struct Backend {
    std::string name;
    api::SimulatorSpec spec;
    std::size_t n_params;
  };
  // SEIR and chain-binomial run the paper's Chicago-scale spec; the ABM is
  // scaled down (its day cost is O(population)) but sweeps the same
  // multi-window pipeline.
  std::vector<Backend> backends;
  backends.push_back({"seir-event", bench::paper_preset().simulator_spec(),
                      n_params});
  backends.push_back({"chain-binomial", backends[0].spec, n_params});
  api::SimulatorSpec abm_spec;
  abm_spec.params.population = abm_population;
  abm_spec.initial_exposed = std::max<std::int64_t>(abm_population / 200, 10);
  backends.push_back({"abm", abm_spec, std::max<std::size_t>(n_params / 4, 8)});

  std::vector<Cell> cells;
  for (const Backend& b : backends) {
    const auto sim = api::simulators().create(b.name, b.spec);
    for (const bool fused : {true, false}) {
      for (const int threads : thread_counts) {
        parallel::set_threads(threads);

        core::CalibrationConfig cfg;
        cfg.windows = bench::paper_windows();
        cfg.n_params = b.n_params;
        cfg.replicates = replicates;
        cfg.resample_size = b.name == "abm"
                                ? b.n_params * replicates
                                : resample;
        cfg.likelihood_name = "nb-sqrt";
        cfg.likelihood_parameter = likelihood_k;
        cfg.inline_state_budget = fused ? SIZE_MAX : 1;

        Cell cell;
        cell.backend = b.name;
        cell.fused = fused;
        cell.threads = threads;
        cell.n_sims = cfg.n_params * cfg.replicates;
        cell.windows = cfg.windows.size();

        std::vector<double> samples;
        for (int rep = 0; rep < repeats; ++rep) {
          core::SequentialCalibrator cal(*sim, observed, cfg);
          parallel::Timer timer;
          cal.run_all();
          const double seconds = timer.seconds();
          samples.push_back(seconds);
          if (seconds <= *std::min_element(samples.begin(), samples.end())) {
            double prop = 0.0, ckpt = 0.0, uniq = 0.0;
            for (const auto& w : cal.results()) {
              prop += w.diag.propagate_seconds;
              ckpt += w.diag.checkpoint_seconds;
              uniq += static_cast<double>(w.diag.unique_resampled) /
                      static_cast<double>(w.diag.n_sims);
            }
            cell.propagate_seconds = prop;
            cell.checkpoint_seconds = ckpt;
            cell.unique_fraction =
                uniq / static_cast<double>(cal.results().size());
          }
        }
        std::sort(samples.begin(), samples.end());
        cell.total_seconds = samples.front();
        cell.total_seconds_median = samples[samples.size() / 2];
        cells.push_back(cell);
        std::cout << b.name << (fused ? " fused " : " legacy") << " @ "
                  << threads << " threads: " << cell.total_seconds * 1e3
                  << " ms (checkpoint pass " << cell.checkpoint_seconds * 1e3
                  << " ms, unique fraction " << cell.unique_fraction << ")\n";
      }
    }
  }
  // --- ABM engine sweep: fast vs reference across populations, 1 thread.
  // Same four windows, fused capture; the reduced sim budget keeps the
  // reference engine's O(population)-per-day cost affordable at the
  // paper-scale cell.
  std::vector<AbmEngineCell> abm_cells;
  parallel::set_threads(1);
  for (const std::int64_t population : abm_populations) {
    for (const abm::AbmEngine engine :
         {abm::AbmEngine::kFast, abm::AbmEngine::kReference}) {
      api::SimulatorSpec spec;
      spec.params.population = population;
      spec.initial_exposed = std::max<std::int64_t>(population / 200, 10);
      spec.abm.engine = engine;
      const auto sim = api::simulators().create("abm", spec);

      core::CalibrationConfig cfg;
      cfg.windows = bench::paper_windows();
      cfg.n_params = abm_sweep_params;
      cfg.replicates = abm_sweep_replicates;
      cfg.resample_size = abm_sweep_params * abm_sweep_replicates;
      cfg.likelihood_name = "nb-sqrt";
      cfg.likelihood_parameter = likelihood_k;
      cfg.inline_state_budget = SIZE_MAX;

      AbmEngineCell cell;
      cell.population = population;
      cell.engine = engine;
      cell.n_sims = cfg.n_params * cfg.replicates;

      std::vector<double> samples;
      for (int rep = 0; rep < repeats; ++rep) {
        core::SequentialCalibrator cal(*sim, observed, cfg);
        parallel::Timer timer;
        cal.run_all();
        samples.push_back(timer.seconds());
      }
      std::sort(samples.begin(), samples.end());
      cell.total_seconds = samples.front();
      cell.total_seconds_median = samples[samples.size() / 2];
      // Propagated agent-days: each window advances every sim from the
      // parent day (from_day - 1) to to_day.
      std::int64_t sim_days = 0;
      for (const auto& [from_day, to_day] : cfg.windows) {
        sim_days += (to_day - from_day + 1) *
                    static_cast<std::int64_t>(cell.n_sims);
      }
      cell.agent_days_per_second =
          static_cast<double>(population) * static_cast<double>(sim_days) /
          cell.total_seconds;
      abm_cells.push_back(cell);
      std::cout << "abm pop " << population << " engine "
                << abm::to_string(engine) << " @ 1 thread: "
                << cell.total_seconds * 1e3 << " ms ("
                << cell.agent_days_per_second / 1e6 << "M agent-days/s)\n";
    }
  }
  parallel::set_threads(machine_threads);

  const auto abm_seconds_of = [&](std::int64_t population,
                                  abm::AbmEngine engine) {
    for (const AbmEngineCell& c : abm_cells) {
      if (c.population == population && c.engine == engine) {
        return c.total_seconds;
      }
    }
    return 0.0;
  };
  // The headline speedup is measured at the largest swept population --
  // the paper-scale cell in the committed run, a reduced cell in CI. The
  // JSON records that population next to the ratio so artifacts from
  // different sweep configurations stay comparable.
  const std::int64_t abm_max_population =
      abm_populations.empty() ? 0 : abm_populations.back();
  const double abm_speedup =
      abm_populations.empty()
          ? 0.0
          : abm_seconds_of(abm_max_population, abm::AbmEngine::kReference) /
                abm_seconds_of(abm_max_population, abm::AbmEngine::kFast);

  const auto seconds_of = [&](const std::string& backend, bool fused,
                              int threads) {
    for (const Cell& c : cells) {
      if (c.backend == backend && c.fused == fused && c.threads == threads) {
        return c.total_seconds;
      }
    }
    return 0.0;
  };
  const double seir_speedup =
      seconds_of("seir-event", false, 1) / seconds_of("seir-event", true, 1);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-calibration-bench-v1\",\n"
      << "  \"generated_by\": \"bench/bench_calibration\",\n"
      << "  \"workload\": \"paper windows 20-75, nb-sqrt likelihood, "
         "fused (inline capture) vs legacy (survivor replay)\",\n"
      << bench::json_build_stamp()
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"max_threads\": " << machine_threads << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"simd_level\": \""
      << simd::level_name(simd::active_level()) << "\",\n"
      << "  \"skipped_single_core\": "
      << (std::thread::hardware_concurrency() <= 1 ? "true" : "false")
      << ",\n"
      << "  \"seir_1thread_fused_speedup_vs_legacy\": " << seir_speedup
      << ",\n"
      << "  \"abm_sweep_max_population\": " << abm_max_population << ",\n"
      << "  \"abm_1thread_fast_speedup_vs_reference\": " << abm_speedup
      << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"backend\": \"" << c.backend << "\", \"mode\": \""
        << (c.fused ? "fused" : "legacy") << "\", \"threads\": " << c.threads
        << ", \"n_sims\": " << c.n_sims << ", \"windows\": " << c.windows
        << ",\n"
        << "     \"total_seconds\": " << c.total_seconds
        << ", \"total_seconds_median\": " << c.total_seconds_median
        << ", \"propagate_seconds\": " << c.propagate_seconds
        << ", \"checkpoint_seconds\": " << c.checkpoint_seconds
        << ",\n     \"unique_fraction\": " << c.unique_fraction
        << ", \"speedup_fused_vs_legacy\": "
        << seconds_of(c.backend, false, c.threads) /
               seconds_of(c.backend, true, c.threads)
        << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"abm_engine_sweep\": [\n";
  for (std::size_t i = 0; i < abm_cells.size(); ++i) {
    const AbmEngineCell& c = abm_cells[i];
    out << "    {\"population\": " << c.population << ", \"engine\": \""
        << abm::to_string(c.engine) << "\", \"threads\": 1, \"n_sims\": "
        << c.n_sims << ", \"windows\": " << bench::paper_windows().size()
        << ",\n"
        << "     \"total_seconds\": " << c.total_seconds
        << ", \"total_seconds_median\": " << c.total_seconds_median
        << ", \"agent_days_per_second\": " << c.agent_days_per_second
        << ", \"speedup_fast_vs_reference\": "
        << abm_seconds_of(c.population, abm::AbmEngine::kReference) /
               abm_seconds_of(c.population, abm::AbmEngine::kFast)
        << "}" << (i + 1 < abm_cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "Wrote " << out_path.string()
            << " (seir 1-thread fused speedup " << seir_speedup
            << "x, abm fast-vs-reference @ pop " << abm_max_population << " "
            << abm_speedup << "x)\n";

  bool failed = false;
  if (check && !(seir_speedup >= min_speedup)) {
    std::cerr << "CHECK FAILED: fused path is " << seir_speedup
              << "x the legacy path on seir-event @ 1 thread (required >= "
              << min_speedup << "x)\n";
    failed = true;
  }
  if (check && min_abm_speedup > 0.0 && !(abm_speedup >= min_abm_speedup)) {
    std::cerr << "CHECK FAILED: abm fast engine is " << abm_speedup
              << "x the reference engine @ 1 thread, population "
              << abm_max_population << " (required >= " << min_abm_speedup
              << "x)\n";
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
