// Ensemble-engine benchmark: native Simulator::run_batch vs the per-sim
// reference path (one run_window per trajectory -- the pre-refactor hot
// loop), for all three backends at 1/4/8 threads, on the paper-baseline
// single-window workload (days 20-33). Emits machine-readable results to
// BENCH_ensemble.json so the propagate-path perf trajectory is tracked
// from PR 2 onward.
//
//   ./bench_ensemble [--n-params=64] [--replicates=4] [--abm-population=6000]
//                    [--repeats=5] [--score-iters=20] [--simd=LEVEL]
//                    [--out=BENCH_ensemble.json]
//                    [--check] [--min-simd-speedup=0]
//
// Each cell is timed --repeats times and reports both the min (the
// classical best-of estimate) and the median (robust to one lucky run);
// speedups are computed from the min. The JSON is stamped with the
// compiler, flags and git SHA next to hardware_concurrency so trajectory
// comparisons across machines/toolchains are interpretable.
//
// Speedup definitions recorded per (backend, threads) cell:
//   speedup_batch_vs_persim   persim_seconds / batch_seconds  (same threads)
//   batch_speedup_vs_1thread  batch_seconds@1 / batch_seconds@N
// The second is the "propagate speedup at N threads" number; it needs >= N
// hardware threads to mean anything, so on a single-core machine those
// numbers are emitted as null with "skipped_single_core": true instead of
// pretending a ~1.0x "speedup" is a regression signal.
//
// The scoring_kernel section times the fused bias+likelihood scoring pass
// (the BatchSink::on_sim hot path: BinomialBias thinning + cached
// gaussian-sqrt scoring per sim) at the scalar reference level vs the best
// vector dispatch level, single thread. --check gates
// scoring_simd_speedup >= --min-simd-speedup (skipped when no vector level
// is compiled/supported on the machine).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/cli.hpp"
#include "bench_common.hpp"
#include "core/bias_model.hpp"
#include "core/likelihood.hpp"
#include "io/args.hpp"
#include "parallel/parallel.hpp"
#include "random/seeding.hpp"
#include "simd/simd.hpp"

namespace {

using namespace epismc;

struct Timing {
  double min = 0.0;
  double median = 0.0;
};

struct Cell {
  std::string backend;
  int threads = 1;
  std::size_t n_sims = 0;
  std::size_t window_len = 0;
  Timing persim;
  Timing batch;
};

/// Columns mirroring run_importance_window's CRN layout for a fresh window.
core::EnsembleBuffer make_buffer(std::size_t n_params, std::size_t replicates,
                                 std::size_t window_len, std::uint64_t seed) {
  core::EnsembleBuffer buf(n_params * replicates, window_len);
  for (std::size_t s = 0; s < buf.size(); ++s) {
    const auto j = static_cast<std::uint32_t>(s / replicates);
    const auto r = static_cast<std::uint32_t>(s % replicates);
    buf.param_index[s] = j;
    buf.replicate[s] = r;
    buf.parent[s] = 0;
    buf.theta[s] = 0.12 + 0.003 * static_cast<double>(j);
    buf.rho[s] = 0.8;
    buf.seed[s] = seed;
    buf.stream[s] = rng::make_stream_id({0x4D4F44454Cull, 0, r}).key;
  }
  return buf;
}

Timing time_repeats(int repeats, const std::function<void()>& fn) {
  std::vector<double> samples(static_cast<std::size_t>(repeats));
  for (double& s : samples) {
    parallel::Timer t;
    fn();
    s = t.seconds();
  }
  std::sort(samples.begin(), samples.end());
  Timing timing;
  timing.min = samples.front();
  timing.median = samples[samples.size() / 2];
  return timing;
}

int run(const epismc::io::Args& args) {
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 64));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 4));
  const auto abm_population = args.get_int("abm-population", 6000);
  const int repeats = static_cast<int>(args.get_int("repeats", 5));
  const int score_iters = static_cast<int>(args.get_int("score-iters", 20));
  const bool check = args.get_flag("check");
  const double min_simd_speedup = args.get_double("min-simd-speedup", 0.0);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_ensemble.json");
  api::apply_simd_flag(args);
  args.check_unused();

  constexpr std::int32_t kParentDay = 19;
  constexpr std::int32_t kToDay = 33;
  const std::size_t window_len = 14;
  const std::vector<int> thread_counts = {1, 4, 8};
  // Captured before any set_threads call: max_threads reports the
  // last value set, so this is the only moment it reflects the machine.
  const int machine_threads = parallel::max_threads();

  struct Backend {
    std::string name;
    api::SimulatorSpec spec;
    std::size_t n_params;
  };
  // SEIR and chain-binomial run the paper's Chicago-scale spec; the ABM is
  // scaled down (its day cost is O(population)) but exercises the same
  // batch machinery.
  std::vector<Backend> backends;
  backends.push_back(
      {"seir-event", api::scenarios().create("paper-baseline").simulator_spec(),
       n_params});
  backends.push_back({"chain-binomial", backends[0].spec, n_params});
  api::SimulatorSpec abm_spec;
  abm_spec.params.population = abm_population;
  abm_spec.initial_exposed = std::max<std::int64_t>(abm_population / 200, 10);
  backends.push_back({"abm", abm_spec, std::max<std::size_t>(n_params / 4, 8)});

  std::vector<Cell> cells;
  for (const Backend& b : backends) {
    const auto sim = api::simulators().create(b.name, b.spec);
    const core::PerSimReference persim(*sim);
    const std::vector<epi::Checkpoint> parents = {
        sim->initial_state(kParentDay, 7)};
    core::EnsembleBuffer buf =
        make_buffer(b.n_params, replicates, window_len, 4242);

    // Warm up caches (delay tables, allocator) outside the timings.
    sim->run_batch(parents, kToDay, buf, 0, buf.size());

    for (const int threads : thread_counts) {
      parallel::set_threads(threads);
      Cell cell;
      cell.backend = b.name;
      cell.threads = threads;
      cell.n_sims = buf.size();
      cell.window_len = window_len;
      cell.batch = time_repeats(repeats, [&] {
        sim->run_batch(parents, kToDay, buf, 0, buf.size());
      });
      cell.persim = time_repeats(repeats, [&] {
        persim.run_batch(parents, kToDay, buf, 0, buf.size());
      });
      cells.push_back(cell);
      std::cout << b.name << " @ " << threads << " threads: per-sim "
                << cell.persim.min * 1e3 << " ms, batch "
                << cell.batch.min * 1e3 << " ms ("
                << cell.persim.min / cell.batch.min << "x, median "
                << cell.persim.median / cell.batch.median << "x)\n";
    }
    parallel::set_threads(machine_threads);
  }

  // --- Fused bias+likelihood scoring kernel: scalar reference level vs the
  // best vector dispatch level, single thread. Replays the BatchSink::on_sim
  // pass (binomial thinning of each sim's true-case series followed by the
  // cached gaussian-sqrt score) over a propagated seir-event ensemble.
  const simd::SimdLevel vec_level = simd::best_level();
  Timing scoring_scalar;
  Timing scoring_vector;
  std::size_t scoring_sims = 0;
  {
    parallel::set_threads(1);
    const auto sim = api::simulators().create("seir-event", backends[0].spec);
    const std::vector<epi::Checkpoint> parents = {
        sim->initial_state(kParentDay, 7)};
    core::EnsembleBuffer buf =
        make_buffer(n_params, replicates, window_len, 4242);
    sim->run_batch(parents, kToDay, buf, 0, buf.size());
    scoring_sims = buf.size();

    const core::BinomialBias bias;
    const core::GaussianSqrtLikelihood lik(1.0);
    const std::vector<double> observed(buf.true_cases(0).begin(),
                                       buf.true_cases(0).end());
    const core::ObservationCache cache = lik.prepare(observed);
    std::vector<double> biased(window_len);
    double sink = 0.0;
    const auto scoring_pass = [&] {
      double acc = 0.0;
      for (int it = 0; it < score_iters; ++it) {
        for (std::size_t s = 0; s < buf.size(); ++s) {
          rng::Engine eng =
              rng::make_engine(buf.seed[s], rng::StreamId{buf.stream[s]});
          bias.apply_into(eng, buf.true_cases(s), buf.rho[s], biased);
          acc += lik.logpdf(cache, biased);
        }
      }
      sink += acc;
    };
    {
      const simd::ScopedLevel guard(simd::SimdLevel::kScalar);
      scoring_pass();  // warm up
      scoring_scalar = time_repeats(repeats, scoring_pass);
    }
    {
      const simd::ScopedLevel guard(vec_level);
      scoring_pass();
      scoring_vector = time_repeats(repeats, scoring_pass);
    }
    if (sink == 0.0) std::cout << "";  // keep the scores observable
    parallel::set_threads(machine_threads);
  }
  const double scoring_speedup = scoring_scalar.min / scoring_vector.min;
  std::cout << "scoring kernel @ 1 thread: scalar "
            << scoring_scalar.min * 1e3 << " ms, "
            << simd::level_name(vec_level) << " " << scoring_vector.min * 1e3
            << " ms (" << scoring_speedup << "x)\n";

  const auto batch_at = [&](const std::string& backend, int threads) {
    for (const Cell& c : cells) {
      if (c.backend == backend && c.threads == threads) return c.batch.min;
    }
    return 0.0;
  };
  const bool single_core = std::thread::hardware_concurrency() <= 1;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-ensemble-bench-v4\",\n"
      << "  \"generated_by\": \"bench/bench_ensemble\",\n"
      << "  \"workload\": \"paper-baseline single window, days 20-33\",\n"
      << bench::json_build_stamp()
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"pool_backend\": \""
      << parallel::backend_name(parallel::backend()) << "\",\n"
      << "  \"max_threads\": " << machine_threads << ",\n"
      << "  \"replicates\": " << replicates << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"simd_level\": \"" << simd::level_name(vec_level) << "\",\n"
      << "  \"skipped_single_core\": " << (single_core ? "true" : "false")
      << ",\n"
      << "  \"seir_8thread_propagate_speedup_vs_1thread\": ";
  if (single_core) {
    out << "null";
  } else {
    out << batch_at("seir-event", 1) / batch_at("seir-event", 8);
  }
  out << ",\n"
      << "  \"scoring_kernel\": {\"n_sims\": " << scoring_sims
      << ", \"window_len\": " << window_len << ", \"iters\": " << score_iters
      << ", \"threads\": 1,\n"
      << "    \"scalar_seconds\": " << scoring_scalar.min
      << ", \"scalar_seconds_median\": " << scoring_scalar.median
      << ", \"vector_seconds\": " << scoring_vector.min
      << ", \"vector_seconds_median\": " << scoring_vector.median
      << ", \"vector_level\": \"" << simd::level_name(vec_level) << "\"},\n"
      << "  \"scoring_simd_speedup\": " << scoring_speedup << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"backend\": \"" << c.backend << "\", \"threads\": "
        << c.threads << ", \"n_sims\": " << c.n_sims << ", \"window_len\": "
        << c.window_len << ",\n"
        << "     \"persim_seconds\": " << c.persim.min
        << ", \"persim_seconds_median\": " << c.persim.median
        << ", \"batch_seconds\": " << c.batch.min
        << ", \"batch_seconds_median\": " << c.batch.median
        << ",\n     \"speedup_batch_vs_persim\": "
        << c.persim.min / c.batch.min
        << ", \"speedup_batch_vs_persim_median\": "
        << c.persim.median / c.batch.median
        << ", \"batch_speedup_vs_1thread\": ";
    if (single_core && c.threads > 1) {
      out << "null, \"skipped_single_core\": true";
    } else {
      out << batch_at(c.backend, 1) / c.batch.min;
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "Wrote " << out_path.string() << " (scoring simd speedup "
            << scoring_speedup << "x at " << simd::level_name(vec_level)
            << ")\n";

  bool failed = false;
  if (check && min_simd_speedup > 0.0) {
    if (vec_level == simd::SimdLevel::kScalar) {
      std::cout << "CHECK: no vector dispatch level compiled/supported on "
                   "this machine; simd speedup gate skipped\n";
    } else if (!(scoring_speedup >= min_simd_speedup)) {
      std::cerr << "CHECK FAILED: vector scoring kernel ("
                << simd::level_name(vec_level) << ") is " << scoring_speedup
                << "x the scalar kernel @ 1 thread (required >= "
                << min_simd_speedup << "x)\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
