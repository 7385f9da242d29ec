// Thread-scaling benchmark for the parallel layer: propagate+score
// throughput for all three simulator backends x both pool backends
// {serial, pool} x 1/2/4/8 threads, on the paper-baseline
// single-window workload (days 20-33). Emits machine-readable results to
// BENCH_scaling.json so the thread-scaling trajectory of the execution
// engine is tracked alongside BENCH_ensemble.json's propagate numbers.
//
//   ./bench_scaling [--n-params=32] [--replicates=4] [--abm-population=6000]
//                   [--repeats=3] [--out=BENCH_scaling.json]
//                   [--check] [--min-scaling=0]
//
// The timed unit is one full propagate+score pass: Simulator::run_batch
// over the ensemble followed by a parallel_for scoring sweep (BinomialBias
// thinning + cached gaussian-sqrt logpdf per sim) -- the two loops the
// calibration inner window actually spends its time in.
//
// Determinism is asserted, not assumed: every cell's score vector must be
// bit-identical to the serial 1-thread reference for the same simulator.
// A mismatch fails the run (exit 1) regardless of --check, because it
// means the index-derived-randomness contract broke.
//
// Speedup semantics per cell: seconds@{backend,1 thread} / seconds@{backend,
// N threads}. Cells with threads > hardware_concurrency report null (an
// oversubscribed "speedup" is noise, not signal). The --check gate requires
// the pool backend's seir-event speedup at 4 threads >= --min-scaling; it
// activates only when hardware_concurrency >= 4 and otherwise prints an
// explicit skip line -- never a silent pass.
//
// The JSON also dumps the work-stealing pool's observability counters
// (tasks run, steals, steal failures, idle wakeups) accumulated across the
// pool-backend cells.

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
#include "bench_common.hpp"
#include "core/bias_model.hpp"
#include "core/likelihood.hpp"
#include "io/args.hpp"
#include "parallel/parallel.hpp"
#include "random/seeding.hpp"

namespace {

using namespace epismc;

struct Timing {
  double min = 0.0;
  double median = 0.0;
};

struct Cell {
  std::string simulator;
  std::string pool_backend;
  int threads = 1;
  std::size_t n_sims = 0;
  Timing pass;
  bool bit_identical = false;
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
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 32));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 4));
  const auto abm_population = args.get_int("abm-population", 6000);
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const bool check = args.get_flag("check");
  const double min_scaling = args.get_double("min-scaling", 0.0);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_scaling.json");
  args.check_unused();

  constexpr std::int32_t kParentDay = 19;
  constexpr std::int32_t kToDay = 33;
  const std::size_t window_len = 14;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const unsigned hc = std::thread::hardware_concurrency();
  // Captured before any set_threads call: max_threads reports the last
  // value set, so this is the only moment it reflects the machine.
  const int machine_threads = parallel::max_threads();
  const parallel::PoolBackend ambient = parallel::backend();

  struct Simulator {
    std::string name;
    api::SimulatorSpec spec;
    std::size_t n_params;
  };
  // SEIR and chain-binomial run the paper's Chicago-scale spec; the ABM is
  // scaled down (its day cost is O(population)) but exercises the same
  // batch machinery.
  std::vector<Simulator> sims;
  sims.push_back(
      {"seir-event", api::scenarios().create("paper-baseline").simulator_spec(),
       n_params});
  sims.push_back({"chain-binomial", sims[0].spec, n_params});
  api::SimulatorSpec abm_spec;
  abm_spec.params.population = abm_population;
  abm_spec.initial_exposed = std::max<std::int64_t>(abm_population / 200, 10);
  sims.push_back({"abm", abm_spec, std::max<std::size_t>(n_params / 4, 8)});

  parallel::TaskPool::instance().reset_peak();
  std::vector<Cell> cells;
  bool determinism_broken = false;

  for (const Simulator& s : sims) {
    const auto sim = api::simulators().create(s.name, s.spec);
    const std::vector<epi::Checkpoint> parents = {
        sim->initial_state(kParentDay, 7)};
    core::EnsembleBuffer buf =
        make_buffer(s.n_params, replicates, window_len, 4242);

    // Warm up caches (delay tables, allocator) outside the timings, and
    // fix the observation series the scoring pass conditions on.
    sim->run_batch(parents, kToDay, buf, 0, buf.size());
    const core::BinomialBias bias;
    const core::GaussianSqrtLikelihood lik(1.0);
    const std::vector<double> observed(buf.true_cases(0).begin(),
                                       buf.true_cases(0).end());
    const core::ObservationCache cache = lik.prepare(observed);

    std::vector<double> scores(buf.size());
    // One propagate+score pass under the currently selected backend and
    // thread budget. Scratch is per-thread, indexed exactly like
    // batch_runner's workspaces: thread_id() < max_threads().
    const auto pass = [&] {
      sim->run_batch(parents, kToDay, buf, 0, buf.size());
      std::vector<std::vector<double>> scratch(
          static_cast<std::size_t>(parallel::max_threads()),
          std::vector<double>(window_len));
      parallel::parallel_for(buf.size(), [&](std::size_t i) {
        std::vector<double>& biased =
            scratch[static_cast<std::size_t>(parallel::thread_id())];
        rng::Engine eng =
            rng::make_engine(buf.seed[i], rng::StreamId{buf.stream[i]});
        bias.apply_into(eng, buf.true_cases(i), buf.rho[i], biased);
        scores[i] = lik.logpdf(cache, biased);
      });
    };

    // Serial 1-thread reference: the score vector every other cell must
    // reproduce bit-for-bit.
    parallel::set_backend(parallel::PoolBackend::kSerial);
    parallel::set_threads(1);
    pass();
    const std::vector<double> ref_scores = scores;

    for (const parallel::PoolBackend pb :
         {parallel::PoolBackend::kSerial, parallel::PoolBackend::kPool}) {
      for (const int threads : thread_counts) {
        parallel::set_backend(pb);
        parallel::set_threads(threads);
        Cell cell;
        cell.simulator = s.name;
        cell.pool_backend = parallel::backend_name(pb);
        cell.threads = threads;
        cell.n_sims = buf.size();
        pass();  // warm the worker team before timing
        cell.pass = time_repeats(repeats, pass);
        cell.bit_identical = scores == ref_scores;
        if (!cell.bit_identical) {
          determinism_broken = true;
          std::cerr << "CHECK FAILED: " << s.name << " x " << cell.pool_backend
                    << " x " << threads
                    << " threads produced different scores than the serial "
                       "1-thread reference\n";
        }
        cells.push_back(cell);
        std::cout << s.name << " x " << cell.pool_backend << " @ " << threads
                  << " threads: " << cell.pass.min * 1e3 << " ms (median "
                  << cell.pass.median * 1e3 << " ms)\n";
      }
    }
    parallel::set_backend(ambient);
    parallel::set_threads(machine_threads);
  }
  const parallel::PoolStats pool_stats = parallel::pool_stats();

  const auto seconds_at = [&](const std::string& simulator,
                              const std::string& pb, int threads) {
    for (const Cell& c : cells) {
      if (c.simulator == simulator && c.pool_backend == pb &&
          c.threads == threads) {
        return c.pass.min;
      }
    }
    return 0.0;
  };

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-thread-scaling-v1\",\n"
      << "  \"generated_by\": \"bench/bench_scaling\",\n"
      << "  \"workload\": \"propagate+score, paper-baseline single window, "
         "days 20-33\",\n"
      << bench::json_build_stamp() << "  \"hardware_concurrency\": " << hc
      << ",\n"
      << "  \"pool_backend\": \""
      << parallel::backend_name(ambient) << "\",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"replicates\": " << replicates << ",\n"
      << "  \"skipped_few_cores\": " << (hc < 4 ? "true" : "false") << ",\n"
      << "  \"pool_stats\": \"" << bench::json_escape(pool_stats.summary())
      << "\",\n"
      << "  \"thread_scaling\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"simulator\": \"" << c.simulator << "\", \"pool_backend\": \""
        << c.pool_backend << "\", \"threads\": " << c.threads
        << ", \"n_sims\": " << c.n_sims << ",\n"
        << "     \"seconds\": " << c.pass.min
        << ", \"seconds_median\": " << c.pass.median
        << ", \"bit_identical\": " << (c.bit_identical ? "true" : "false")
        << ", \"speedup_vs_1thread\": ";
    if (static_cast<unsigned>(c.threads) > hc) {
      out << "null";
    } else {
      out << seconds_at(c.simulator, c.pool_backend, 1) / c.pass.min;
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "Wrote " << out_path.string() << "\n"
            << "pool stats: " << pool_stats.summary() << "\n";

  bool failed = determinism_broken;
  if (check && min_scaling > 0.0) {
    if (hc < 4) {
      std::cout << "CHECK: hardware_concurrency " << hc
                << " < 4; thread-scaling gate skipped\n";
    } else {
      const double speedup = seconds_at("seir-event", "pool", 1) /
                             seconds_at("seir-event", "pool", 4);
      if (!(speedup >= min_scaling)) {
        std::cerr << "CHECK FAILED: seir-event pool backend is " << speedup
                  << "x at 4 threads vs 1 (required >= " << min_scaling
                  << "x)\n";
        failed = true;
      } else {
        std::cout << "CHECK: seir-event pool 4-thread speedup " << speedup
                  << "x >= " << min_scaling << "x\n";
      }
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
