// E13 / Microbenchmarks (google-benchmark): the kernels the SMC hot path is
// built from. Binomial sampling dominates the simulator step (every
// compartment transition and the bias model are binomial draws), so the
// BINV/BTPE regimes and the sojourn-time cohort split are measured
// separately; engine overhead, simulator day-steps, resampling, likelihood
// evaluation and checkpoint round-trips complete the picture.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "abm/agent_model.hpp"
#include "api/components.hpp"
#include "epi/delay.hpp"
#include "epi/seir_model.hpp"
#include "parallel/parallel.hpp"
#include "random/distributions.hpp"
#include "random/engines.hpp"
#include "random/seeding.hpp"
#include "simd/simd.hpp"
#include "stats/resampling.hpp"
#include "stats/weights.hpp"

namespace {

using namespace epismc;

void BM_PhiloxU64(benchmark::State& state) {
  rng::Engine eng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng());
  }
}
BENCHMARK(BM_PhiloxU64);

void BM_Xoshiro256ppU64(benchmark::State& state) {
  rng::Xoshiro256pp eng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng());
  }
}
BENCHMARK(BM_Xoshiro256ppU64);

void BM_NormalInverseCdf(benchmark::State& state) {
  rng::Engine eng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::normal(eng));
  }
}
BENCHMARK(BM_NormalInverseCdf);

void BM_BinomialSmallNp(benchmark::State& state) {
  // BINV inversion regime (n*p < 30) at n = 1000, swept over n*p: near
  // 0.1 most draws take the pow-free zero path, near 30 the search walks
  // ~30 steps. Arg is n*p in tenths.
  const double np = static_cast<double>(state.range(0)) / 10.0;
  rng::Engine eng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::binomial(eng, 1000, np / 1000.0));
  }
}
BENCHMARK(BM_BinomialSmallNp)->Arg(1)->Arg(10)->Arg(100)->Arg(290);

void BM_BinomialBtpe(benchmark::State& state) {
  // BTPE rejection regime; n at epidemic scale -- cost must stay O(1).
  const auto n = state.range(0);
  rng::Engine eng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::binomial(eng, n, 0.3));
  }
}
BENCHMARK(BM_BinomialBtpe)->Arg(1000)->Arg(100000)->Arg(2700000);

void BM_DelaySplit(benchmark::State& state) {
  // Cohort split over the paper's latent-period table: per-individual
  // sampling at 16, conditional binomials above.
  const epi::DiseaseParameters params;
  const epi::DelayDistribution delay(params.latent_period, params.erlang_shape,
                                     params.max_delay);
  std::vector<std::int64_t> out(static_cast<std::size_t>(delay.max_delay()));
  const std::int64_t cohort = state.range(0);
  rng::Engine eng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delay.split_into(eng, cohort, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DelaySplit)->Arg(16)->Arg(1000)->Arg(100000);

void BM_PoissonPtrs(benchmark::State& state) {
  rng::Engine eng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::poisson(eng, 500.0));
  }
}
BENCHMARK(BM_PoissonPtrs);

void BM_GammaMarsagliaTsang(benchmark::State& state) {
  rng::Engine eng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::gamma(eng, 4.0, 1.0));
  }
}
BENCHMARK(BM_GammaMarsagliaTsang);

void BM_SimulatorDayStep(benchmark::State& state) {
  // One day of the event-driven model mid-epidemic.
  epi::DiseaseParameters params;
  params.population = 2'700'000;
  epi::SeirModel model(params, epi::PiecewiseSchedule(0.3), 7);
  model.seed_exposed(400);
  model.run_until_day(40);  // reach a busy regime
  const epi::Checkpoint base = model.make_checkpoint();
  for (auto _ : state) {
    state.PauseTiming();
    epi::SeirModel m = epi::SeirModel::restore(base);
    state.ResumeTiming();
    m.step();
    benchmark::DoNotOptimize(m.day());
  }
}
BENCHMARK(BM_SimulatorDayStep);

void BM_AbmStep(benchmark::State& state) {
  // One mid-epidemic day of the agent-based model, fast (event-driven)
  // vs reference (per-agent scans), across populations: the scaling the
  // calendar-queue engine exists for. The model is restored fresh per
  // iteration so every measured step sees the same epidemic state.
  const std::int64_t population = state.range(0);
  const auto engine = static_cast<abm::AbmEngine>(state.range(1));
  abm::AbmConfig cfg;
  cfg.disease.population = population;
  cfg.engine = engine;
  abm::AgentBasedModel model(cfg, epi::PiecewiseSchedule(0.3), 7);
  model.seed_exposed(std::max<std::int64_t>(population / 200, 10));
  model.run_until_day(40);  // reach a busy regime
  const epi::Checkpoint base = model.make_checkpoint();
  for (auto _ : state) {
    state.PauseTiming();
    abm::AgentBasedModel m = abm::AgentBasedModel::restore(base);
    state.ResumeTiming();
    m.step();
    benchmark::DoNotOptimize(m.day());
  }
  state.SetLabel(std::string(abm::to_string(engine)));
  state.SetItemsProcessed(population * state.iterations());  // agent-days
}
BENCHMARK(BM_AbmStep)
    ->ArgNames({"population", "engine"})
    ->ArgsProduct({{20000, 200000, 1000000},
                   {static_cast<int>(abm::AbmEngine::kFast),
                    static_cast<int>(abm::AbmEngine::kReference)}})
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatorFullWindow(benchmark::State& state) {
  // A 14-day calibration window branched from a checkpoint: the unit of
  // work the particle loop parallelizes.
  epi::DiseaseParameters params;
  params.population = 2'700'000;
  epi::SeirModel model(params, epi::PiecewiseSchedule(0.3), 8);
  model.seed_exposed(400);
  model.run_until_day(19);
  const epi::Checkpoint base = model.make_checkpoint();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    epi::RestartOverrides ovr;
    ovr.seed = ++seed;
    ovr.transmission_rate = 0.3;
    epi::SeirModel m = epi::SeirModel::restore(base, ovr);
    m.run_until_day(33);
    benchmark::DoNotOptimize(m.census());
  }
}
BENCHMARK(BM_SimulatorFullWindow);

void BM_CheckpointRoundTrip(benchmark::State& state) {
  epi::DiseaseParameters params;
  params.population = 2'700'000;
  epi::SeirModel model(params, epi::PiecewiseSchedule(0.3), 9);
  model.seed_exposed(400);
  model.run_until_day(50);
  for (auto _ : state) {
    const epi::Checkpoint ckpt = model.make_checkpoint();
    benchmark::DoNotOptimize(epi::SeirModel::restore(ckpt).day());
  }
}
BENCHMARK(BM_CheckpointRoundTrip);

void BM_Resampling(benchmark::State& state) {
  const auto scheme = static_cast<stats::ResamplingScheme>(state.range(0));
  const std::size_t n = 100000;
  rng::Engine weight_eng(10);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng::uniform_double_oo(weight_eng);
  rng::Engine eng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::resample(scheme, eng, weights, n / 10));
  }
}
BENCHMARK(BM_Resampling)
    ->Arg(static_cast<int>(stats::ResamplingScheme::kMultinomial))
    ->Arg(static_cast<int>(stats::ResamplingScheme::kSystematic))
    ->Arg(static_cast<int>(stats::ResamplingScheme::kResidual));

void BM_NormalizeLogWeights(benchmark::State& state) {
  rng::Engine eng(12);
  std::vector<double> lw(100000);
  for (auto& v : lw) v = -1000.0 + 50.0 * rng::normal(eng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::normalize_log_weights(lw));
  }
}
BENCHMARK(BM_NormalizeLogWeights);

void BM_EnsemblePropagate(benchmark::State& state) {
  // run_batch vs the per-sim reference path (one run_window per
  // trajectory), per backend and thread count: the unit of work
  // run_importance_window hands to the execution engine. See
  // bench_ensemble for the JSON-emitting variant tracked in
  // BENCH_ensemble.json.
  static const char* kBackends[] = {"seir-event", "chain-binomial", "abm"};
  const char* backend = kBackends[state.range(0)];
  const bool use_batch = state.range(1) != 0;
  const int threads = static_cast<int>(state.range(2));

  api::SimulatorSpec spec;
  spec.params.population = state.range(0) == 2 ? 6'000 : 300'000;
  spec.initial_exposed = spec.params.population / 400;
  const auto sim = api::simulators().create(backend, spec);
  const core::PerSimReference persim(*sim);
  const std::vector<epi::Checkpoint> parents = {sim->initial_state(19, 7)};

  const std::size_t n_sims = state.range(0) == 2 ? 8 : 32;
  core::EnsembleBuffer buf(n_sims, 14);
  for (std::size_t s = 0; s < n_sims; ++s) {
    buf.parent[s] = 0;
    buf.theta[s] = 0.15 + 0.005 * static_cast<double>(s);
    buf.seed[s] = 4242;
    buf.stream[s] = rng::make_stream_id({0x4D4F44454Cull, 0, s}).key;
  }

  // max_threads() reports the last set_threads value, so capture the
  // machine default once (before the first benchmark mutates it).
  static const int kMachineThreads = parallel::max_threads();
  parallel::set_threads(threads);
  const core::Simulator& driver = use_batch
                                      ? static_cast<const core::Simulator&>(*sim)
                                      : persim;
  for (auto _ : state) {
    driver.run_batch(parents, 33, buf, 0, n_sims);
    benchmark::DoNotOptimize(buf.true_cases(0).data());
  }
  parallel::set_threads(kMachineThreads);
  state.SetItemsProcessed(static_cast<std::int64_t>(n_sims) *
                          state.iterations());
}
BENCHMARK(BM_EnsemblePropagate)
    ->ArgNames({"backend", "batch", "threads"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {1, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_ParallelFor(benchmark::State& state) {
  // parallel_for dispatch overhead per backend: a loop of `count` indices
  // whose body spins for `body_ns` of work-alike arithmetic. Small counts
  // with cheap bodies measure pure scheduling cost; large counts with
  // heavier bodies show where the pool's steal-half splitting amortizes.
  // Thread budget is the machine default; serial cells are the
  // no-machinery baseline.
  const auto backend = static_cast<parallel::PoolBackend>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const auto body_spin = static_cast<int>(state.range(2));
  const parallel::ScopedBackend guard(backend);
  std::vector<double> out(count);
  for (auto _ : state) {
    parallel::parallel_for(count, [&](std::size_t i) {
      double acc = static_cast<double>(i) + 1.0;
      for (int k = 0; k < body_spin; ++k) acc = acc * 1.0000001 + 1e-9;
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(parallel::backend_name(backend));
  state.SetItemsProcessed(static_cast<std::int64_t>(count) *
                          state.iterations());
}
BENCHMARK(BM_ParallelFor)
    ->ArgNames({"backend", "count", "spin"})
    ->ArgsProduct({{static_cast<int>(parallel::PoolBackend::kSerial),
                    static_cast<int>(parallel::PoolBackend::kPool)},
                   {64, 4096},
                   {0, 400}});

void BM_PoolSubmit(benchmark::State& state) {
  // Raw TaskPool::run round-trip for a single already-split range: the
  // floor cost of one external submission (root-lane claim, wake, join)
  // that every pool-backend parallel_for pays once.
  const parallel::ScopedBackend guard(parallel::PoolBackend::kPool);
  const auto fn = +[](void*, std::size_t, std::size_t) {};
  parallel::TaskPool::instance().run(1, 1, fn, nullptr);  // spawn workers
  for (auto _ : state) {
    parallel::TaskPool::instance().run(1, 1, fn, nullptr);
  }
}
BENCHMARK(BM_PoolSubmit);

bool level_compiled(simd::SimdLevel level) {
  for (const simd::SimdLevel l : simd::compiled_levels()) {
    if (l == level) return true;
  }
  return false;
}

void BM_PhiloxBlock(benchmark::State& state) {
  // Batched counter-mode block generation per ISA table: the refill path
  // behind PhiloxEngine. Output is bit-identical at every level, so this
  // is a pure throughput comparison.
  const auto level = static_cast<simd::SimdLevel>(state.range(0));
  const auto n_blocks = static_cast<std::size_t>(state.range(1));
  if (!level_compiled(level) || level > simd::host_level()) {
    state.SkipWithError("level not compiled in or not host-supported");
    return;
  }
  const simd::KernelTable& kt = simd::table_for(level);
  std::vector<std::uint64_t> out(2 * n_blocks);
  std::uint64_t block0 = 0;
  for (auto _ : state) {
    kt.philox_fill(1, 2, block0, out.data(), n_blocks);
    block0 += n_blocks;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(simd::level_name(level));
  state.SetItemsProcessed(static_cast<std::int64_t>(n_blocks) *
                          state.iterations());  // blocks (128 bits each)
}
BENCHMARK(BM_PhiloxBlock)
    ->ArgNames({"level", "blocks"})
    ->ArgsProduct({{static_cast<int>(simd::SimdLevel::kScalar),
                    static_cast<int>(simd::SimdLevel::kSse41),
                    static_cast<int>(simd::SimdLevel::kAvx2),
                    static_cast<int>(simd::SimdLevel::kAvx512)},
                   {16, 256}});

void BM_ScoreKernel(benchmark::State& state) {
  // The fused bias+likelihood scoring inner product per ISA level and
  // likelihood family -- the kernel the BENCH_ensemble speedup gate
  // tracks. Series length matches a calibration window's day count.
  const auto level = static_cast<simd::SimdLevel>(state.range(0));
  const auto family = state.range(1);  // 0 gaussian-sqrt, 1 nb-sqrt, 2 poisson
  if (!level_compiled(level) || level > simd::host_level()) {
    state.SkipWithError("level not compiled in or not host-supported");
    return;
  }
  const simd::KernelTable& kt = simd::table_for(level);
  const std::size_t len = 28;
  std::vector<double> t0(len), t1(len), sim(len);
  for (std::size_t i = 0; i < len; ++i) {
    t0[i] = std::sqrt(90.0 + 11.0 * static_cast<double>(i % 13));
    t1[i] = 0.4 * static_cast<double>(i);
    sim[i] = 85.0 + 13.0 * static_cast<double>(i % 17);
  }
  static const char* kFamilies[] = {"gaussian-sqrt", "nb-sqrt", "poisson"};
  for (auto _ : state) {
    double score = 0.0;
    switch (family) {
      case 0:
        score = kt.score_gaussian_sqrt(t0.data(), sim.data(), len, 1.3);
        break;
      case 1:
        score = kt.score_nb_sqrt(t0.data(), sim.data(), len, 80.0);
        break;
      default:
        score = kt.score_poisson(t0.data(), t1.data(), sim.data(), len, 1e-8);
        break;
    }
    benchmark::DoNotOptimize(score);
  }
  state.SetLabel(std::string(simd::level_name(level)) + "/" +
                 kFamilies[family]);
  state.SetItemsProcessed(static_cast<std::int64_t>(len) * state.iterations());
}
BENCHMARK(BM_ScoreKernel)
    ->ArgNames({"level", "family"})
    ->ArgsProduct({{static_cast<int>(simd::SimdLevel::kScalar),
                    static_cast<int>(simd::SimdLevel::kSse41),
                    static_cast<int>(simd::SimdLevel::kAvx2),
                    static_cast<int>(simd::SimdLevel::kAvx512)},
                   {0, 1, 2}});

void BM_BinomialLanes(benchmark::State& state) {
  // Counter-segmented lane binomials per ISA level: the draw kernel behind
  // the vectorized bias model and chain-binomial day step. Results are
  // identical at every level; only throughput differs.
  const auto level = static_cast<simd::SimdLevel>(state.range(0));
  const auto n_trial = static_cast<std::int64_t>(state.range(1));
  if (!level_compiled(level) || level > simd::host_level()) {
    state.SkipWithError("level not compiled in or not host-supported");
    return;
  }
  const simd::KernelTable& kt = simd::table_for(level);
  const std::size_t count = 64;
  std::vector<std::uint64_t> seg(count);
  std::vector<std::int64_t> n(count, n_trial);
  std::vector<double> p(count, 0.12);
  std::vector<std::int64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) seg[i] = i * 64;
  for (auto _ : state) {
    kt.binomial_lanes(21, 9, seg.data(), n.data(), p.data(), count,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(simd::level_name(level));
  state.SetItemsProcessed(static_cast<std::int64_t>(count) *
                          state.iterations());
}
BENCHMARK(BM_BinomialLanes)
    ->ArgNames({"level", "n"})
    ->ArgsProduct({{static_cast<int>(simd::SimdLevel::kScalar),
                    static_cast<int>(simd::SimdLevel::kSse41),
                    static_cast<int>(simd::SimdLevel::kAvx2),
                    static_cast<int>(simd::SimdLevel::kAvx512)},
                   {100, 5000}});  // BINV regime / BTPE regime

void BM_GaussianSqrtLikelihood(benchmark::State& state) {
  // Via the registry and the Likelihood base pointer on purpose: the
  // importance-sampling hot path always scores through exactly this
  // virtual call, so this measures the production calling convention
  // (dispatch included), not a devirtualized best case it never sees.
  const auto lik = api::likelihoods().create("gaussian-sqrt", 1.0);
  std::vector<double> y(14);
  std::vector<double> eta(14);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 100.0 + 10.0 * static_cast<double>(i);
    eta[i] = 105.0 + 9.0 * static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lik->logpdf(y, eta));
  }
}
BENCHMARK(BM_GaussianSqrtLikelihood);

}  // namespace

// BENCHMARK_MAIN, except that an unrecognized flag exits 2 like every
// other bench and example.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
