#include "workloads.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "api/api.hpp"
#include "io/binary_archive.hpp"
#include "parallel/parallel.hpp"
#include "random/engines.hpp"
#include "stats/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace epismc;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The paper's four calibration windows (days 20-75), shared by all three
// workloads.
std::vector<std::pair<std::int32_t, std::int32_t>> windows() {
  return {{20, 33}, {34, 47}, {48, 61}, {62, 75}};
}

// Budgets are scaled down from the paper run so that one pass takes a few
// seconds on a 4-core host and a run holds several passes.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = [] {
    std::vector<WorkloadSpec> t(3);
    t[0].name = "seir-batch";
    t[0].scenario = "paper-baseline";
    t[0].simulator = "seir-event";
    t[0].inference = "single-stage";
    t[0].n_params = 60;
    t[0].replicates = 10;
    t[0].resample = 120;
    t[0].crps_passes = 80;

    t[1].name = "chain-stream";
    t[1].scenario = "paper-baseline";
    t[1].simulator = "chain-binomial";
    t[1].inference = "tempered";
    t[1].n_params = 250;
    t[1].replicates = 10;
    t[1].resample = 500;
    t[1].streaming = true;
    t[1].crps_passes = 36;

    t[2].name = "abm-tempered";
    t[2].scenario = "abm-truth";
    t[2].simulator = "abm";
    t[2].inference = "tempered+rejuvenate";
    t[2].n_params = 12;
    t[2].replicates = 5;
    t[2].resample = 24;
    t[2].rejuvenation_moves = 2;
    t[2].crps_passes = 64;
    return t;
  }();
  return table;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_vec(std::uint64_t h, const std::vector<T>& v) {
  return fnv(h, v.data(), v.size() * sizeof(T));
}

// Digest of one window: normalized weights, resampled sim ids and the
// posterior (theta, rho) draws (rejuvenation overlays included).
std::uint64_t window_digest(std::uint64_t h, const core::WindowResult& w) {
  h = fnv_vec(h, w.weights);
  h = fnv_vec(h, w.resampled);
  for (std::size_t i = 0; i < w.n_draws(); ++i) {
    const double theta = w.draw_theta(i);
    const double rho = w.draw_rho(i);
    h = fnv(h, &theta, sizeof theta);
    h = fnv(h, &rho, sizeof rho);
  }
  return h;
}

std::uint64_t snapshot_digest(const stream::StreamingCalibrator& calibrator) {
  io::BinaryWriter out(stream::StreamState::kArchiveVersion);
  calibrator.snapshot().serialize(out);
  return fnv(kFnvOffset, out.bytes().data(), out.bytes().size());
}

WindowStats window_stats(const core::WindowResult& w) {
  WindowStats s;
  s.ess_frac = w.diag.n_sims > 0
                   ? w.diag.ess / static_cast<double>(w.diag.n_sims)
                   : 0.0;
  s.rungs = w.smc.stages.size();
  s.moves_proposed = w.smc.rejuvenation_proposed;
  s.moves_accepted = w.smc.rejuvenation_accepted;
  if (w.state_pool) {
    s.statepool_mb = static_cast<double>(w.state_count()) *
                     static_cast<double>(w.state_pool->approx_state_bytes()) /
                     1e6;
  }
  s.inline_capture = w.diag.inline_capture;
  return s;
}

bool finite_window(const core::WindowDiagnostics& d) {
  return std::isfinite(d.ess) && std::isfinite(d.log_marginal);
}

// Mean over windows of the CRPS of the posterior draws against the truth's
// parameter at the window start.
void score_posteriors(const std::vector<core::WindowResult>& results,
                      const core::GroundTruth& truth, PassResult& out) {
  double theta = 0;
  double rho = 0;
  for (const core::WindowResult& w : results) {
    std::vector<double> thetas(w.n_draws());
    std::vector<double> rhos(w.n_draws());
    for (std::size_t i = 0; i < w.n_draws(); ++i) {
      thetas[i] = w.draw_theta(i);
      rhos[i] = w.draw_rho(i);
    }
    out.window_theta_crps.push_back(
        stats::crps_ensemble(thetas, truth.theta_at(w.from_day)));
    out.window_rho_crps.push_back(
        stats::crps_ensemble(rhos, truth.rho_at(w.from_day)));
    theta += out.window_theta_crps.back();
    rho += out.window_rho_crps.back();
  }
  const double n = results.empty() ? 1.0 : static_cast<double>(results.size());
  out.theta_crps = theta / n;
  out.rho_crps = rho / n;
}

void digest_results(const std::vector<core::WindowResult>& results,
                    PassResult& out) {
  std::uint64_t h = kFnvOffset;
  for (const core::WindowResult& w : results) {
    h = window_digest(h, w);
    out.windows.push_back(window_stats(w));
  }
  out.digest = h;
}

void fail(PassResult& out, std::int64_t ops, std::string why) {
  out.failed += ops;
  out.errors.push_back(std::move(why));
}

// Size of the rotated slot written last (the newer of <base>.a/.b).
double newest_slot_bytes(const fs::path& base) {
  std::optional<fs::file_time_type> best;
  double bytes = 0;
  for (const char* suffix : {".a", ".b"}) {
    const fs::path slot = base.string() + suffix;
    std::error_code ec;
    const auto mtime = fs::last_write_time(slot, ec);
    if (ec) continue;
    if (!best || mtime > *best) {
      best = mtime;
      bytes = static_cast<double>(fs::file_size(slot, ec));
    }
  }
  return bytes;
}

void calibrate_batch(api::CalibrationSession& session,
                     const core::GroundTruth& truth, PassResult& out) {
  const std::size_t n_windows = session.config().windows.size();
  const auto t0 = Clock::now();
  for (std::size_t m = 0; m < n_windows; ++m) {
    ++out.attempted;
    try {
      tracer().begin_operation();
      const auto tw = Clock::now();
      const core::WindowResult* w = nullptr;
      {
        ScopedSpan span("core.window");
        w = &session.run_next_window();
      }
      const double ms = seconds_since(tw) * 1e3;
      // Every day of a window is assimilated when the window's call
      // returns: each carries the window's latency.
      for (std::size_t d = 0; d < w->window_length(); ++d) {
        out.day_latency_ms.push_back(ms);
      }
      if (!finite_window(w->diag)) {
        fail(out, 1, "window " + std::to_string(m) + ": non-finite ESS or evidence");
      }
    } catch (const std::exception& e) {
      fail(out, static_cast<std::int64_t>(n_windows - m),
           "window " + std::to_string(m) + ": " + e.what());
      out.attempted += static_cast<std::int64_t>(n_windows - m - 1);
      break;
    }
  }
  out.wall_s = seconds_since(t0);
  ScopedSpan span("bench.check");
  score_posteriors(session.results(), truth, out);
  digest_results(session.results(), out);
}

// A rotated checkpoint every 7 days, on the 4th day of each week of the
// feed: with the paper's 14-day windows every save then falls mid-window
// and carries the live particle cloud, so the saves form one cost group
// instead of straddling the day-latency p90.
constexpr int kCheckpointEveryDays = 7;
constexpr int kCheckpointDayOffset = 3;

void calibrate_stream(api::CalibrationSession& session,
                      stream::StreamingCalibrator& live, const fs::path& ckpt,
                      const core::GroundTruth& truth, bool verify_reload,
                      PassResult& out) {
  const core::ObservedData data = truth.observed();
  const auto& wins = session.config().windows;
  const std::int32_t first = wins.front().first;
  const std::int32_t last = wins.back().second;

  std::int32_t last_checkpoint = first - 1;
  for (std::int32_t day = first; day <= last; ++day) {
    if ((day - first) % kCheckpointEveryDays == kCheckpointDayOffset) {
      last_checkpoint = day;
    }
  }
  std::uint64_t checkpointed_digest = 0;
  double untimed_s = 0;  // snapshot digest for the reload check

  const auto t0 = Clock::now();
  for (std::int32_t day = first; day <= last; ++day) {
    ++out.attempted;
    try {
      tracer().begin_operation();
      const auto td = Clock::now();
      const std::size_t closed_before = live.windows_completed();
      const stream::StreamDayRecord* rec = nullptr;
      {
        ScopedSpan span("stream.ingest");
        rec = &live.ingest({day, data.cases_at(day), std::nullopt});
        if (live.windows_completed() > closed_before) {
          span.rename_on_close("stream.window_close");
        }
      }
      const bool closed = live.windows_completed() > closed_before;
      const double ingest_ms = seconds_since(td) * 1e3;
      if ((day - first) % kCheckpointEveryDays == kCheckpointDayOffset) {
        const auto tc = Clock::now();
        {
          ScopedSpan span("io.checkpoint.save");
          live.checkpoint_now();
        }
        out.checkpoint_save_s += seconds_since(tc);
        ++out.checkpoint_saves;
        out.checkpoint_bytes += newest_slot_bytes(ckpt);
      }
      out.day_latency_ms.push_back(seconds_since(td) * 1e3);
      if (verify_reload && day == last_checkpoint) {
        ScopedSpan span("bench.check");
        const auto ts = Clock::now();
        checkpointed_digest = snapshot_digest(live);
        untimed_s += seconds_since(ts);
      }
      if (closed) out.window_close_ms.push_back(ingest_ms);
      if (rec->resampled) ++out.resample_days;
      bool finite = std::isfinite(rec->ess) && std::isfinite(rec->log_marginal);
      if (closed) finite = finite && finite_window(live.history().back().diag);
      if (!finite) {
        fail(out, 1, "day " + std::to_string(day) + ": non-finite ESS or evidence");
      }
    } catch (const std::exception& e) {
      const auto left = static_cast<std::int64_t>(last - day + 1);
      fail(out, left, "day " + std::to_string(day) + ": " + e.what());
      out.attempted += left - 1;
      break;
    }
  }
  out.wall_s = seconds_since(t0) - untimed_s;
  ScopedSpan span("bench.check");
  score_posteriors(live.results(), truth, out);
  digest_results(live.results(), out);
  if (!verify_reload) return;

  // The newest rotated slot (a mid-window save), reloaded into a fresh
  // calibrator, must reproduce the live session's snapshot taken right
  // after that save.
  ++out.attempted;
  try {
    const auto tl = Clock::now();
    std::optional<stream::StreamingCalibrator> reloaded;
    {
      ScopedSpan span("io.checkpoint.load");
      api::StreamOptions opts;
      opts.checkpoint_every = std::numeric_limits<std::int64_t>::max();
      opts.checkpoint_path = ckpt;
      opts.resume_latest = true;
      reloaded.emplace(session.stream(opts));
    }
    out.checkpoint_load_s = seconds_since(tl);
    if (!reloaded->last_recovery()) {
      fail(out, 1, "checkpoint reload: no slot recovered");
    } else if (snapshot_digest(*reloaded) != checkpointed_digest) {
      fail(out, 1, "checkpoint reload: snapshot digest differs from live");
    }
  } catch (const std::exception& e) {
    fail(out, 1, std::string("checkpoint reload: ") + e.what());
  }
}

}  // namespace

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : workloads()) names.push_back(w.name);
  return names;
}

std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t k) {
  return rng::hash_combine(seed, k);
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                    const fs::path& work_dir, int lanes,
                    bool verify_reload) {
  PassResult out;
  out.seed = seed;
  const std::string prefix = traced ? "traced:" : "";
  const fs::path ckpt = work_dir / "stream.ckpt";
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  // --- Set-up: truth, session build, pool spawn. ---------------------------
  const auto t0 = Clock::now();
  std::optional<core::GroundTruth> truth;
  api::ScenarioPreset preset = api::scenarios().create(spec.scenario);
  preset.scenario.seed = seed;
  {
    ScopedSpan span("api.truth");
    truth.emplace(preset.make_truth());
  }

  api::CalibrationSession session;
  std::optional<stream::StreamingCalibrator> live;
  {
    ScopedSpan span("setup.session");
    session.with_simulator(prefix + spec.simulator, preset.simulator_spec())
        .with_data(truth->observed())
        .with_windows(windows())
        .with_budget(spec.n_params, spec.replicates, spec.resample)
        .with_likelihood(prefix + kLikelihood, kLikelihoodParameter)
        .with_bias(prefix + kBias)
        .with_inference(spec.inference)
        .with_seed(seed);
    if (spec.rejuvenation_moves > 0) {
      session.with_rejuvenation_moves(spec.rejuvenation_moves);
    }
    if (spec.simulator == "abm") session.with_abm_engine("fast");
    if (spec.streaming) {
      // Checkpoints are taken by the benchmark (checkpoint_now every
      // seven days) so their cost is timed apart from ingest(); the
      // library's own cadence is set beyond any feed length.
      api::StreamOptions opts;
      opts.checkpoint_every = std::numeric_limits<std::int64_t>::max();
      opts.checkpoint_path = ckpt;
      live.emplace(session.stream(opts));
    } else {
      (void)session.calibrator();
    }
    // Respawn the pool's workers so every pass pays the spawn in set-up.
    parallel::prepare_fork();
    parallel::parallel_for(static_cast<std::size_t>(lanes), [](std::size_t) {});
  }
  out.setup_s = seconds_since(t0);

  // Weighted-pass trajectory-days: every sim runs from the burn-in day
  // through the last window's end once, batch or streaming; deferred
  // replay and rejuvenation re-propagation are extra work on top.
  const core::CalibrationConfig& cal = session.config();
  out.weighted_sim_days =
      static_cast<double>(spec.n_params * spec.replicates) *
      static_cast<double>(cal.windows.back().second - cal.burnin_day);

  if (spec.streaming) {
    calibrate_stream(session, *live, ckpt, *truth, verify_reload, out);
  } else {
    calibrate_batch(session, *truth, out);
  }
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return out;
}

}  // namespace perfbench
