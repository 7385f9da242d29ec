// perfbench: the repository benchmark program.
//
//   perfbench --workload <seir-batch|chain-stream|abm-tempered>
//             --seed <n> --seconds <n> --trace <0|1>
//             [--work-dir <dir>] [--out-dir <dir>]
//
// --trace 0 (timed run): one untimed warm-up pass, then passes with seeds
// derived from --seed until --seconds have elapsed; prints the end-to-end
// metrics.
// --trace 1 (traced run): a warm-up pass, then kTracedRepeats times an
// untraced pass for reference and the same pass with the timing
// decorators at min(4, nproc) lanes and at 1 lane; prints the per-layer
// table and metrics and writes a Chrome trace.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Bad flags and --help print the usage and exit 2.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "parallel/parallel.hpp"
#include "simd/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  fs::path work_dir = ".bench_build/work";
  fs::path out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "perfbench: " << error << "\n";
  std::cerr << "usage: perfbench --workload <";
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <1-600> --trace <0|1>\n"
               "                 [--work-dir <dir>] [--out-dir <dir>]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos ||
      value.size() > 19) {
    usage("--" + flag + " needs a non-negative integer, got '" + value + "'");
  }
  return std::stoull(value);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage("");
    if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
    std::string key = arg.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) usage("--" + key + " needs a value");
      value = argv[++i];
    }
    if (seen.count(key)) usage("--" + key + " given twice");
    seen[key] = value;
  }
  for (const auto& [key, value] : seen) {
    if (key == "workload") {
      const auto names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        usage("unknown workload '" + value + "'");
      }
      o.workload = value;
    } else if (key == "seed") {
      o.seed = parse_uint(key, value);
    } else if (key == "seconds") {
      const std::uint64_t s = parse_uint(key, value);
      if (s < 1 || s > 600) usage("--seconds must be in 1..600");
      o.seconds = static_cast<int>(s);
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1" ? 1 : 0;
    } else if (key == "work-dir") {
      if (value.empty()) usage("--work-dir needs a directory");
      o.work_dir = value;
    } else if (key == "out-dir") {
      if (value.empty()) usage("--out-dir needs a directory");
      o.out_dir = value;
    } else {
      usage("unknown flag --" + key);
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!seen.count(required)) usage(std::string("--") + required + " is required");
  }
  return o;
}

int host_cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::string stamp_json(const Options& o, int lanes) {
  std::string s = "{\n";
  s += epismc::bench::json_build_stamp("  ");
  s += "  \"nproc\": " + std::to_string(host_cores()) + ",\n";
  s += "  \"lanes\": " + std::to_string(lanes) + ",\n";
  s += std::string("  \"pool_backend\": \"") +
       epismc::parallel::backend_name(epismc::parallel::backend()) + "\",\n";
  s += std::string("  \"simd_level\": \"") +
       epismc::simd::level_name(epismc::simd::active_level()) + "\",\n";
  s += "  \"workload\": \"" + o.workload + "\",\n";
  s += "  \"seed\": " + std::to_string(o.seed) + ",\n";
  s += "  \"trace\": " + std::to_string(o.trace) + "\n}";
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string skipped;  // non-empty: not measured on this host, and why
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& e : r.errors) errors.push_back(e);
  }
  void check_digest(const std::string& what, std::uint64_t want,
                    std::uint64_t got) {
    ++attempted;
    if (want != got) {
      ++failed;
      errors.push_back("digest mismatch: " + what);
    }
  }
};

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const auto& e : outcome.errors) std::cout << "# error: " << e << "\n";
  std::ostringstream s;
  s << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << outcome.attempted
    << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
      << (m.skipped.empty() ? num(m.value) : "null") << ", \"unit\": \""
      << m.unit << "\"";
    if (!m.skipped.empty()) s << ", \"skipped\": \"" << m.skipped << "\"";
    s << "}";
  }
  s << "}}";
  std::cout << s.str() << std::endl;
}

int timed_run(const Options& o, const WorkloadSpec& spec, int lanes) {
  Outcome outcome;
  const fs::path work = o.work_dir / (spec.name + "-timed");
  const PassResult warm =
      run_pass(spec, pass_seed(o.seed, 0), false, work, lanes, false);
  outcome.add(warm);

  std::vector<PassResult> passes;
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // --seconds alone sets the run length. Passes take different seeds, so
  // run-to-run differences in the inputs average out.
  while (passes.empty() || elapsed() < o.seconds) {
    passes.push_back(run_pass(spec, pass_seed(o.seed, passes.size()), false,
                              work, lanes, passes.empty()));
    outcome.add(passes.back());
    const PassResult& p = passes.back();
    std::cout << "# pass " << passes.size() - 1 << " seed " << p.seed
              << " setup_s " << num(p.setup_s) << " wall_s " << num(p.wall_s)
              << " checkpoint_save_s " << num(p.checkpoint_save_s)
              << " theta_crps " << num(p.theta_crps) << " rho_crps "
              << num(p.rho_crps) << " windows";
    for (std::size_t w = 0; w < p.window_theta_crps.size(); ++w) {
      std::cout << " " << num(p.window_theta_crps[w]) << "/"
                << num(p.window_rho_crps[w]);
    }
    std::cout << "\n";
  }
  outcome.check_digest("warm-up vs first timed pass", warm.digest,
                       passes.front().digest);

  std::vector<double> setup, wall, rate, latency, theta_crps, rho_crps;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const PassResult& p = passes[k];
    setup.push_back(p.setup_s);
    wall.push_back(p.wall_s);
    rate.push_back(p.weighted_sim_days / p.wall_s);
    latency.insert(latency.end(), p.day_latency_ms.begin(), p.day_latency_ms.end());
    if (k < spec.crps_passes) {
      theta_crps.push_back(p.theta_crps);
      rho_crps.push_back(p.rho_crps);
    }
  }
  // A slow host fits fewer passes into --seconds. The CRPS then covers the
  // passes that ran: it no longer repeats exactly for the seed, but nothing
  // is wrong with the program, so this is a note and not a failed operation.
  if (passes.size() < spec.crps_passes) {
    std::cout << "# note: " << passes.size() << " of " << spec.crps_passes
              << " CRPS passes fit --seconds; theta_crps and rho_crps cover "
              << passes.size() << "\n";
  }
  const std::size_t beyond_p90 =
      latency.size() -
      static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(latency.size())));
  std::cout << "# passes " << passes.size() << ", day-latency samples "
            << latency.size() << " (" << beyond_p90 << " beyond p90), ms at"
            << " p75 " << num(percentile(latency, 0.75)) << " p95 "
            << num(percentile(latency, 0.95)) << " p99 "
            << num(percentile(latency, 0.99)) << "\n";
  print_result(outcome,
               {{"setup_s", median(setup), "s", ""},
                {"wall_s", median(wall), "s", ""},
                {"traj_days_per_s", median(rate), "1/s", ""},
                {"day_latency_p50_ms", percentile(latency, 0.5), "ms", ""},
                {"day_latency_p90_ms", percentile(latency, 0.9), "ms", ""},
                {"peak_rss_mb", peak_rss_mb(), "MB", ""},
                {"theta_crps", mean(theta_crps), "crps", ""},
                {"rho_crps", mean(rho_crps), "crps", ""}});
  return 0;
}

double layer_self(const std::vector<LayerRow>& rows, const std::string& layer) {
  for (const LayerRow& r : rows) {
    if (r.layer == layer) return r.self_s;
  }
  return 0;
}

double layer_total(const std::vector<LayerRow>& rows, const std::string& layer) {
  for (const LayerRow& r : rows) {
    if (r.layer == layer) return r.total_s;
  }
  return 0;
}

struct TracedPass {
  PassResult result;
  double pass_s = 0;  // whole run_pass call
  std::vector<Span> spans;
  PropagateTotals totals;
};

TracedPass traced_pass(const WorkloadSpec& spec, std::uint64_t seed,
                       const fs::path& work, int lanes) {
  TracedPass t;
  tracer().arm();
  const auto t0 = Clock::now();
  t.result = run_pass(spec, seed, true, work, lanes, true);
  t.pass_s = std::chrono::duration<double>(Clock::now() - t0).count();
  tracer().disarm();
  t.spans = tracer().spans();
  t.totals = tracer().totals();
  return t;
}

// The traced passes of one lane count, laid end to end.
struct TracedSide {
  std::vector<Span> spans;
  PropagateTotals totals;
  double pass_s = 0;
  std::vector<PassResult> results;

  void add(const TracedPass& t) {
    const auto offset_ns = static_cast<std::int64_t>(pass_s * 1e9);
    const int id_offset = static_cast<int>(spans.size());
    for (Span span : t.spans) {
      span.start_ns += offset_ns;
      span.end_ns += offset_ns;
      span.id += id_offset;
      if (span.parent >= 0) span.parent += id_offset;
      spans.push_back(std::move(span));
    }
    totals.sim_days += t.totals.sim_days;
    totals.weighted_sim_days += t.totals.weighted_sim_days;
    totals.score_calls += t.totals.score_calls;
    totals.score_lane_ns += t.totals.score_lane_ns;
    pass_s += t.pass_s;
    results.push_back(t.result);
  }
};

// Traced repeats per run: each repeat is an untraced pass, a traced pass
// at N lanes and a traced pass at 1 lane on the same seed. Per-layer
// metrics are means per pass over the repeats.
constexpr int kTracedRepeats = 5;

int traced_run(const Options& o, const WorkloadSpec& spec, int lanes) {
  namespace par = epismc::parallel;
  Outcome outcome;
  const fs::path work = o.work_dir / (spec.name + "-traced");

  const PassResult warm =
      run_pass(spec, pass_seed(o.seed, 0), false, work, lanes, true);
  outcome.add(warm);
  register_traced(spec.simulator, kLikelihood, kBias);

  TracedSide n_lane, one_lane;
  double untraced_s = 0;
  std::uint64_t steals = 0, steal_failures = 0;
  std::vector<double> lane_iters(static_cast<std::size_t>(lanes), 0.0);
  int peak_active = 0;
  for (int k = 0; k < kTracedRepeats; ++k) {
    const std::uint64_t seed = pass_seed(o.seed, static_cast<std::uint64_t>(k));
    const auto tu = Clock::now();
    const PassResult untraced = run_pass(spec, seed, false, work, lanes, true);
    untraced_s += std::chrono::duration<double>(Clock::now() - tu).count();
    outcome.add(untraced);
    if (k == 0) {
      outcome.check_digest("untraced repeat", warm.digest, untraced.digest);
    }

    const par::PoolStats before = par::pool_stats();
    par::TaskPool::instance().reset_peak();
    const TracedPass traced = traced_pass(spec, seed, work, lanes);
    const par::PoolStats after = par::pool_stats();
    for (std::size_t i = 0; i < after.lane.size() && i < lane_iters.size(); ++i) {
      const par::LaneStats& a = after.lane[i];
      const par::LaneStats b =
          i < before.lane.size() ? before.lane[i] : par::LaneStats{};
      steals += a.steals - b.steals;
      steal_failures += a.steal_failures - b.steal_failures;
      lane_iters[i] += static_cast<double>(a.iterations_run - b.iterations_run);
    }
    peak_active = std::max(peak_active, after.peak_active);
    outcome.add(traced.result);
    outcome.check_digest("traced vs untraced", untraced.digest,
                         traced.result.digest);
    n_lane.add(traced);

    par::set_threads(1);
    const TracedPass single = traced_pass(spec, seed, work, 1);
    par::set_threads(lanes);
    outcome.add(single.result);
    outcome.check_digest("1 lane vs " + std::to_string(lanes) + " lanes",
                         untraced.digest, single.result.digest);
    one_lane.add(single);
  }

  const double reps = kTracedRepeats;
  const std::vector<LayerRow> rows = layer_table(n_lane.spans);
  const std::vector<LayerRow> rows_1 = layer_table(one_lane.spans);
  const PropagateTotals& tot = n_lane.totals;

  double rungs = 0, ess = 0, pool_mb = 0, inline_windows = 0, windows = 0;
  double resample_days = 0, save_s = 0, load_s = 0, ckpt_bytes = 0, saves = 0;
  double close_ms = 0, closes = 0;
  std::uint64_t proposed = 0, accepted = 0;
  for (const PassResult& r : n_lane.results) {
    for (const WindowStats& w : r.windows) {
      rungs += static_cast<double>(w.rungs);
      ess += w.ess_frac;
      pool_mb = std::max(pool_mb, w.statepool_mb);
      inline_windows += w.inline_capture ? 1 : 0;
      proposed += w.moves_proposed;
      accepted += w.moves_accepted;
      ++windows;
    }
    resample_days += static_cast<double>(r.resample_days);
    save_s += r.checkpoint_save_s;
    load_s += r.checkpoint_load_s;
    ckpt_bytes += r.checkpoint_bytes;
    saves += static_cast<double>(r.checkpoint_saves);
    for (double v : r.window_close_ms) close_ms += v;
    closes += static_cast<double>(r.window_close_ms.size());
  }
  windows = std::max(1.0, windows);

  double iter_mean = 0, iter_max = 0;
  for (double v : lane_iters) {
    iter_mean += v / static_cast<double>(lane_iters.size());
    iter_max = std::max(iter_max, v);
  }

  const double prop_self = layer_self(rows, "core.propagate");
  const double prop_self_1 = layer_self(rows_1, "core.propagate");
  const bool scaling_ok = host_cores() >= 4;
  const double window_self = spec.streaming
                                 ? layer_self(rows, "stream.window_close")
                                 : layer_self(rows, "core.window");
  const double uncovered = n_lane.pass_s - covered_seconds(n_lane.spans);

  std::cout << "# layer table: " << kTracedRepeats << " traced passes at "
            << lanes << " lanes, " << num(n_lane.pass_s) << " s\n";
  std::printf("# %-22s %8s %12s %10s\n", "layer", "calls", "self_s", "share");
  for (const LayerRow& row : rows) {
    std::printf("# %-22s %8lld %12.6f %9.2f%%\n", row.layer.c_str(),
                static_cast<long long>(row.calls), row.self_s,
                100.0 * row.self_s / n_lane.pass_s);
  }
  std::printf("# %-22s %8s %12.6f %9.2f%%\n", "(uncovered)", "-", uncovered,
              100.0 * uncovered / n_lane.pass_s);
  std::fflush(stdout);

  const std::string stamp = stamp_json(o, lanes);
  fs::create_directories(o.out_dir);
  const fs::path trace_path =
      o.out_dir / (spec.name + "-seed" + std::to_string(o.seed) + "-trace.json");
  {
    std::ofstream out(trace_path);
    write_chrome_trace(
        out,
        {{spec.name + " " + std::to_string(lanes) + " lanes", n_lane.spans},
         {spec.name + " 1 lane", one_lane.spans}},
        stamp);
  }
  std::cout << "# chrome trace: " << trace_path.string() << "\n";

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::vector<Metric> m = {
      {"api.truth_s", layer_total(rows, "api.truth") / reps, "s", ""},
      {"core.burnin_s", layer_total(rows, "core.burnin") / reps, "s", ""},
      {"core.propagate.self_s", prop_self / reps, "s", ""},
      {"core.propagate.ns_per_sim_day", ratio(prop_self * 1e9, tot.sim_days),
       "ns", ""},
      {"core.propagate.useful_frac", ratio(tot.weighted_sim_days, tot.sim_days),
       "ratio", ""},
      {"core.score.self_s", layer_total(rows, "core.score") / reps, "s", ""},
      {"core.score.ns_per_call",
       ratio(static_cast<double>(tot.score_lane_ns),
             static_cast<double>(tot.score_calls)),
       "ns", ""},
      {"core.window.self_s", window_self / reps, "s", ""},
      {"core.temper.rungs", rungs / windows, "count", ""},
      {"core.rejuvenate.accept_frac",
       ratio(static_cast<double>(accepted), static_cast<double>(proposed)),
       "ratio", ""},
      {"core.ess_frac", ess / windows, "ratio", ""},
      {"core.statepool.mb", pool_mb, "MB", ""},
      {"core.capture_inline_frac", inline_windows / windows, "ratio", ""},
      {"stream.ingest.self_s", layer_self(rows, "stream.ingest") / reps, "s", ""},
      {"stream.window_close_ms", ratio(close_ms, closes), "ms", ""},
      {"stream.resample_days", resample_days / reps, "count", ""},
      {"io.checkpoint.save_s", save_s / reps, "s", ""},
      {"io.checkpoint.load_s", load_s / reps, "s", ""},
      {"io.checkpoint.mb", ratio(ckpt_bytes / 1e6, saves), "MB", ""},
      {"io.checkpoint.mb_per_s", ratio(ckpt_bytes / 1e6, save_s), "MB/s", ""},
      {"parallel.scaling_eff", ratio(prop_self_1, lanes * prop_self), "ratio",
       scaling_ok ? "" : "host has fewer than 4 cores"},
      {"parallel.steal_success_frac",
       ratio(static_cast<double>(steals),
             static_cast<double>(steals + steal_failures)),
       "ratio", ""},
      {"parallel.lane_iter_imbalance", ratio(iter_max, iter_mean), "ratio", ""},
      {"parallel.peak_active", static_cast<double>(peak_active), "count", ""},
      {"trace.overhead_s", (n_lane.pass_s - untraced_s) / reps, "s", ""},
      {"trace.uncovered_s", uncovered / reps, "s", ""},
  };
  print_result(outcome, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const WorkloadSpec& spec = find_workload(o.workload);
    const int lanes = std::min(4, host_cores());
    epismc::parallel::set_threads(lanes);
    std::string stamp = stamp_json(o, lanes);
    std::replace(stamp.begin(), stamp.end(), '\n', ' ');
    std::cout << "# stamp " << stamp << "\n";
    return o.trace == 1 ? traced_run(o, spec, lanes) : timed_run(o, spec, lanes);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
