// Ablation: streaming assimilation vs amortized window replay.
//
// Both arms deliver the same product -- a posterior update after *every*
// observed day of the paper's first two calibration windows -- but pay
// very different compute:
//
//   streaming   one StreamingCalibrator ingests each day once and advances
//               the live particle cloud incrementally (28 day-steps total);
//   replay      the pre-streaming way to get daily updates: each day d of
//               window [a, b], re-run the whole batch importance window
//               over the prefix [a, d] (sum of prefix lengths: 210
//               day-steps for the same 28 daily posteriors).
//
// The replay arm's day-(d == b) iteration is the true window result; its
// posterior seeds the next window's proposal and parent states, exactly
// as the streaming session carries its own windows forward. Per-day cost
// is each arm's total divided by the 28 assimilated days.
//
// --check gates the tentpole's promise: streaming per-day cost must be at
// most --max-ratio (default 0.5) of the amortized replay per-day cost.
// The true ratio is ~len/2 : 1 against replay (it re-propagates every
// prefix), so 0.5 is a loose, noise-tolerant floor.
//
//   ./abl_streaming [--n-params=32] [--replicates=4] [--repeats=3]
//                   [--check] [--max-ratio=0.5]
//                   [--out=BENCH_streaming.json] [--threads=N]

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/importance_sampler.hpp"
#include "core/sequential_calibrator.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

using namespace epismc;

struct ArmTiming {
  double total_seconds = 0.0;   // best of --repeats
  double per_day_seconds = 0.0;
  std::vector<double> samples;
};

int run(const epismc::io::Args& args) {
  const auto n_params = static_cast<std::size_t>(args.get_int("n-params", 32));
  const auto replicates =
      static_cast<std::size_t>(args.get_int("replicates", 4));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const bool check = args.get_flag("check");
  const double max_ratio = args.get_double("max-ratio", 0.5);
  const std::filesystem::path out_path =
      args.get_string("out", "BENCH_streaming.json");
  api::apply_threads_flag(args);
  args.check_unused();

  // First two paper windows: 28 assimilated days, one posterior handoff.
  core::CalibrationConfig cfg;
  cfg.windows = {{20, 33}, {34, 47}};
  cfg.n_params = n_params;
  cfg.replicates = replicates;
  cfg.resample_size = 2 * n_params * replicates;
  cfg.likelihood_name = "nb-sqrt";
  cfg.likelihood_parameter = 500.0;
  std::int64_t total_days = 0;
  for (const auto& [a, b] : cfg.windows) total_days += b - a + 1;

  const core::ObservedData data = bench::paper_truth().observed();

  // --- Streaming arm. -------------------------------------------------------
  ArmTiming streaming;
  double stream_log_marginal = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    api::CalibrationSession session = bench::paper_session(cfg);
    stream::StreamingCalibrator cal = session.stream();
    parallel::Timer timer;
    for (std::int32_t d = cfg.windows.front().first;
         d <= cfg.windows.back().second; ++d) {
      stream::DailyObservation obs;
      obs.day = d;
      obs.cases = data.cases_at(d);
      cal.ingest(obs);
    }
    streaming.samples.push_back(timer.seconds());
    stream_log_marginal = cal.history().back().diag.log_marginal;
  }

  // --- Replay arm. ----------------------------------------------------------
  // Daily updates by brute force: day d of window m re-runs the batch
  // window over [from, d]. Shares the streaming path's proposal and
  // parent plumbing (make_window_spec / make_*_proposal), so both arms
  // carry posteriors across windows identically.
  ArmTiming replay;
  double replay_log_marginal = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    api::CalibrationSession session = bench::paper_session(cfg);
    const core::Simulator& sim = session.simulator();
    const auto likelihood =
        core::make_likelihood(cfg.likelihood_name, cfg.likelihood_parameter);
    const auto bias = core::make_bias_model(cfg.bias_name);

    parallel::Timer timer;
    const epi::Checkpoint initial = sim.initial_state(
        cfg.burnin_day, rng::hash_combine(cfg.seed, 0x494E4954ull));
    std::shared_ptr<core::StatePool> parents = sim.make_pool();
    parents->resize(1);
    parents->set_from_checkpoint(0, initial);
    std::shared_ptr<const core::PosteriorDraws> draws;

    core::WindowResult window;
    for (std::size_t m = 0; m < cfg.windows.size(); ++m) {
      const core::ParamProposal propose =
          m == 0 ? core::make_prior_proposal(cfg, bias->uses_rho())
                 : core::make_posterior_proposal(cfg, draws, bias->uses_rho());
      for (std::int32_t d = cfg.windows[m].first; d <= cfg.windows[m].second;
           ++d) {
        core::WindowSpec spec = core::make_window_spec(cfg, m);
        spec.to_day = d;  // the daily prefix replay
        window = core::run_importance_window(sim, *likelihood, *bias, data,
                                             *parents, spec, propose);
      }
      // The full-window (d == to_day) iteration is the real result.
      draws = std::make_shared<const core::PosteriorDraws>(
          core::PosteriorDraws::from_window(window));
      parents = window.state_pool;
    }
    replay.samples.push_back(timer.seconds());
    replay_log_marginal = window.diag.log_marginal;
  }

  for (ArmTiming* arm : {&streaming, &replay}) {
    std::sort(arm->samples.begin(), arm->samples.end());
    arm->total_seconds = arm->samples.front();
    arm->per_day_seconds = arm->total_seconds / static_cast<double>(total_days);
  }
  const double ratio = streaming.per_day_seconds / replay.per_day_seconds;

  io::Table table({"arm", "total s", "per-day s", "vs replay"});
  table.add_row_values("streaming", io::Table::num(streaming.total_seconds, 3),
                       io::Table::num(streaming.per_day_seconds, 4),
                       io::Table::num(ratio, 3) + "x");
  table.add_row_values("window replay", io::Table::num(replay.total_seconds, 3),
                       io::Table::num(replay.per_day_seconds, 4), "1.00x");
  std::cout << "Streaming-vs-replay ablation: " << n_params << " x "
            << replicates << " trajectories, windows 20-33 / 34-47 ("
            << total_days << " daily updates)\n\n";
  table.print(std::cout);
  std::cout << "\nfinal-window log-evidence: streaming "
            << io::Table::num(stream_log_marginal, 4) << ", replay "
            << io::Table::num(replay_log_marginal, 4)
            << " (same posterior product, ~" << io::Table::num(1.0 / ratio, 1)
            << "x cheaper per day)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"epismc-streaming-abl-v1\",\n"
      << "  \"generated_by\": \"bench/abl_streaming\",\n"
      << "  \"workload\": \"daily posterior updates, paper windows 20-33 and "
         "34-47\",\n"
      << bench::json_build_stamp() << "  \"n_sims\": " << n_params * replicates
      << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"days\": " << total_days << ",\n"
      << "  \"streaming_total_seconds\": " << streaming.total_seconds << ",\n"
      << "  \"streaming_per_day_seconds\": " << streaming.per_day_seconds
      << ",\n"
      << "  \"replay_total_seconds\": " << replay.total_seconds << ",\n"
      << "  \"replay_per_day_seconds\": " << replay.per_day_seconds << ",\n"
      << "  \"streaming_vs_replay_ratio\": " << ratio << ",\n"
      << "  \"streaming_log_marginal\": " << stream_log_marginal << ",\n"
      << "  \"replay_log_marginal\": " << replay_log_marginal << "\n"
      << "}\n";
  std::cout << "Wrote " << out_path.string() << "\n";

  if (check && ratio > max_ratio) {
    std::cerr << "\nCHECK FAILED: streaming per-day cost is " << ratio
              << "x the amortized window-replay cost (gate: <= " << max_ratio
              << "x)\n";
    return 1;
  }
  if (check) {
    std::cout << "\nCHECK OK: streaming per-day cost is "
              << io::Table::num(ratio, 3) << "x replay (gate: <= " << max_ratio
              << "x)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
