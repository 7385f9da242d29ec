// Checkpoint/restart walkthrough (paper §III-B).
//
// Demonstrates the operational pattern the paper builds its framework on:
//   1. run an epidemic to day 40 and serialize the full simulator state to
//      a file (compartment census, future transition events, RNG position),
//   2. restore it and confirm the continuation is *bit-identical* to an
//      uninterrupted run,
//   3. branch three counterfactual futures from the same state by
//      overriding the restart parameters (seed, transmission rate),
//   4. measure the wall-clock saving of restarting at day 40 vs replaying
//      from day 0,
//   5. lift the same pattern one level up: interrupt a *streaming
//      calibration session* mid-window, archive it, resume on a fresh
//      calibrator, and confirm the final posterior summary is
//      byte-identical to the uninterrupted session's.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "api/api.hpp"
#include "epi/seir_model.hpp"
#include "io/table.hpp"
#include "parallel/parallel.hpp"
#include "stream/streaming_calibrator.hpp"

namespace {

// Byte-level equality for doubles: resumed-vs-uninterrupted must agree to
// the last bit, not within a tolerance.
bool biteq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Feed [from, to] of the observed record into a streaming calibrator.
void feed(epismc::stream::StreamingCalibrator& cal,
          const epismc::core::ObservedData& data, std::int32_t from,
          std::int32_t to) {
  for (std::int32_t d = from; d <= to; ++d) {
    epismc::stream::DailyObservation obs;
    obs.day = d;
    obs.cases = data.cases_at(d);
    if (data.has_deaths()) obs.deaths = data.deaths_at(d);
    cal.ingest(obs);
  }
}

int run(const epismc::io::Args& args) {
  using namespace epismc;
  if (api::handle_list_flag(args, std::cout)) return 0;
  const auto replays = static_cast<std::size_t>(args.get_int("replays", 500));
  api::apply_threads_flag(args);

  // This example works below the calibration facade -- it exercises the
  // epi-level checkpoint contract the whole SMC machinery is built on --
  // but its disease parameters still come from the scenario registry so
  // the demo stays in sync with the presets everything else runs.
  const api::ScenarioPreset preset =
      api::scenarios().create(args.get_string("scenario", "paper-baseline"));
  args.check_unused();
  const epi::DiseaseParameters params = preset.scenario.params;
  const epi::PiecewiseSchedule theta(0.3);

  // --- 1. Run to day 40 and checkpoint to disk. ---------------------------
  epi::SeirModel model(params, theta, /*seed=*/2024);
  model.seed_exposed(400);
  model.run_until_day(40);
  const epi::Checkpoint ckpt = model.make_checkpoint();
  const auto path = std::filesystem::temp_directory_path() / "epidemic_d40.ckpt";
  ckpt.save(path);
  std::cout << "Day-40 state checkpointed to " << path << " ("
            << ckpt.bytes.size() << " bytes, " << model.pending_events()
            << " scheduled future transitions)\n";

  // --- 2. Bit-identical continuation. --------------------------------------
  epi::SeirModel continued = epi::SeirModel::restore(epi::Checkpoint::load(path));
  continued.run_until_day(80);
  model.run_until_day(80);
  const bool identical = continued.census() == model.census();
  std::cout << "Resumed run equals uninterrupted run at day 80: "
            << (identical ? "yes (bit-identical)" : "NO -- BUG") << "\n\n";

  // --- 3. Branch counterfactual futures. -----------------------------------
  io::Table branches({"branch", "theta after day 40",
                      "cases days 41-80 (total)", "deaths by day 80"});
  const epi::Checkpoint base = epi::Checkpoint::load(path);
  const auto run_branch = [&](const char* label, double new_theta,
                              std::uint64_t seed) {
    epi::RestartOverrides ovr;
    ovr.seed = seed;
    ovr.transmission_rate = new_theta;
    epi::SeirModel branch = epi::SeirModel::restore(base, ovr);
    branch.run_until_day(80);
    const auto cases = branch.trajectory().new_infections(41, 80);
    branches.add_row_values(
        label, new_theta,
        static_cast<std::int64_t>(
            std::accumulate(cases.begin(), cases.end(), 0.0)),
        branch.count(epi::Compartment::kDu) +
            branch.count(epi::Compartment::kDd));
  };
  run_branch("status quo", 0.30, 1001);
  run_branch("lockdown (theta 0.12)", 0.12, 1001);
  run_branch("new variant (theta 0.45)", 0.45, 1001);
  branches.print(std::cout);

  // --- 4. The compute saving. ----------------------------------------------
  std::cout << "\nTiming " << replays
            << " branched futures (days 41-80), checkpoint restart vs "
               "replay-from-day-0:\n";
  parallel::Timer restart_timer;
  parallel::parallel_for(replays, [&](std::size_t i) {
    epi::RestartOverrides ovr;
    ovr.seed = 5000 + i;
    epi::SeirModel m = epi::SeirModel::restore(base, ovr);
    m.run_until_day(80);
  });
  const double restart_s = restart_timer.seconds();

  parallel::Timer scratch_timer;
  parallel::parallel_for(replays, [&](std::size_t i) {
    epi::SeirModel m(params, theta, 5000 + i);
    m.seed_exposed(400);
    m.run_until_day(80);
  });
  const double scratch_s = scratch_timer.seconds();

  std::cout << "  checkpoint restart: " << io::Table::num(restart_s, 3)
            << "s\n  from day 0:         " << io::Table::num(scratch_s, 3)
            << "s\n  speedup:            "
            << io::Table::num(scratch_s / restart_s, 2)
            << "x\n  (the naive days-ratio bound is 2.0x; actual savings are "
               "smaller because\n   per-day cost grows with the epidemic -- "
               "the skipped early days are the cheap\n   ones. Savings grow "
               "with the restart day; see bench/tab2_checkpoint_savings.)\n";
  std::filesystem::remove(path);

  // --- 5. Interrupt and resume a streaming calibration session. -----------
  // The simulator checkpoint above restores one trajectory; a StreamState
  // archive restores a whole calibration session -- particle cloud, RNG
  // positions, likelihood accumulators, window cursor -- so a stream
  // killed mid-window continues bit-exactly on another process.
  std::cout << "\nStreaming calibration, interrupted at day 40 (mid-window) "
               "vs uninterrupted:\n";
  const auto make_stream_session = [&preset] {
    api::CalibrationSession session;
    session.with_simulator("seir-event", preset.simulator_spec())
        .with_scenario(preset)
        .with_windows({{20, 33}, {34, 47}})
        .with_budget(200, 4, 400)
        .with_seed(2024);
    return session;
  };
  const core::ObservedData data = make_stream_session().data();

  auto ref_session = make_stream_session();
  stream::StreamingCalibrator reference = ref_session.stream();
  feed(reference, data, 20, 47);

  const auto stream_path =
      std::filesystem::temp_directory_path() / "calibration_d40.stream";
  auto first_session = make_stream_session();
  {
    stream::StreamingCalibrator interrupted = first_session.stream();
    feed(interrupted, data, 20, 40);  // day 40: window 2 is mid-flight
    interrupted.save(stream_path);
  }  // "process killed" -- the calibrator is gone, only the archive remains

  auto resumed_session = make_stream_session();
  stream::StreamingCalibrator resumed = resumed_session.stream();
  resumed.load(stream_path);
  feed(resumed, data, resumed.next_expected_day(), 47);

  bool posterior_identical = reference.finished() && resumed.finished() &&
                             reference.history().size() ==
                                 resumed.history().size();
  for (std::size_t w = 0; posterior_identical && w < reference.history().size();
       ++w) {
    const auto& a = reference.history()[w].summary;
    const auto& b = resumed.history()[w].summary;
    posterior_identical = biteq(a.theta.mean, b.theta.mean) &&
                          biteq(a.theta.sd, b.theta.sd) &&
                          biteq(a.theta.median, b.theta.median) &&
                          biteq(a.rho.mean, b.rho.mean) &&
                          biteq(a.rho.ci90.lo, b.rho.ci90.lo) &&
                          biteq(a.rho.ci90.hi, b.rho.ci90.hi) &&
                          biteq(reference.history()[w].diag.log_marginal,
                                resumed.history()[w].diag.log_marginal);
  }
  for (std::size_t w = 0; w < resumed.history().size(); ++w) {
    const auto& s = resumed.history()[w].summary;
    std::cout << "  window [" << s.from_day << ", " << s.to_day
              << "]: theta " << io::Table::num(s.theta.mean, 4) << ", rho "
              << io::Table::num(s.rho.mean, 4) << "\n";
  }
  std::cout << "  resumed posterior equals uninterrupted posterior: "
            << (posterior_identical ? "yes (byte-identical)" : "NO -- BUG")
            << "\n";
  std::filesystem::remove(stream_path);
  return (identical && posterior_identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
