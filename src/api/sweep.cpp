#include "api/sweep.hpp"

#include <exception>
#include <filesystem>
#include <system_error>

#include <unistd.h>

#include "io/binary_archive.hpp"
#include "parallel/parallel.hpp"
#include "random/seeding.hpp"

namespace epismc::api {

namespace {

// Durable per-cell result interchange for run_supervised: a supervised
// cell computes in a forked child, so its SweepRun crosses back to the
// parent through a sealed archive file (same footer/CRC protocol as the
// checkpoints -- a child killed mid-write must not hand the parent a
// torn result).
constexpr std::uint32_t kCellArchiveVersion = 1;
constexpr const char* kCellArchiveTag = "epismc-sweep-cell";

void write_sweep_run(const SweepRun& run, const std::filesystem::path& path) {
  io::BinaryWriter out(kCellArchiveVersion);
  out.write_string(kCellArchiveTag);
  out.write_string(run.scenario);
  out.write_string(run.simulator);
  out.write(static_cast<std::uint64_t>(run.windows.size()));
  for (const core::WindowPosteriorSummary& w : run.windows) w.serialize(out);
  out.write(static_cast<std::uint64_t>(run.diagnostics.size()));
  for (const core::WindowDiagnostics& d : run.diagnostics) d.serialize(out);
  out.write_vector(run.truth_theta);
  out.write_vector(run.truth_rho);
  out.write(run.wall_seconds);
  out.write_string(run.error);
  out.save(path);
}

SweepRun read_sweep_run(const std::filesystem::path& path) {
  io::BinaryReader in = io::BinaryReader::load(path);
  if (in.version() != kCellArchiveVersion) {
    throw io::ArchiveError(io::ArchiveErrorKind::kVersion,
                           "sweep cell result: version " +
                               std::to_string(in.version()) +
                               ", this build reads " +
                               std::to_string(kCellArchiveVersion));
  }
  const std::string tag = in.read_string();
  if (tag != kCellArchiveTag) {
    throw io::ArchiveError(io::ArchiveErrorKind::kForeignTag,
                           "sweep cell result: archive tagged '" + tag + "'");
  }
  SweepRun run;
  run.scenario = in.read_string();
  run.simulator = in.read_string();
  const std::size_t n_windows =
      in.read_count(core::WindowPosteriorSummary::kArchiveBytes);
  run.windows.reserve(n_windows);
  for (std::size_t i = 0; i < n_windows; ++i) {
    run.windows.push_back(core::WindowPosteriorSummary::deserialize(in));
  }
  const std::size_t n_diag =
      in.read_count(core::WindowDiagnostics::kArchiveBytes);
  run.diagnostics.reserve(n_diag);
  for (std::size_t i = 0; i < n_diag; ++i) {
    run.diagnostics.push_back(core::WindowDiagnostics::deserialize(in));
  }
  run.truth_theta = in.read_vector<double>();
  run.truth_rho = in.read_vector<double>();
  run.wall_seconds = in.read<double>();
  run.error = in.read_string();
  return run;
}

}  // namespace

ScenarioSweep& ScenarioSweep::add_scenario(const std::string& preset_name) {
  if (!scenarios().contains(preset_name)) {
    throw UnknownComponentError(scenarios().kind(), preset_name,
                                scenarios().names());
  }
  scenario_names_.push_back(preset_name);
  return *this;
}

ScenarioSweep& ScenarioSweep::add_scenarios(
    const std::vector<std::string>& preset_names) {
  for (const auto& name : preset_names) add_scenario(name);
  return *this;
}

ScenarioSweep& ScenarioSweep::add_simulator(const std::string& name) {
  if (!simulators().contains(name)) {
    throw UnknownComponentError(simulators().kind(), name,
                                simulators().names());
  }
  simulator_names_.push_back(name);
  return *this;
}

ScenarioSweep& ScenarioSweep::add_simulators(
    const std::vector<std::string>& names) {
  for (const auto& name : names) add_simulator(name);
  return *this;
}

ScenarioSweep& ScenarioSweep::with_windows(
    std::vector<std::pair<std::int32_t, std::int32_t>> windows) {
  windows_ = std::move(windows);
  return *this;
}

ScenarioSweep& ScenarioSweep::with_budget(std::size_t n_params,
                                          std::size_t replicates,
                                          std::size_t resample_size) {
  n_params_ = n_params;
  replicates_ = replicates;
  resample_size_ = resample_size;
  return *this;
}

ScenarioSweep& ScenarioSweep::with_likelihood(const std::string& name,
                                              double parameter) {
  likelihood_name_ = name;
  likelihood_parameter_ = parameter;
  return *this;
}

ScenarioSweep& ScenarioSweep::with_deaths(bool use) {
  use_deaths_ = use;
  return *this;
}

ScenarioSweep& ScenarioSweep::with_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

ScenarioSweep& ScenarioSweep::with_session_setup(
    std::function<void(CalibrationSession&)> hook) {
  session_setup_ = std::move(hook);
  return *this;
}

ScenarioSweep& ScenarioSweep::with_progress(core::ProgressReporter progress) {
  progress_ = std::move(progress);
  return *this;
}

struct ScenarioSweep::ScenarioTruth {
  ScenarioPreset preset;
  core::GroundTruth truth;
};

std::vector<ScenarioSweep::ScenarioTruth> ScenarioSweep::simulate_truths()
    const {
  if (scenario_names_.empty() || simulator_names_.empty()) {
    throw std::logic_error(
        "ScenarioSweep: need at least one scenario and one simulator");
  }
  // Ground truths once per scenario, serially, shared read-only by every
  // backend cell (and inherited copy-on-write by supervised children).
  std::vector<ScenarioTruth> truths;
  truths.reserve(scenario_names_.size());
  for (const auto& name : scenario_names_) {
    ScenarioPreset preset = scenarios().create(name);
    core::GroundTruth truth = preset.make_truth();
    truths.push_back({std::move(preset), std::move(truth)});
  }
  return truths;
}

// Seeds derive from (sweep seed, scenario *name*), never from list position
// or thread id, so reordering scenarios or simulators reproduces every cell
// exactly and the same backend sees the same randomness in every scenario.
std::uint64_t ScenarioSweep::scenario_seed(std::size_t si) const {
  std::uint64_t h = seed_;
  for (const char c : scenario_names_[si]) {
    h = rng::hash_combine(h, static_cast<std::uint64_t>(c));
  }
  return h;
}

void ScenarioSweep::run_cell(const std::vector<ScenarioTruth>& truths,
                             std::size_t cell,
                             core::ProgressReporter progress,
                             SweepRun& out) const {
  // Cells are scenario-major: cell = scenario index * backends + backend.
  const std::size_t si = cell / simulator_names_.size();
  const std::size_t bi = cell % simulator_names_.size();
  const ScenarioTruth& st = truths[si];
  out.scenario = scenario_names_[si];
  out.simulator = simulator_names_[bi];

  CalibrationSession session;
  session.with_simulator(simulator_names_[bi], st.preset.simulator_spec())
      .with_data(st.truth.observed())
      .with_windows(windows_)
      .with_budget(n_params_, replicates_, resample_size_)
      .with_likelihood(likelihood_name_, likelihood_parameter_)
      .with_deaths(use_deaths_)
      .with_seed(scenario_seed(si));
  if (session_setup_) session_setup_(session);
  session.with_progress(std::move(progress));
  session.run_all();

  for (const auto& w : session.results()) {
    out.windows.push_back(core::summarize_window(w));
    out.diagnostics.push_back(w.diag);
    out.truth_theta.push_back(st.truth.theta_at(w.from_day));
    out.truth_rho.push_back(st.truth.rho_at(w.from_day));
  }
}

std::vector<SweepRun> ScenarioSweep::run_all() const {
  const std::vector<ScenarioTruth> truths = simulate_truths();
  std::vector<SweepRun> runs(cell_count());

  // Both levels go through the pool's hierarchical submit: the outer cell
  // loop runs on the pool and each cell's inner particle loops nest onto
  // the same lanes, so cells and particles share one set of workers
  // without oversubscription (tests/api_sweep_test.cpp asserts
  // peak_active never exceeds the configured lane count). A single cell
  // takes parallel_for's serial fast path and leaves the lanes to its
  // particle loops. Results do not depend on placement: both loops are
  // index-deterministic.
  parallel::parallel_for(
      runs.size(),
      [&](std::size_t cell) {
        SweepRun& out = runs[cell];
        parallel::Timer timer;
        try {
          run_cell(truths, cell, progress_, out);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        out.wall_seconds = timer.seconds();
      },
      /*chunk=*/1);

  return runs;
}

ScenarioSweep::SupervisedSweep ScenarioSweep::run_supervised(
    supervise::SupervisorOptions sup) const {
  // Truths in the parent: every child inherits them copy-on-write. The
  // parent may run parallel work here: the supervisor tears pool workers
  // down before each fork and both sides respawn lazily (see
  // parallel::prepare_fork).
  const std::vector<ScenarioTruth> truths = simulate_truths();

  // Cell results cross the process boundary through sealed archives in a
  // directory that outlives the supervisor's own scratch space.
  const std::filesystem::path cells_dir =
      sup.report_path.empty()
          ? std::filesystem::temp_directory_path() /
                ("epismc-sweep." + std::to_string(::getpid()))
          : std::filesystem::path(sup.report_path.string() + ".cells");
  std::error_code dir_ec;
  std::filesystem::create_directories(cells_dir, dir_ec);
  const auto result_path = [&cells_dir](std::size_t cell) {
    return cells_dir / ("cell" + std::to_string(cell) + ".result");
  };

  const std::size_t n_sims = simulator_names_.size();
  supervise::Supervisor supervisor(std::move(sup));
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    supervise::SupervisedTask task;
    task.name = "cell:" + scenario_names_[cell / n_sims] + "/" +
                simulator_names_[cell % n_sims];
    task.kind = "sweep-cell";
    task.body = [this, &truths, cell,
                 path = result_path(cell)](supervise::TaskContext& ctx) -> int {
      SweepRun out;
      parallel::Timer timer;
      run_cell(truths, cell,
               core::ProgressReporter::chain(progress_, ctx.progress()), out);
      out.wall_seconds = timer.seconds();
      write_sweep_run(out, path);
      return 0;
    };
    supervisor.add_task(std::move(task));
  }

  SupervisedSweep result;
  result.report = supervisor.run_all();

  result.runs.resize(cell_count());
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    SweepRun& out = result.runs[cell];
    const supervise::TaskReport& task = result.report.tasks[cell];
    if (task.ok()) {
      try {
        out = read_sweep_run(result_path(cell));
        continue;
      } catch (const io::ArchiveError& e) {
        out.error = std::string("supervision: result archive unreadable (") +
                    e.what() + ")";
      }
    } else {
      out.error = "supervision: " + std::string(to_string(task.outcome)) +
                  " after " + std::to_string(task.attempts.size()) +
                  " attempt(s)";
    }
    out.scenario = scenario_names_[cell / n_sims];
    out.simulator = simulator_names_[cell % n_sims];
    out.wall_seconds = task.wall_seconds;
  }

  std::error_code cleanup_ec;
  std::filesystem::remove_all(cells_dir, cleanup_ec);
  return result;
}

}  // namespace epismc::api
