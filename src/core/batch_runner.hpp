#pragma once

// Shared fused batch-propagation engine for checkpointable model types,
// and the ModelSimulator members built on it.
//
// All three built-in backends implement the same restore / branch /
// run_until_day / trajectory / make_checkpoint contract, so one class
// template, ModelSimulator<Model, Config> (declared in core/simulator.hpp),
// implements their Simulator overrides once on top of the kernels below.
// Its members are defined at the end of this header and instantiated
// explicitly once per model (core/simulator.cpp, abm/abm_simulator.cpp).
// Per buffer range the run_batch kernel:
//
//   1. reads parent prototypes straight out of the typed ModelStatePool
//      (no per-window checkpoint parsing -- the pool holds the previous
//      window's end states as live model objects);
//   2. per sim, copy-assigns the prototype into a per-thread scratch model
//      -- reusing the event-ring / trajectory / agent-array capacity the
//      previous sim on that thread left behind, so the parallel loop does
//      not allocate in steady state -- then branch()es it to the sim's
//      (seed, stream, theta) columns and runs it through the window;
//   3. extracts the output series into the buffer rows, captures the end
//      state into the sink's pool slot (typed copy, no serialization), and
//      runs the sink's fused per-sim hook (bias + likelihood scoring) --
//      one sweep over the ensemble instead of three. A sink with an
//      on_day hook gets the window one day at a time instead, and may end
//      a sim early (no capture, no on_sim) -- see BatchSink::on_day.
//
// Results are bit-identical to restore-per-sim: branch() reproduces the
// exact engine/schedule state restore(ckpt, {seed, stream, theta}) builds,
// and every trajectory's randomness is addressed purely by its columns.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/simulator.hpp"
#include "core/state_pool.hpp"
#include "epi/schedule.hpp"
#include "epi/seir_model.hpp"
#include "epi/trajectory.hpp"
#include "parallel/parallel.hpp"

namespace epismc::core::detail {

/// Downcast a type-erased pool to this backend's typed pool, with a
/// diagnosable error when a pool from another backend is passed in.
template <typename Model, typename Pool>
auto& typed_pool(Pool& pool, const std::string& backend, const char* role) {
  using Target =
      std::conditional_t<std::is_const_v<Pool>,
                         const ModelStatePool<Model>, ModelStatePool<Model>>;
  auto* typed = dynamic_cast<Target*>(&pool);
  if (typed == nullptr) {
    throw std::invalid_argument("run_batch(" + backend + "): " + role +
                                " pool is '" + pool.backend() +
                                "', not this backend's typed pool -- pools "
                                "must come from this simulator's make_pool()");
  }
  return *typed;
}

/// `prepare` runs on each scratch model right after it is copy-assigned
/// from its prototype and before branch()/propagation -- the hook backends
/// use to normalize per-model execution configuration that rides along in
/// checkpoints (the ABM forces its configured day-step engine here, so
/// cross-engine parent states are honored on the batch path exactly like
/// ModelSimulator::run_window does per sim).
template <typename Model, typename PrepareFn>
void run_batch_fused(const StatePool& parents_erased, std::int32_t to_day,
                     EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count, const BatchSink& sink,
                     const std::string& backend, PrepareFn&& prepare) {
  const ModelStatePool<Model>& parents =
      typed_pool<Model>(parents_erased, backend, "parent");
  ModelStatePool<Model>* capture =
      sink.capture == nullptr
          ? nullptr
          : &typed_pool<Model>(*sink.capture, backend, "capture");

  struct Workspace {
    std::unique_ptr<Model> model;
    std::vector<double> series;  // full branched series, trimmed on store
  };
  std::vector<Workspace> workspaces(
      static_cast<std::size_t>(parallel::max_threads()));

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const Model& proto = parents.at(buffer.parent[s]);
    // Workspace selection by thread id is safe here: it only decides which
    // scratch memory is reused, never what is computed. Under every
    // backend thread_id() is unique per concurrently-running body and
    // < max_threads() (pool lanes are single-occupancy; external
    // submitters serialize on lane 0 -- see parallel/task_pool.hpp).
    Workspace& ws = workspaces[static_cast<std::size_t>(parallel::thread_id())];
    if (!ws.model) {
      ws.model = std::make_unique<Model>(proto);
    } else {
      *ws.model = proto;
    }
    Model& m = *ws.model;
    prepare(m);
    m.branch(buffer.seed[s], buffer.stream[s], buffer.theta[s]);
    const std::int32_t from_day = m.day() + 1;
    const std::int32_t window_first =
        to_day - static_cast<std::int32_t>(buffer.window_len()) + 1;
    if (sink.on_day && from_day <= window_first) {
      // Lead-in days in one go, then the window day by day (stepping
      // run_until_day is bit-identical to one call, as advance_batch
      // relies on too). A parent inside the window takes the plain path
      // below, whose store_tail reports it.
      if (from_day < window_first) m.run_until_day(window_first - 1);
      const std::span<double> cases = buffer.true_cases(s);
      const std::span<double> deaths = buffer.deaths(s);
      for (std::size_t k = 0; k < buffer.window_len(); ++k) {
        const std::int32_t day = window_first + static_cast<std::int32_t>(k);
        m.run_until_day(day);
        m.trajectory().copy_series(&epi::DailyRecord::new_infections, day,
                                   day, cases.subspan(k, 1));
        m.trajectory().copy_series(&epi::DailyRecord::new_deaths, day, day,
                                   deaths.subspan(k, 1));
        if (!sink.on_day(s, k + 1)) return;
      }
      if (capture != nullptr) capture->set(s, m);
      if (sink.on_sim) sink.on_sim(s);
      return;
    }
    m.run_until_day(to_day);

    ws.series.resize(static_cast<std::size_t>(to_day - from_day + 1));
    m.trajectory().copy_series(&epi::DailyRecord::new_infections, from_day,
                               to_day, ws.series);
    buffer.store_tail(EnsembleBuffer::Series::kTrueCases, s, ws.series);
    m.trajectory().copy_series(&epi::DailyRecord::new_deaths, from_day, to_day,
                               ws.series);
    buffer.store_tail(EnsembleBuffer::Series::kDeaths, s, ws.series);
    if (capture != nullptr) capture->set(s, m);
    if (sink.on_sim) sink.on_sim(s);
  });
}

/// In-place streaming advance: unlike run_batch_fused there is no
/// copy-and-branch -- each pooled model keeps its own engine position and
/// trajectory and simply runs forward, so a sequence of advance_batch
/// calls reproduces one long run_until_day bit for bit. The buffer rows
/// receive the tail of the newly simulated days only.
template <typename Model, typename PrepareFn>
void advance_batch_inplace(StatePool& states_erased, std::int32_t to_day,
                           EnsembleBuffer& buffer, std::size_t first,
                           std::size_t count, const BatchSink& sink,
                           const std::string& backend, PrepareFn&& prepare) {
  ModelStatePool<Model>& states =
      typed_pool<Model>(states_erased, backend, "state");
  ModelStatePool<Model>* capture =
      sink.capture == nullptr
          ? nullptr
          : &typed_pool<Model>(*sink.capture, backend, "capture");
  if (first + count > buffer.size() || first + count > states.size()) {
    throw std::out_of_range(
        "advance_batch: sim range exceeds the buffer or state pool");
  }
  // Day-bound pre-pass outside the parallel region, so a stale slot fails
  // with a message instead of an exception racing out of the parallel
  // loop's capture machinery.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = first + i;
    if (to_day < states.at(s).day() + 1) {
      throw std::logic_error("advance_batch: slot " + std::to_string(s) +
                             " already sits at day " +
                             std::to_string(states.at(s).day()) +
                             ", cannot advance to day " +
                             std::to_string(to_day));
    }
  }

  struct Workspace {
    std::vector<double> series;  // newly simulated days, trimmed on store
  };
  std::vector<Workspace> workspaces(
      static_cast<std::size_t>(parallel::max_threads()));

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    Model& m = states.at(s);
    prepare(m);
    const std::int32_t from_day = m.day() + 1;
    m.run_until_day(to_day);

    Workspace& ws = workspaces[static_cast<std::size_t>(parallel::thread_id())];
    ws.series.resize(static_cast<std::size_t>(to_day - from_day + 1));
    m.trajectory().copy_series(&epi::DailyRecord::new_infections, from_day,
                               to_day, ws.series);
    buffer.store_tail(EnsembleBuffer::Series::kTrueCases, s, ws.series);
    m.trajectory().copy_series(&epi::DailyRecord::new_deaths, from_day, to_day,
                               ws.series);
    buffer.store_tail(EnsembleBuffer::Series::kDeaths, s, ws.series);
    if (capture != nullptr) capture->set(s, m);
    if (sink.on_sim) sink.on_sim(s);
  });
}

/// Streaming resample redistribution: replace the pool with copies of the
/// ancestor slots, then re-branch each copy onto its fresh (seed, stream,
/// theta) identity so duplicated particles diverge from the resample day
/// on, exactly like a copy-and-branch from a one-slot-per-particle parent
/// pool would.
template <typename Model, typename PrepareFn>
void resample_states_inplace(StatePool& states_erased,
                             std::span<const std::uint32_t> ancestors,
                             std::uint64_t seed,
                             std::span<const std::uint64_t> streams,
                             std::span<const double> thetas,
                             const std::string& backend, PrepareFn&& prepare) {
  ModelStatePool<Model>& states =
      typed_pool<Model>(states_erased, backend, "state");
  states.gather(ancestors);
  parallel::parallel_for(states.size(), [&](std::size_t i) {
    Model& m = states.at(i);
    prepare(m);
    m.branch(seed, streams[i], thetas[i]);
  });
}

}  // namespace epismc::core::detail

namespace epismc::core {

template <typename Model, typename Config>
epi::Checkpoint ModelSimulator<Model, Config>::initial_state(
    std::int32_t day, std::uint64_t seed) const {
  Model model(model_config(), epi::PiecewiseSchedule(config_.burnin_theta),
              seed, /*stream=*/0);
  model.seed_exposed(config_.initial_exposed);
  model.run_until_day(day);
  return model.make_checkpoint();
}

template <typename Model, typename Config>
WindowRun ModelSimulator<Model, Config>::run_window(
    const epi::Checkpoint& state, double theta, std::uint64_t seed,
    std::uint64_t stream, std::int32_t to_day, bool want_checkpoint) const {
  epi::RestartOverrides ovr;
  ovr.seed = seed;
  ovr.stream = stream;
  ovr.transmission_rate = theta;
  Model model = Model::restore(state, ovr);
  prepare(model);
  const std::int32_t from_day = model.day() + 1;
  if (to_day < from_day) {
    throw std::invalid_argument("run_window: to_day before checkpoint day");
  }
  model.run_until_day(to_day);

  WindowRun run;
  run.true_cases = model.trajectory().new_infections(from_day, to_day);
  run.deaths = model.trajectory().new_deaths(from_day, to_day);
  if (want_checkpoint) run.end_state = model.make_checkpoint();
  return run;
}

template <typename Model, typename Config>
std::unique_ptr<StatePool> ModelSimulator<Model, Config>::make_pool() const {
  return std::make_unique<ModelStatePool<Model>>();
}

template <typename Model, typename Config>
void ModelSimulator<Model, Config>::run_batch(const StatePool& parents,
                                              std::int32_t to_day,
                                              EnsembleBuffer& buffer,
                                              std::size_t first,
                                              std::size_t count,
                                              const BatchSink& sink) const {
  validate_batch_args(parents, buffer, first, count, sink);
  detail::run_batch_fused<Model>(parents, to_day, buffer, first, count, sink,
                                 name(), [this](Model& m) { prepare(m); });
}

template <typename Model, typename Config>
void ModelSimulator<Model, Config>::advance_batch(StatePool& states,
                                                  std::int32_t to_day,
                                                  EnsembleBuffer& buffer,
                                                  std::size_t first,
                                                  std::size_t count,
                                                  const BatchSink& sink) const {
  validate_batch_args(states, buffer, first, count, sink);
  detail::advance_batch_inplace<Model>(states, to_day, buffer, first, count,
                                       sink, name(),
                                       [this](Model& m) { prepare(m); });
}

template <typename Model, typename Config>
void ModelSimulator<Model, Config>::resample_states(
    StatePool& states, std::span<const std::uint32_t> ancestors,
    std::uint64_t seed, std::span<const std::uint64_t> streams,
    std::span<const double> thetas) const {
  validate_resample_args(ancestors, streams, thetas);
  detail::resample_states_inplace<Model>(states, ancestors, seed, streams,
                                         thetas, name(),
                                         [this](Model& m) { prepare(m); });
}

}  // namespace epismc::core
