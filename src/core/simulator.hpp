#pragma once

// Simulator abstraction consumed by the SMC machinery.
//
// The calibration loop needs three things from a disease simulator:
//  (1) a common initial state at the calibration start (shared burn-in),
//  (2) "branch from this parent state with a new (theta, seed) and run
//      through day T", returning the window's output series,
//  (3) the end-of-window states that seed the next window.
//
// Anything meeting this contract can be calibrated -- the event-driven SEIR
// model, the chain-binomial baseline, and the agent-based model extension
// all implement it, which is the paper's claim that the approach "applies
// equally well to other stochastic simulation models".
//
// The hot path drives simulators through the pool-based run_batch: one call
// propagates a contiguous range of an EnsembleBuffer (pool-parallel
// inside) from typed StatePool parents, writing the window series straight
// into the buffer's day-major rows. A BatchSink fuses the rest of the
// window into the same sweep: end states are captured into a typed pool
// and a per-sim hook (bias + likelihood in the importance sampler) runs as
// soon as a row is filled, so the ensemble is swept once. The base class
// runs the pool entry points as one per-sim run_window loop over
// epi::Checkpoint parents, so a custom registry simulator only has to
// implement run_window. The built-in backends are ModelSimulator
// instances, whose engines copy-and-branch pooled prototype models with
// zero (de)serialization. The checkpoint-span run_batch is a bridge onto
// the pool overload.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ensemble.hpp"
#include "core/state_pool.hpp"
#include "epi/chain_binomial.hpp"
#include "epi/parameters.hpp"
#include "epi/schedule.hpp"
#include "epi/seir_model.hpp"

namespace epismc::core {

/// Output of one branched window run.
struct WindowRun {
  std::vector<double> true_cases;  // daily new infections, window days
  std::vector<double> deaths;      // daily new deaths, window days
  epi::Checkpoint end_state;       // filled iff want_checkpoint
};

/// Fused per-sim outputs of a batched sweep. Everything is optional; the
/// default sink reproduces a plain propagate-only pass.
struct BatchSink {
  /// When non-null, sim s's end-of-window state is captured into pool
  /// slot s (the pool must already span the propagated range). Capture
  /// happens inside the parallel loop, straight from the just-propagated
  /// model -- the inline replacement for the old checkpoint-replay pass.
  StatePool* capture = nullptr;

  /// When set, called as on_sim(s) inside the parallel loop after sim s's
  /// buffer rows are final (and after capture). Must be thread-safe and
  /// depend only on s -- the same determinism contract as the loop body.
  /// The importance sampler folds bias + likelihood scoring in here.
  std::function<void(std::size_t)> on_sim;

  /// When set, the built-in run_batch steps the window's days one at a
  /// time: after each day it writes that day's true-case and death values
  /// into sim s's rows and calls on_day(s, days_filled), where days_filled
  /// counts the row entries written so far (1 .. window_len). Returning
  /// false ends sim s there: its remaining days are not simulated, its
  /// capture slot is left untouched and on_sim is not called. Same
  /// threading and determinism contract as on_sim. Advisory: the generic
  /// base-class run_batch and every advance_batch ignore it, so a caller
  /// must treat a sim that reaches on_sim exactly like an unhooked run.
  /// Rejuvenation stops proposals it can prove rejected through this.
  std::function<bool(std::size_t, std::size_t)> on_day;
};

class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Build the shared initial state: seed the epidemic, burn in to
  /// `day` (exclusive of the first calibration day) and checkpoint.
  [[nodiscard]] virtual epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const = 0;

  /// Branch from `state`: apply (theta from the next day, new RNG
  /// identity), simulate through `to_day` inclusive, extract the series
  /// for days [state.day + 1, to_day].
  [[nodiscard]] virtual WindowRun run_window(const epi::Checkpoint& state,
                                             double theta, std::uint64_t seed,
                                             std::uint64_t stream,
                                             std::int32_t to_day,
                                             bool want_checkpoint) const = 0;

  /// An empty state pool of this backend's native representation. The
  /// default is the byte-blob CheckpointStatePool (custom simulators keep
  /// their historical cost model); built-in backends return typed
  /// ModelStatePool<Model> pools.
  [[nodiscard]] virtual std::unique_ptr<StatePool> make_pool() const;

  /// Single-pass batch kernel: propagate sims [first, first + count) of
  /// `buffer` through `to_day`. For each sim s, read its (parent, theta,
  /// seed, stream) columns -- `parent` indexes a slot of `parents` -- run
  /// the branched trajectory, store the window tail of the true-case and
  /// death series into the buffer rows, then apply the sink (end-state
  /// capture into a pool slot, fused per-sim hook).
  ///
  /// Parallel inside (pool over the range); results are independent of
  /// the thread count because every trajectory's randomness is addressed
  /// by its (seed, stream) columns. The default implementation is the
  /// generic adapter for simulators that implement only run_window: each
  /// referenced parent crosses the pool's checkpoint io boundary once,
  /// then one parallel sweep runs run_window per sim, stores its rows,
  /// captures its end state and calls the sink's hook. This is the one
  /// override for native batching; built-in backends replace it with
  /// fused engines that copy-and-branch typed pool prototypes.
  virtual void run_batch(const StatePool& parents, std::int32_t to_day,
                         EnsembleBuffer& buffer, std::size_t first,
                         std::size_t count, const BatchSink& sink = {}) const;

  /// Checkpoint-span bridge: parents arrive as portable byte blobs (the io
  /// boundary) and end states leave the same way. Pools the parents with
  /// make_pool(), runs the pool overload above with a capture pool and
  /// serializes the captured states into `end_states` (empty, or sized
  /// `count`). Overriding it does not change what the pool overload runs.
  virtual void run_batch(std::span<const epi::Checkpoint> parents,
                         std::int32_t to_day, EnsembleBuffer& buffer,
                         std::size_t first, std::size_t count,
                         std::span<epi::Checkpoint> end_states = {}) const;

  /// Streaming continuation kernel: advance the pooled live states
  /// [first, first + count) in place through `to_day` and store the tail
  /// of the newly simulated days into the buffer rows. Unlike run_batch
  /// there is no copy-and-branch: each slot keeps its model's own RNG
  /// position and trajectory, so a sequence of advance_batch calls is
  /// bit-identical to one run_batch over the union of the days. Every
  /// buffer parent column must reference the slot itself (parent[s] == s).
  ///
  /// The default implementation is the run_window adapter: one sweep
  /// serializes each slot, re-branches it through run_window onto the
  /// buffer's (seed, stream) columns and writes the end state back --
  /// distribution-correct for custom registry backends (each call consumes
  /// a fresh per-day stream), but only the typed overrides carry the
  /// bit-equality guarantee.
  virtual void advance_batch(StatePool& states, std::int32_t to_day,
                             EnsembleBuffer& buffer, std::size_t first,
                             std::size_t count,
                             const BatchSink& sink = {}) const;

  /// Streaming resample redistribution: states[i] becomes a copy of
  /// states[ancestors[i]] (duplicates allowed), re-branched onto its fresh
  /// (seed, streams[i], thetas[i]) identity so duplicated particles
  /// diverge from the next day on. The default implementation only
  /// gathers -- sound because the default advance_batch re-branches every
  /// call from the buffer's per-day stream columns anyway; typed backends
  /// re-seed the pooled models' own engines here.
  virtual void resample_states(StatePool& states,
                               std::span<const std::uint32_t> ancestors,
                               std::uint64_t seed,
                               std::span<const std::uint64_t> streams,
                               std::span<const double> thetas) const;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Throws unless the run_batch / advance_batch arguments are coherent:
  /// range within the buffer, parent columns within `parents` (the state
  /// pool itself for advance_batch), capture pool (when present) spanning
  /// the range. Backends call this before entering their parallel region
  /// so argument bugs surface as exceptions, not as racy out-of-bounds
  /// writes or half-advanced pools.
  static void validate_batch_args(const StatePool& parents,
                                  const EnsembleBuffer& buffer,
                                  std::size_t first, std::size_t count,
                                  const BatchSink& sink);

  /// Throws unless resample_states' per-particle spans align.
  static void validate_resample_args(std::span<const std::uint32_t> ancestors,
                                     std::span<const std::uint64_t> streams,
                                     std::span<const double> thetas);
};

/// Adapter pinning run_batch to the base-class per-sim reference
/// implementation (one run_window per trajectory, parents and end states
/// crossing the checkpoint io boundary) regardless of any native batch
/// engine the wrapped backend has. The equivalence tests and the ensemble
/// benches compare native batch output and throughput against exactly this
/// path.
class PerSimReference final : public Simulator {
 public:
  explicit PerSimReference(const Simulator& inner) : inner_(inner) {}

  [[nodiscard]] epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override {
    return inner_.initial_state(day, seed);
  }
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state, double theta,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::int32_t to_day,
                                     bool want_checkpoint) const override {
    return inner_.run_window(state, theta, seed, stream, to_day,
                             want_checkpoint);
  }
  /// Same pool type as the wrapped backend, so reference and native runs
  /// produce directly comparable pools -- but run_batch stays the base
  /// bridge, which reaches the pool only through its checkpoint boundary.
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const override {
    return inner_.make_pool();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const Simulator& inner_;
};

/// Shared configuration for the concrete epi-model simulators.
struct EpiSimulatorConfig {
  epi::DiseaseParameters params;
  double burnin_theta = 0.3;          // transmission during shared burn-in
  std::int64_t initial_exposed = 400; // seeding at day 0
};

/// The built-in backends: one Simulator over a checkpointable model type
/// (restore / branch / run_until_day / trajectory / make_checkpoint).
/// Every override runs the shared fused kernels of core/batch_runner.hpp,
/// which defines the members; each model is instantiated explicitly once
/// (simulator.cpp, abm/abm_simulator.cpp). Config is EpiSimulatorConfig or
/// abm::AbmSimulatorConfig: the model is built from its `params` or `abm`
/// field, plus `burnin_theta` and `initial_exposed`. Subclasses supply
/// name() only.
template <typename Model, typename Config>
class ModelSimulator : public Simulator {
 public:
  explicit ModelSimulator(Config config) : config_(std::move(config)) {
    model_config().validate();
  }

  [[nodiscard]] epi::Checkpoint initial_state(std::int32_t day,
                                              std::uint64_t seed) const override;
  [[nodiscard]] WindowRun run_window(const epi::Checkpoint& state, double theta,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::int32_t to_day,
                                     bool want_checkpoint) const override;
  /// Typed ModelStatePool<Model>: slots hold live model copies.
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const override;
  /// Fused engine: copy-and-branch typed parent prototypes per sim, and
  /// capture and score through the sink in the same sweep.
  void run_batch(const StatePool& parents, std::int32_t to_day,
                 EnsembleBuffer& buffer, std::size_t first, std::size_t count,
                 const BatchSink& sink = {}) const override;
  using Simulator::run_batch;  // the checkpoint-span bridge
  void advance_batch(StatePool& states, std::int32_t to_day,
                     EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count,
                     const BatchSink& sink = {}) const override;
  void resample_states(StatePool& states,
                       std::span<const std::uint32_t> ancestors,
                       std::uint64_t seed,
                       std::span<const std::uint64_t> streams,
                       std::span<const double> thetas) const override;

 private:
  [[nodiscard]] const auto& model_config() const {
    if constexpr (requires { config_.abm; }) {
      return config_.abm;
    } else {
      return config_.params;
    }
  }

  /// Runs on every model right before it propagates. The ABM forces the
  /// configured day-step engine (AbmConfig::engine) over the one its
  /// checkpoint carries -- restoring a reference-engine state into the
  /// fast engine is the supported cross-engine A/B path; a no-op when they
  /// agree and for the compartmental models.
  void prepare(Model& model) const {
    if constexpr (requires { config_.abm.engine; }) {
      model.set_engine(config_.abm.engine);
    }
  }

  Config config_;
};

extern template class ModelSimulator<epi::SeirModel, EpiSimulatorConfig>;
extern template class ModelSimulator<epi::ChainBinomialModel,
                                     EpiSimulatorConfig>;

/// Simulator backed by the event-driven SeirModel.
class SeirSimulator final
    : public ModelSimulator<epi::SeirModel, EpiSimulatorConfig> {
 public:
  using ModelSimulator::ModelSimulator;
  [[nodiscard]] std::string name() const override { return "seir-event"; }
};

/// Simulator backed by the memoryless chain-binomial baseline.
class ChainBinomialSimulator final
    : public ModelSimulator<epi::ChainBinomialModel, EpiSimulatorConfig> {
 public:
  using ModelSimulator::ModelSimulator;
  [[nodiscard]] std::string name() const override { return "chain-binomial"; }
};

}  // namespace epismc::core
