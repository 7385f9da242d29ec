#include "core/simulator.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "parallel/parallel.hpp"

namespace epismc::core {

namespace {

/// One run_window trajectory of sim `s`, branched from `parent` onto the
/// sim's columns: stores its window rows and returns its end state (empty
/// unless `want_checkpoint`).
epi::Checkpoint run_window_into(const Simulator& sim,
                                const epi::Checkpoint& parent,
                                std::int32_t to_day, EnsembleBuffer& buffer,
                                std::size_t s, bool want_checkpoint) {
  WindowRun run = sim.run_window(parent, buffer.theta[s], buffer.seed[s],
                                 buffer.stream[s], to_day, want_checkpoint);
  buffer.store_tail(EnsembleBuffer::Series::kTrueCases, s, run.true_cases);
  buffer.store_tail(EnsembleBuffer::Series::kDeaths, s, run.deaths);
  return std::move(run.end_state);
}

}  // namespace

void Simulator::validate_batch_args(const StatePool& parents,
                                    const EnsembleBuffer& buffer,
                                    std::size_t first, std::size_t count,
                                    const BatchSink& sink) {
  if (first + count > buffer.size()) {
    throw std::out_of_range("run_batch: sim range [" + std::to_string(first) +
                            ", " + std::to_string(first + count) +
                            ") exceeds the buffer (" +
                            std::to_string(buffer.size()) + " sims)");
  }
  if (sink.capture != nullptr && sink.capture->size() < first + count) {
    throw std::invalid_argument(
        "run_batch: capture pool has " + std::to_string(sink.capture->size()) +
        " slots but the range needs " + std::to_string(first + count));
  }
  for (std::size_t s = first; s < first + count; ++s) {
    if (buffer.parent[s] >= parents.size()) {
      throw std::out_of_range("run_batch: sim " + std::to_string(s) +
                              " references parent " +
                              std::to_string(buffer.parent[s]) + " of " +
                              std::to_string(parents.size()));
    }
  }
}

void Simulator::validate_resample_args(
    std::span<const std::uint32_t> ancestors,
    std::span<const std::uint64_t> streams, std::span<const double> thetas) {
  if (ancestors.size() != streams.size() || ancestors.size() != thetas.size()) {
    throw std::invalid_argument(
        "resample_states: ancestors, streams and thetas must align");
  }
}

std::unique_ptr<StatePool> Simulator::make_pool() const {
  return std::make_unique<CheckpointStatePool>();
}

void Simulator::run_batch(const StatePool& parents, std::int32_t to_day,
                          EnsembleBuffer& buffer, std::size_t first,
                          std::size_t count, const BatchSink& sink) const {
  // Generic run_window adapter: each referenced parent crosses the
  // checkpoint io boundary once, then one sweep runs, captures and scores
  // every sim.
  validate_batch_args(parents, buffer, first, count, sink);
  std::vector<epi::Checkpoint> parent_ckpts(parents.size());
  std::vector<char> referenced(parents.size(), 0);
  for (std::size_t s = first; s < first + count; ++s) {
    referenced[buffer.parent[s]] = 1;
  }
  for (std::size_t p = 0; p < parents.size(); ++p) {
    if (referenced[p]) parent_ckpts[p] = parents.to_checkpoint(p);
  }

  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const epi::Checkpoint end =
        run_window_into(*this, parent_ckpts[buffer.parent[s]], to_day, buffer,
                        s, sink.capture != nullptr);
    if (sink.capture != nullptr) sink.capture->set_from_checkpoint(s, end);
    if (sink.on_sim) sink.on_sim(s);
  });
}

void Simulator::run_batch(std::span<const epi::Checkpoint> parents,
                          std::int32_t to_day, EnsembleBuffer& buffer,
                          std::size_t first, std::size_t count,
                          std::span<epi::Checkpoint> end_states) const {
  if (!end_states.empty() && end_states.size() != count) {
    throw std::invalid_argument(
        "run_batch: end_states must be empty or match the sim count");
  }
  const std::unique_ptr<StatePool> pool = make_pool();
  for (const epi::Checkpoint& parent : parents) pool->append_checkpoint(parent);
  BatchSink sink;
  std::unique_ptr<StatePool> capture;
  if (!end_states.empty()) {
    capture = make_pool();
    capture->resize(first + count);
    sink.capture = capture.get();
  }
  run_batch(*pool, to_day, buffer, first, count, sink);
  for (std::size_t i = 0; i < end_states.size(); ++i) {
    end_states[i] = capture->to_checkpoint(first + i);
  }
}

void Simulator::advance_batch(StatePool& states, std::int32_t to_day,
                              EnsembleBuffer& buffer, std::size_t first,
                              std::size_t count, const BatchSink& sink) const {
  // run_window adapter: each slot is serialized, re-branched onto the
  // buffer's fresh per-day (seed, stream) columns -- distribution-correct
  // rather than bit-identical to a single long run -- and written back, in
  // the same sweep that captures and scores it. Every slot is checked
  // first, so a bad argument leaves the pool untouched.
  validate_batch_args(states, buffer, first, count, sink);
  for (std::size_t s = first; s < first + count; ++s) {
    if (buffer.parent[s] != s) {
      throw std::invalid_argument(
          "advance_batch: buffer parent columns must be self-referential "
          "(parent[s] == s), sim " + std::to_string(s) + " references " +
          std::to_string(buffer.parent[s]));
    }
    if (to_day <= states.day(s)) {
      throw std::invalid_argument(
          "advance_batch: slot " + std::to_string(s) + " already sits at day " +
          std::to_string(states.day(s)) + ", cannot advance to day " +
          std::to_string(to_day));
    }
  }
  parallel::parallel_for(count, [&](std::size_t i) {
    const std::size_t s = first + i;
    const epi::Checkpoint end = run_window_into(
        *this, states.to_checkpoint(s), to_day, buffer, s, true);
    states.set_from_checkpoint(s, end);
    if (sink.capture != nullptr) sink.capture->set_from_checkpoint(s, end);
    if (sink.on_sim) sink.on_sim(s);
  });
}

void Simulator::resample_states(StatePool& states,
                                std::span<const std::uint32_t> ancestors,
                                std::uint64_t /*seed*/,
                                std::span<const std::uint64_t> streams,
                                std::span<const double> thetas) const {
  validate_resample_args(ancestors, streams, thetas);
  // Gather only: the default advance_batch re-branches each call from the
  // buffer's per-day (seed, stream, theta) columns, which is where the
  // duplicated copies diverge.
  states.gather(ancestors);
}

template class ModelSimulator<epi::SeirModel, EpiSimulatorConfig>;
template class ModelSimulator<epi::ChainBinomialModel, EpiSimulatorConfig>;

}  // namespace epismc::core
