#pragma once

// Typed in-memory state pools for the single-pass importance window.
//
// The SMC hot path used to move simulator states around as epi::Checkpoint
// byte blobs: every end-of-window state was serialized field by field and
// every restart re-parsed it. A StatePool instead keeps states in the
// backend's own typed representation -- for the built-in engines a pooled
// copy of the model object itself (census arrays, event ring, trajectory,
// RNG coordinates), copy-assigned slot by slot so buffer capacity is
// reused and nothing is byte-encoded. Byte serialization survives only at
// the io boundary: `to_checkpoint` / `set_from_checkpoint` convert a slot
// to and from the portable epi::Checkpoint format for on-disk save/load,
// for the checkpoint-span run_batch bridge, and for the generic adapter
// that runs simulators speaking only the run_window contract.
//
// Pools are produced by Simulator::make_pool(), filled by the fused batch
// kernel (inline end-state capture during the weighted pass, or the
// deferred replay fallback -- see core/importance_sampler.hpp), compacted
// down to the unique resampled survivors, and consumed as the parent
// states of the next window, by posterior forecasts, and by the api layer.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "epi/seir_model.hpp"  // epi::Checkpoint

namespace epismc::core {

/// Type-erased pool of simulator states. One slot holds one complete
/// simulator state; slots are independent, so concurrent writes to
/// distinct slots from a parallel batch sweep are safe once the pool has
/// been resized. Concrete pools: ModelStatePool<Model> (typed, built-in
/// backends) and CheckpointStatePool (byte-blob fallback for custom
/// registry simulators).
class StatePool {
 public:
  virtual ~StatePool() = default;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Grow or shrink to `n_slots`. Surviving slots keep their states (and
  /// their heap capacity -- the point of pooling); new slots are empty
  /// until written.
  virtual void resize(std::size_t n_slots) = 0;
  void clear() { resize(0); }

  /// Day of the state in `slot`; throws std::logic_error on an empty slot.
  [[nodiscard]] virtual std::int32_t day(std::size_t slot) const = 0;

  /// Keep exactly the slots named by `keep` (strictly increasing old slot
  /// indices), moved down to positions [0, keep.size()). Everything else
  /// is dropped. O(survivors) pointer moves -- this is how an inline
  /// capture over the full ensemble shrinks to the unique resampled
  /// survivors without touching state bytes.
  virtual void compact(std::span<const std::uint32_t> keep) = 0;

  // --- io boundary: the only place byte serialization still exists. -------
  /// Serialize `slot` into the portable checkpoint format. Must be safe to
  /// call concurrently on distinct slots: StreamingCalibrator::snapshot
  /// encodes a whole pool inside one parallel_for. Both pools qualify --
  /// they only read the slot.
  [[nodiscard]] virtual epi::Checkpoint to_checkpoint(std::size_t slot) const = 0;
  /// Parse a portable checkpoint into `slot` (slot must exist).
  virtual void set_from_checkpoint(std::size_t slot,
                                   const epi::Checkpoint& ckpt) = 0;
  /// Append a parsed checkpoint as a new slot; returns its index.
  std::size_t append_checkpoint(const epi::Checkpoint& ckpt) {
    const std::size_t slot = size();
    resize(slot + 1);
    set_from_checkpoint(slot, ckpt);
    return slot;
  }

  /// Append the state held in `from`'s `slot` as a new slot of this pool,
  /// returning the new index. Pools of the same concrete type move the
  /// typed state across (no serialization; the donor slot is emptied);
  /// mismatched pools fall back to the checkpoint io boundary. This is how
  /// rejuvenation folds freshly captured particle states into a window's
  /// survivor pool.
  virtual std::size_t append_from(StatePool& from, std::size_t slot) {
    return append_checkpoint(from.to_checkpoint(slot));
  }

  /// Replace the pool's contents with copies of the named ancestor slots:
  /// slot i becomes a copy of old slot ancestors[i]. Unlike compact(),
  /// indices may repeat and appear in any order -- this is the streaming
  /// mid-window resample redistribution, where several particles adopt the
  /// same ancestor state. The default round-trips through the checkpoint
  /// io boundary; ModelStatePool copies typed states directly.
  virtual void gather(std::span<const std::uint32_t> ancestors);

  /// Rough in-memory footprint of one state, in bytes -- the input to the
  /// inline-capture size rule (inline capture of N states costs
  /// N * approx_state_bytes() of peak memory). Estimated from the first
  /// non-empty slot; 0 when the pool is empty.
  [[nodiscard]] virtual std::size_t approx_state_bytes() const = 0;

  /// Backend label for error messages ("seir-event", "checkpoint", ...).
  [[nodiscard]] virtual std::string backend() const = 0;

 protected:
  [[noreturn]] static void throw_empty_slot(std::size_t slot) {
    throw std::logic_error("StatePool: slot " + std::to_string(slot) +
                           " holds no state");
  }

  /// Shared compact() implementation over any slot container: move the
  /// named slots down to [0, keep.size()) and truncate. `keep` indices are
  /// strictly increasing, so every move targets a position at or below its
  /// source.
  template <typename Slot>
  static void compact_slots(std::vector<Slot>& slots,
                            std::span<const std::uint32_t> keep) {
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i] >= slots.size()) {
        throw std::out_of_range("StatePool::compact: slot " +
                                std::to_string(keep[i]) + " out of range");
      }
      if (keep[i] != i) slots[i] = std::move(slots[keep[i]]);
    }
    slots.resize(keep.size());
  }
};

/// Typed pool: each slot owns a full copy of the backend's model object.
/// Writing a slot copy-assigns into the existing model, so event rings,
/// trajectories and agent arrays reuse their heap capacity; reading a slot
/// hands the batch kernel a prototype to copy-and-branch from with zero
/// parsing. Model must provide make_checkpoint() / restore(ckpt) / day()
/// (the shared checkpointable-model contract).
template <typename Model>
class ModelStatePool final : public StatePool {
 public:
  [[nodiscard]] std::size_t size() const noexcept override {
    return slots_.size();
  }

  void resize(std::size_t n_slots) override { slots_.resize(n_slots); }

  [[nodiscard]] std::int32_t day(std::size_t slot) const override {
    return at(slot).day();
  }

  void compact(std::span<const std::uint32_t> keep) override {
    compact_slots(slots_, keep);
  }

  [[nodiscard]] epi::Checkpoint to_checkpoint(std::size_t slot) const override {
    return at(slot).make_checkpoint();
  }

  void set_from_checkpoint(std::size_t slot,
                           const epi::Checkpoint& ckpt) override {
    set(slot, Model::restore(ckpt));
  }

  std::size_t append_from(StatePool& from, std::size_t slot) override {
    if (auto* typed = dynamic_cast<ModelStatePool<Model>*>(&from)) {
      if (slot >= typed->slots_.size() || !typed->slots_[slot]) {
        throw_empty_slot(slot);
      }
      const std::size_t here = slots_.size();
      slots_.push_back(std::move(typed->slots_[slot]));
      return here;
    }
    return StatePool::append_from(from, slot);
  }

  [[nodiscard]] std::size_t approx_state_bytes() const override {
    // The serialized image tracks the dominant state arrays (census, event
    // queue, per-agent state, trajectory), so it is a usable stand-in for
    // the in-memory footprint; x2 covers headroom of pooled capacity.
    for (const auto& slot : slots_) {
      if (slot) return 2 * slot->make_checkpoint().bytes.size();
    }
    return 0;
  }

  [[nodiscard]] std::string backend() const override {
    return std::string("typed:") + typeid(Model).name();
  }

  void gather(std::span<const std::uint32_t> ancestors) override {
    std::vector<std::unique_ptr<Model>> next(ancestors.size());
    for (std::size_t i = 0; i < ancestors.size(); ++i) {
      if (ancestors[i] >= slots_.size() || !slots_[ancestors[i]]) {
        throw_empty_slot(ancestors[i]);
      }
      next[i] = std::make_unique<Model>(*slots_[ancestors[i]]);
    }
    slots_ = std::move(next);
  }

  // --- Typed access for the batch kernel. ---------------------------------
  /// Prototype view of `slot` for copy-and-branch propagation.
  [[nodiscard]] const Model& at(std::size_t slot) const {
    if (slot >= slots_.size() || !slots_[slot]) throw_empty_slot(slot);
    return *slots_[slot];
  }

  /// Mutable slot view for in-place advancement (the streaming path keeps
  /// each particle's live model here and steps it day by day).
  [[nodiscard]] Model& at(std::size_t slot) {
    if (slot >= slots_.size() || !slots_[slot]) throw_empty_slot(slot);
    return *slots_[slot];
  }

  /// Copy `model` into `slot` (end-of-window capture). Thread-safe across
  /// distinct slots; reuses the slot's existing heap capacity.
  void set(std::size_t slot, const Model& model) {
    auto& p = slots_.at(slot);
    if (p) {
      *p = model;
    } else {
      p = std::make_unique<Model>(model);
    }
  }
  void set(std::size_t slot, Model&& model) {
    auto& p = slots_.at(slot);
    if (p) {
      *p = std::move(model);
    } else {
      p = std::make_unique<Model>(std::move(model));
    }
  }

 private:
  std::vector<std::unique_ptr<Model>> slots_;
};

/// Byte-blob fallback pool for simulators outside the typed contract: each
/// slot is a stored epi::Checkpoint, so custom registry simulators keep
/// exactly their historical behaviour (run_window in, checkpoint out) while
/// speaking the same pool interface as the typed backends. It is the only
/// pool a run_window-only simulator has.
class CheckpointStatePool final : public StatePool {
 public:
  [[nodiscard]] std::size_t size() const noexcept override;
  void resize(std::size_t n_slots) override;
  [[nodiscard]] std::int32_t day(std::size_t slot) const override;
  void compact(std::span<const std::uint32_t> keep) override;
  [[nodiscard]] epi::Checkpoint to_checkpoint(std::size_t slot) const override;
  void set_from_checkpoint(std::size_t slot,
                           const epi::Checkpoint& ckpt) override;
  [[nodiscard]] std::size_t approx_state_bytes() const override;
  [[nodiscard]] std::string backend() const override { return "checkpoint"; }

 private:
  [[nodiscard]] const epi::Checkpoint& at(std::size_t slot) const;

  // A slot is occupied once its checkpoint has bytes (every serialized
  // model state has a non-empty payload).
  std::vector<epi::Checkpoint> slots_;
};

}  // namespace epismc::core
