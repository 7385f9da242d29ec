#pragma once

// Event-driven stochastic SEIR simulator with checkpoint/restart.
//
// The engine advances in whole-day steps. When a cohort enters a
// compartment, its branching outcome (multinomial over destinations) and
// sojourn time (discretized Erlang, see delay.hpp) are sampled immediately
// and the resulting departures are pushed onto a future-event queue. The
// complete simulator state is therefore:
//
//   census counts  +  future transition events  +  current day  +  RNG state
//
// exactly the state the paper's checkpointing serializes ("the number of
// persons in each state, the future state transition events, the current
// simulated time"). Restarting from a checkpoint may override the random
// seed, the E->P and P->Sm branching fractions, the two relative
// infectiousness multipliers, and the S->E transmission rate -- the six
// restart knobs listed in paper section III-B.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "epi/compartments.hpp"
#include "epi/delay.hpp"
#include "epi/parameters.hpp"
#include "epi/schedule.hpp"
#include "epi/trajectory.hpp"
#include "random/distributions.hpp"

namespace epismc::epi {

/// Optional parameter overrides applied at checkpoint restart; unset fields
/// keep their checkpointed values. Field numbering follows paper §III-B.
struct RestartOverrides {
  std::optional<std::uint64_t> seed;                  // (1) random seed
  std::optional<double> fraction_symptomatic;         // (2) E -> P fraction
  std::optional<double> fraction_mild;                // (3) P -> Sm fraction
  std::optional<double> asymptomatic_infectiousness;  // (4) sympt. vs asympt.
  std::optional<double> detected_infectiousness;      // (5) detected vs not
  std::optional<double> transmission_rate;            // (6) S -> E rate onward
  std::optional<std::uint64_t> stream;                // companion of (1)

  [[nodiscard]] bool reseeds() const noexcept {
    return seed.has_value() || stream.has_value();
  }
};

/// Serialized simulator state. The byte payload is self-contained; `day` is
/// duplicated out of it for cheap bookkeeping in checkpoint stores.
struct Checkpoint {
  std::vector<std::byte> bytes;
  std::int32_t day = 0;

  void save(const std::filesystem::path& path) const;
  [[nodiscard]] static Checkpoint load(const std::filesystem::path& path);
};

namespace detail {

/// Archived disease parameters for a model restore. A field that fails
/// DiseaseParameters::validate() is a property of the bytes, not of the
/// caller, so it throws io::ArchiveError(kCorrupt) naming `who`.
[[nodiscard]] DiseaseParameters read_archived_parameters(io::BinaryReader& in,
                                                         const char* who);

/// Reject an archived census with a negative entry or one that does not
/// sum to `population` with io::ArchiveError(kCorrupt) naming `who`.
void check_archived_census(const Census& counts, std::int64_t population,
                           const char* who);

}  // namespace detail

class SeirModel {
 public:
  SeirModel(DiseaseParameters params, PiecewiseSchedule transmission,
            std::uint64_t seed, std::uint64_t stream = 0);

  /// Move `count` individuals S -> E (initial epidemic seeding).
  void seed_exposed(std::int64_t count);

  /// Simulate one day.
  void step();

  /// Step until the current day equals `day` (inclusive target).
  void run_until_day(std::int32_t day);

  [[nodiscard]] std::int32_t day() const noexcept { return day_; }
  [[nodiscard]] const Trajectory& trajectory() const noexcept {
    return trajectory_;
  }
  [[nodiscard]] std::int64_t count(Compartment c) const noexcept {
    return counts_[index(c)];
  }
  [[nodiscard]] const Census& census() const noexcept { return counts_; }
  [[nodiscard]] std::int64_t population() const noexcept {
    return params_.population;
  }
  [[nodiscard]] const DiseaseParameters& parameters() const noexcept {
    return params_;
  }
  [[nodiscard]] const PiecewiseSchedule& transmission() const noexcept {
    return transmission_;
  }

  /// Infectiousness-weighted count of infectious individuals.
  [[nodiscard]] double effective_infectious() const noexcept;

  /// Per-susceptible infection hazard for the current day.
  [[nodiscard]] double force_of_infection() const noexcept;

  /// Sum over all compartments; equals population() at all times
  /// (individual conservation invariant).
  [[nodiscard]] std::int64_t total_individuals() const noexcept;

  /// Number of queued future transition events.
  [[nodiscard]] std::size_t pending_events() const noexcept;

  [[nodiscard]] Checkpoint make_checkpoint() const;
  [[nodiscard]] static SeirModel restore(const Checkpoint& ckpt,
                                         const RestartOverrides& ovr = {});

  /// Re-aim this model (a copy of a restored prototype) at a new branch:
  /// reseed the RNG to (seed, stream) at position 0 and override the
  /// transmission rate from the next day on. State-for-state identical to
  /// restore(ckpt, {seed, stream, theta}) minus the checkpoint parse --
  /// the batched run path copies one prototype per parent and branches.
  void branch(std::uint64_t seed, std::uint64_t stream, double theta) {
    eng_.reseed(seed, stream);
    transmission_.override_from(day_ + 1, theta);
  }

 private:
  struct Event {
    Compartment from;
    Compartment to;
    std::int64_t count;
  };

  SeirModel() = default;  // used by restore()

  void init_event_ring();
  [[nodiscard]] std::size_t ring_slot(std::int32_t day) const noexcept {
    return static_cast<std::size_t>(day) % ring_.size();
  }
  void schedule(std::int32_t due_day, Compartment from, Compartment to,
                std::int64_t count);
  void schedule_split(const DelayDistribution& delay, Compartment from,
                      Compartment to, std::int64_t count);
  void apply(const Event& ev);
  void enter(Compartment c, std::int64_t count);

  DiseaseParameters params_;
  PiecewiseSchedule transmission_;
  rng::Engine eng_;
  std::int32_t day_ = 0;
  Census counts_{};
  // Future-event queue as a day ring aggregated by transition edge:
  // slot[e] holds the number of individuals making edge e's transition on
  // that slot's day. Aggregation is distribution-exact (binomial and
  // multinomial splits are additive in cohort size) and bounds queue size
  // at kEdgeCount * horizon regardless of epidemic size. All scheduled
  // days lie within (day_, day_ + ring_.size()), so slot day % size is
  // collision-free.
  using EventSlot = std::array<std::int64_t, kEdgeCount>;
  std::vector<EventSlot> ring_;
  Trajectory trajectory_;

  std::int64_t today_new_infections_ = 0;
  std::int64_t today_new_detected_ = 0;
  std::int64_t today_new_deaths_ = 0;

  // Sojourn-time tables derived from params_ (not serialized; shared
  // through delay_tables' cache).
  std::shared_ptr<const DelayTables> delays_;
};

}  // namespace epismc::epi
