#pragma once

// Agent-based SEIR model -- the §VI extension.
//
// The paper argues its SMC framework "applies equally well to other
// stochastic simulation models, such as ABMs", whose individual-level
// "coordinate system" maps more readily to targeted interventions. This
// module makes that concrete: an individual-based model with the same
// disease natural history as the compartmental simulator (identical
// DiseaseParameters, identical compartment labels), plus two-level mixing
// (households + community), implementing the same trajectory, checkpoint
// and restart-override contracts. The SMC core calibrates it unchanged.
//
// State per agent: current compartment and the pre-sampled next transition
// (destination + due day) -- the agent-granular version of the cohort
// model's future-event queue, which is what makes the state exactly
// checkpointable.
//
// Two day-step engines share that state:
//
//   kFast (default)  event-driven: a calendar queue (bucket ring indexed
//                    by due day) delivers exactly the agents transitioning
//                    today; an incrementally maintained infectious-set /
//                    per-household pressure table drives force-of-infection
//                    without scanning the population; and the homogeneous
//                    community force draws the day's infection count as
//                    one aggregated Binomial(S, p_comm), victims picked
//                    uniformly without replacement. Day cost is
//                    O(epidemic activity), not O(population).
//   kReference       the historical three-scan engine: every agent is
//                    visited every day. O(population) per day, but the
//                    per-agent draw sequence is the original one -- kept
//                    selectable as the statistical-equivalence baseline.
//
// The engines consume different RNG draw sequences (the fast engine
// aggregates draws), so they produce different realizations from the same
// seed; they sample the *same distribution* (tests/abm_engine_test.cpp pins
// the fast engine to the reference across hundreds of paired seeds). Each
// engine on its own is bit-deterministic and checkpoint-exact.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "epi/compartments.hpp"
#include "epi/delay.hpp"
#include "epi/parameters.hpp"
#include "epi/schedule.hpp"
#include "epi/seir_model.hpp"  // Checkpoint, RestartOverrides
#include "epi/trajectory.hpp"
#include "random/distributions.hpp"

namespace epismc::abm {

/// Day-step engine selector; see the header comment. Serialized into
/// checkpoints so a restored model keeps stepping the way it was stepping.
enum class AbmEngine : std::uint8_t {
  kFast = 0,
  kReference = 1,
};

[[nodiscard]] std::string_view to_string(AbmEngine engine) noexcept;
/// Parse "fast" / "reference"; throws std::invalid_argument otherwise.
[[nodiscard]] AbmEngine engine_from_name(std::string_view name);

struct AbmConfig {
  epi::DiseaseParameters disease;   // natural history, shared with epi::
  double mean_household_size = 2.5; // household sizes ~ 1 + Poisson(mean-1)
  /// Share of the transmission rate acting within households; the rest is
  /// homogeneous community mixing.
  double household_share = 0.3;
  /// Seed for the (static) household topology. Not a calibration
  /// parameter: the network is part of the model definition, so restarts
  /// rebuild it deterministically instead of serializing it.
  std::uint64_t network_seed = 17;
  /// Day-step engine. kFast is the production engine; kReference keeps the
  /// original per-agent scans selectable for A/B equivalence runs.
  AbmEngine engine = AbmEngine::kFast;

  void validate() const;
};

class AgentBasedModel {
 public:
  AgentBasedModel(AbmConfig config, epi::PiecewiseSchedule transmission,
                  std::uint64_t seed, std::uint64_t stream = 0);

  /// Expose `count` randomly chosen susceptible agents to infection.
  /// O(count) expected work even when susceptibles are scarce (scarce
  /// populations fall back to a scan-built susceptible index and a partial
  /// Fisher-Yates pick instead of unbounded accept/reject).
  void seed_exposed(std::int64_t count);

  void step();
  void run_until_day(std::int32_t day);

  [[nodiscard]] std::int32_t day() const noexcept { return day_; }
  [[nodiscard]] const epi::Trajectory& trajectory() const noexcept {
    return trajectory_;
  }
  [[nodiscard]] std::int64_t count(epi::Compartment c) const noexcept {
    return counts_[epi::index(c)];
  }
  [[nodiscard]] const epi::Census& census() const noexcept { return counts_; }
  [[nodiscard]] std::int64_t population() const noexcept {
    return config_.disease.population;
  }
  [[nodiscard]] const AbmConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::int64_t total_individuals() const noexcept;
  [[nodiscard]] std::size_t household_count() const noexcept {
    return household_offsets_.size() - 1;
  }
  [[nodiscard]] double effective_infectious() const noexcept;
  [[nodiscard]] AbmEngine engine() const noexcept { return config_.engine; }
  /// Households currently holding at least one infectious member -- the
  /// "hot" set whose susceptibles get per-agent infection draws.
  [[nodiscard]] std::size_t hot_household_count() const noexcept {
    return hot_households_.size();
  }

  /// Switch the day-step engine in place (rebuilds the calendar queue; all
  /// epidemiological state is engine-agnostic). Restoring a
  /// reference-engine checkpoint and calling set_engine(kFast) is the
  /// supported cross-engine migration path.
  void set_engine(AbmEngine engine);

  [[nodiscard]] epi::Checkpoint make_checkpoint() const;
  /// Archived fields that fail validation (disease parameters, household
  /// size or share, a census that does not sum to the population) throw
  /// io::ArchiveError(kCorrupt); an invalid override in `ovr` throws
  /// std::invalid_argument.
  [[nodiscard]] static AgentBasedModel restore(const epi::Checkpoint& ckpt,
                                               const epi::RestartOverrides& ovr = {});

  /// Re-aim this model (a copy of a restored prototype) at a new branch;
  /// see epi::SeirModel::branch for the contract. Copy + branch skips both
  /// the per-agent state parse and the deterministic household rebuild,
  /// which is what makes the batched ABM path cheaper than per-sim restore.
  void branch(std::uint64_t seed, std::uint64_t stream, double theta) {
    eng_.reseed(seed, stream);
    transmission_.override_from(day_ + 1, theta);
  }

 private:
  AgentBasedModel() = default;

  void build_households();
  void acquire_delay_tables();
  /// Restore-time: index the archived susceptible list and hot set, and
  /// rebuild the household pressure classes from the state arrays.
  void rebuild_population_index();
  /// Bucket count of the calendar ring implied by the disease parameters.
  [[nodiscard]] std::size_t calendar_length() const noexcept;
  /// Restore-time sanity checks on the archived calendar ring.
  void validate_restored_calendar() const;
  /// Rebuild the calendar queue from next_day_ in ascending-agent order
  /// (fresh models and engine switches; restores keep the archived ring).
  void rebuild_calendar();

  /// Move agent a into compartment c and pre-sample its next transition.
  void enter(std::size_t a, epi::Compartment c);
  /// Bookkeeping for agent a leaving compartment c (census + pressure).
  void exit_compartment(std::size_t a, epi::Compartment c);
  /// Infect susceptible agent a (move it to kE). Does not touch the daily
  /// infection counter.
  void infect(std::size_t a);
  /// Infect a uniform k-subset of the current susceptibles. Rejection
  /// draws over agent ids while the expected rejection work stays below a
  /// quarter population scan (S >= 5k); otherwise one scan-built index
  /// plus a partial Fisher-Yates pick -- never the unbounded accept/reject
  /// walk the old seeding path degenerated into. `record` adds the victims
  /// to the daily infection counter.
  void infect_random_susceptibles(std::int64_t k, bool record);

  void step_transitions_reference();
  void step_infections_reference();
  void step_transitions_fast();
  void step_infections_fast();
  void record_day();

  /// Infectiousness weight of an agent's current state (0 if not
  /// infectious).
  [[nodiscard]] double weight_of(epi::Compartment c) const noexcept;
  [[nodiscard]] std::size_t ring_slot(std::int32_t day) const noexcept {
    return static_cast<std::size_t>(day) % ring_.size();
  }

  AbmConfig config_;
  epi::PiecewiseSchedule transmission_;
  rng::Engine eng_;
  std::int32_t day_ = 0;
  epi::Census counts_{};
  epi::Trajectory trajectory_;

  // Agent state (structure-of-arrays). This block plus the hot set and
  // calendar ring is the serialized state; the rest is derived.
  std::vector<std::uint8_t> state_;       // Compartment per agent
  std::vector<std::uint8_t> next_state_;  // pre-sampled destination
  std::vector<std::int32_t> next_day_;    // due day (INT32_MAX = terminal)
  std::vector<std::uint32_t> household_;  // household id per agent

  // Static topology (rebuilt from network_seed, never serialized).
  // Households are assigned consecutive agent ids at construction, so
  // household hh's members are exactly the agents [offsets[hh],
  // offsets[hh+1]) -- no member-index indirection needed.
  std::vector<std::uint32_t> household_offsets_;

  // Incremental force-of-infection bookkeeping, one cache-line-friendly
  // 8-byte record per household: infectious member counts by weight class
  // (integral, so entering and leaving agents cancel exactly, with none of
  // the drift an incrementally-updated double would accumulate), the
  // infectious total, and the remaining susceptibles. Derived state,
  // rebuilt on restore. The swap-pop "hot" household set's *order* is
  // drained verbatim by the fast engine, so it is serialized.
  struct HouseholdState {
    // Class counts are uint8: household sizes are 1 + Poisson(mean - 1)
    // with mean <= 20, which cannot reach 255 members in any feasible run.
    std::array<std::uint8_t, epi::kInfectiousnessClassCount> cls;
    std::uint16_t infectious;
    std::uint16_t susceptible;
  };
  static_assert(sizeof(HouseholdState) == 8);
  std::vector<HouseholdState> hh_state_;
  std::vector<std::uint32_t> hot_households_;  // hot set, insertion-ordered
  std::vector<std::uint32_t> hot_pos_;         // slot per household / kNoIndex

  // Calendar queue: bucket ring indexed by due day modulo the ring length,
  // sized past the longest schedulable delay so a push can never land in
  // the bucket being drained. Buckets drain in push order, which is part
  // of the serialized state (sort-free steps); only the fast engine pushes
  // to it -- under kReference the buckets stay empty.
  std::vector<std::vector<std::uint32_t>> ring_;

  // Per-day scratch, reused across days (capacity survives clear()).
  std::vector<std::uint32_t> scratch_susceptibles_;

  // Memo of household infection probabilities keyed by (packed class
  // counts, household size), day-stamped so schedule changes invalidate
  // it. Hot households overwhelmingly share a handful of signatures
  // ((0,0,1,0) in a 2-person household, ...), so this removes one exp()
  // per hot household per day. Pure cache: contents never influence
  // results (the value is a function of the key), so it is not serialized
  // and restores start cold.
  struct HazardMemo {
    std::uint64_t key = 0;  // packed class counts | household size << 32
    std::int32_t day = -1;
    double p_hh = 0.0;
  };
  std::vector<HazardMemo> hazard_memo_;

  std::int64_t today_new_infections_ = 0;
  std::int64_t today_new_detected_ = 0;
  std::int64_t today_new_deaths_ = 0;

  std::shared_ptr<const epi::DelayTables> delays_;
};

}  // namespace epismc::abm
