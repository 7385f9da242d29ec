#pragma once

// Memoryless chain-binomial baseline engine.
//
// Same compartment topology and observables as SeirModel, but sojourn times
// are geometric (a per-day exit hazard 1 - exp(-1/mean)) and nothing is
// scheduled ahead of time: the entire state is the census vector. This is
// the classical discrete-time formulation most SMC epidemic papers use; it
// exists here as the ablation baseline (E10/E11 discuss how Erlang sojourns
// and the event queue change calibration), and as a cross-check oracle for
// SeirModel's aggregate behaviour.

#include <array>
#include <cstdint>

#include "epi/compartments.hpp"
#include "epi/parameters.hpp"
#include "epi/schedule.hpp"
#include "epi/seir_model.hpp"
#include "epi/trajectory.hpp"
#include "random/distributions.hpp"

namespace epismc::epi {

class ChainBinomialModel {
 public:
  ChainBinomialModel(DiseaseParameters params, PiecewiseSchedule transmission,
                     std::uint64_t seed, std::uint64_t stream = 0);

  void seed_exposed(std::int64_t count);
  void step();
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
  [[nodiscard]] double effective_infectious() const noexcept;
  [[nodiscard]] double force_of_infection() const noexcept;
  [[nodiscard]] std::int64_t total_individuals() const noexcept;

  [[nodiscard]] Checkpoint make_checkpoint() const;
  [[nodiscard]] static ChainBinomialModel restore(const Checkpoint& ckpt,
                                                  const RestartOverrides& ovr = {});

  /// Re-aim this model (a copy of a restored prototype) at a new branch;
  /// see SeirModel::branch for the contract.
  void branch(std::uint64_t seed, std::uint64_t stream, double theta) {
    eng_.reseed(seed, stream);
    transmission_.override_from(day_ + 1, theta);
  }

 private:
  ChainBinomialModel() = default;

  /// The per-day probabilities that depend only on durations and
  /// detection fractions. Neither is restartable, so they are worked out
  /// once, at construction and at restore, not on every day step.
  struct SiteProbs {
    // Exit hazard 1 - exp(-1/mean) per sojourn.
    double leave_latent, leave_asym, leave_presym, leave_mild, leave_severe,
        leave_hosp, leave_icu, leave_post_icu;
    // Per-day detection hazard 1 - (1 - fraction)^(1/mean), approximating
    // an overall detection fraction over the state's mean duration.
    double detect_asym, detect_presym, detect_mild, detect_severe;
  };
  [[nodiscard]] static SiteProbs site_probs(const DiseaseParameters& p);

  /// Number of binomial draw sites in one day step (see step()).
  static constexpr std::size_t kDrawSites = 27;

  /// Fixed-width counter segment reserved per draw site at vector dispatch
  /// levels, so every site reads from a seed/stream/site-addressed slice of
  /// the Philox stream regardless of how many uniforms its draw consumes.
  static constexpr std::uint64_t kDrawSegment = 64;

  void draw_sites_sequential(std::array<std::int64_t, kDrawSites>& draw);
  void draw_sites_segmented(std::array<std::int64_t, kDrawSites>& draw);

  DiseaseParameters params_;
  PiecewiseSchedule transmission_;
  rng::Engine eng_;
  std::int32_t day_ = 0;
  Census counts_{};
  Trajectory trajectory_;
  SiteProbs probs_{};
};

}  // namespace epismc::epi
