#pragma once

// Disease natural-history parameters of the SEIR simulator.
//
// Values follow the Covid-Chicago model family (Runge et al. 2022): duration
// means and branching fractions are fixed from literature, while the
// transmission rate (and, in the paper's experiments, the reporting bias) is
// the calibration target. The five quantities the paper lists as overridable
// at checkpoint restart are marked [restartable].

#include <cstdint>
#include <stdexcept>
#include <string>

#include "io/binary_archive.hpp"

namespace epismc::epi {

/// Largest accepted `max_delay`: every sojourn table has at most this many
/// day bins, so fixed-size split scratch can hold any of them.
inline constexpr int kMaxDelayCeiling = 512;

struct DiseaseParameters {
  // Population.
  std::int64_t population = 2'700'000;  // City of Chicago, order of magnitude

  // Durations (means, days). Sojourn times are Erlang(shape, mean) draws
  // discretized to whole days.
  double latent_period = 3.2;        // E -> A/P
  double presymptomatic_period = 2.3;  // P -> Sm/Ss
  double asymptomatic_period = 7.0;  // A -> R
  double mild_period = 7.0;          // Sm -> R
  double severe_period = 4.5;        // Ss -> H
  double hospital_period = 6.0;      // H -> R (non-critical course)
  double hospital_to_icu = 4.0;      // H -> C (critical course)
  double icu_period = 8.0;           // C -> D or C -> Hp
  double post_icu_period = 4.0;      // Hp -> R
  int erlang_shape = 2;              // shape of all sojourn distributions
  int max_delay = 64;                // truncation horizon for sojourn pmfs

  // Branching fractions.
  double fraction_symptomatic = 0.65;  // E -> P (else A)   [restartable]
  double fraction_mild = 0.92;         // P -> Sm (else Ss) [restartable]
  double fraction_critical = 0.25;     // H -> C (else R)
  double fraction_death = 0.40;        // C -> D (else Hp)

  // Detection: probability that an infection in a given state is ever
  // detected, and the delay from state entry to detection.
  double detect_asymptomatic = 0.05;
  double detect_presymptomatic = 0.05;
  double detect_mild = 0.30;
  double detect_severe = 0.70;
  int detection_delay = 2;  // days from state entry to isolation

  // Relative infectiousness multipliers.
  double asymptomatic_infectiousness = 0.75;  // A vs symptomatic [restartable]
  double detected_infectiousness = 0.25;      // detected vs undetected [restartable]

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const {
    const auto positive = [](double v, const char* what) {
      if (!(v > 0.0)) throw std::invalid_argument(std::string("DiseaseParameters: ") + what + " must be > 0");
    };
    const auto fraction = [](double v, const char* what) {
      if (!(v >= 0.0 && v <= 1.0)) throw std::invalid_argument(std::string("DiseaseParameters: ") + what + " must be in [0, 1]");
    };
    if (population <= 0) {
      throw std::invalid_argument("DiseaseParameters: population must be > 0");
    }
    positive(latent_period, "latent_period");
    positive(presymptomatic_period, "presymptomatic_period");
    positive(asymptomatic_period, "asymptomatic_period");
    positive(mild_period, "mild_period");
    positive(severe_period, "severe_period");
    positive(hospital_period, "hospital_period");
    positive(hospital_to_icu, "hospital_to_icu");
    positive(icu_period, "icu_period");
    positive(post_icu_period, "post_icu_period");
    if (erlang_shape < 1 || erlang_shape > 16) {
      throw std::invalid_argument("DiseaseParameters: erlang_shape must be in [1, 16]");
    }
    if (max_delay < 8 || max_delay > kMaxDelayCeiling) {
      throw std::invalid_argument("DiseaseParameters: max_delay must be in [8, " +
                                  std::to_string(kMaxDelayCeiling) + "]");
    }
    fraction(fraction_symptomatic, "fraction_symptomatic");
    fraction(fraction_mild, "fraction_mild");
    fraction(fraction_critical, "fraction_critical");
    fraction(fraction_death, "fraction_death");
    fraction(detect_asymptomatic, "detect_asymptomatic");
    fraction(detect_presymptomatic, "detect_presymptomatic");
    fraction(detect_mild, "detect_mild");
    fraction(detect_severe, "detect_severe");
    if (detection_delay < 1) {
      throw std::invalid_argument("DiseaseParameters: detection_delay must be >= 1");
    }
    fraction(asymptomatic_infectiousness, "asymptomatic_infectiousness");
    fraction(detected_infectiousness, "detected_infectiousness");
  }

  /// Field-by-field archive layout. Writing the struct wholesale would
  /// memcpy its alignment padding (an uninitialized 4-byte hole after
  /// detection_delay) into the checkpoint, making archives of identical
  /// states byte-unstable across processes; explicit fields keep the
  /// checkpoint byte stream a pure function of the parameter values.
  void serialize(io::BinaryWriter& out) const {
    out.write(population);
    out.write(latent_period);
    out.write(presymptomatic_period);
    out.write(asymptomatic_period);
    out.write(mild_period);
    out.write(severe_period);
    out.write(hospital_period);
    out.write(hospital_to_icu);
    out.write(icu_period);
    out.write(post_icu_period);
    out.write(erlang_shape);
    out.write(max_delay);
    out.write(fraction_symptomatic);
    out.write(fraction_mild);
    out.write(fraction_critical);
    out.write(fraction_death);
    out.write(detect_asymptomatic);
    out.write(detect_presymptomatic);
    out.write(detect_mild);
    out.write(detect_severe);
    out.write(detection_delay);
    out.write(asymptomatic_infectiousness);
    out.write(detected_infectiousness);
  }

  [[nodiscard]] static DiseaseParameters deserialize(io::BinaryReader& in) {
    DiseaseParameters p;
    p.population = in.read<std::int64_t>();
    p.latent_period = in.read<double>();
    p.presymptomatic_period = in.read<double>();
    p.asymptomatic_period = in.read<double>();
    p.mild_period = in.read<double>();
    p.severe_period = in.read<double>();
    p.hospital_period = in.read<double>();
    p.hospital_to_icu = in.read<double>();
    p.icu_period = in.read<double>();
    p.post_icu_period = in.read<double>();
    p.erlang_shape = in.read<int>();
    p.max_delay = in.read<int>();
    p.fraction_symptomatic = in.read<double>();
    p.fraction_mild = in.read<double>();
    p.fraction_critical = in.read<double>();
    p.fraction_death = in.read<double>();
    p.detect_asymptomatic = in.read<double>();
    p.detect_presymptomatic = in.read<double>();
    p.detect_mild = in.read<double>();
    p.detect_severe = in.read<double>();
    p.detection_delay = in.read<int>();
    p.asymptomatic_infectiousness = in.read<double>();
    p.detected_infectiousness = in.read<double>();
    return p;
  }
};

}  // namespace epismc::epi
