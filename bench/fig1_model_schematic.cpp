// E1 / Figure 1: the SEIR model schematic, emitted as a transition table
// and compartment inventory instead of a drawing. Verifies that the
// implemented topology matches the paper's: detected/undetected splits for
// every disease state, isolation (reduced infectiousness) after detection,
// and the hospital -> ICU -> post-ICU/death pipeline.

#include <iostream>

#include "bench_common.hpp"
#include "epi/compartments.hpp"
#include "epi/parameters.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  api::apply_threads_flag(args);
  args.check_unused();

  std::cout << "=== Figure 1: SEIR compartment topology ===\n\n";

  io::Table compartments({"compartment", "infectious", "detected", "role"});
  const auto role = [](epi::Compartment c) -> std::string {
    using C = epi::Compartment;
    switch (c) {
      case C::kS: return "susceptible";
      case C::kE: return "exposed (latent)";
      case C::kAu: case C::kAd: return "asymptomatic";
      case C::kPu: case C::kPd: return "presymptomatic";
      case C::kSmU: case C::kSmD: return "mild symptomatic";
      case C::kSsU: case C::kSsD: return "severe symptomatic";
      case C::kHu: case C::kHd: return "hospitalized";
      case C::kCu: case C::kCd: return "critical (ICU)";
      case C::kHpU: case C::kHpD: return "post-ICU ward";
      case C::kRu: case C::kRd: return "recovered";
      case C::kDu: case C::kDd: return "dead";
      default: return "?";
    }
  };
  for (std::size_t i = 0; i < epi::kCompartmentCount; ++i) {
    const auto c = static_cast<epi::Compartment>(i);
    compartments.add_row_values(std::string(epi::name(c)),
                                epi::is_infectious(c) ? "yes" : "no",
                                epi::is_detected(c) ? "yes" : "no", role(c));
  }
  compartments.print(std::cout);

  std::cout << "\nTransition edges:\n";
  io::Table edges({"from", "to", "transition"});
  for (const auto& e : epi::transition_table()) {
    edges.add_row_values(std::string(epi::name(e.from)),
                         std::string(epi::name(e.to)), std::string(e.label));
  }
  edges.print(std::cout);

  const epi::DiseaseParameters p;
  std::cout << "\nDefault natural-history parameters (Covid-Chicago style):\n"
            << "  latent " << p.latent_period << "d, presymptomatic "
            << p.presymptomatic_period << "d, asymptomatic "
            << p.asymptomatic_period << "d, mild " << p.mild_period
            << "d, severe->hosp " << p.severe_period << "d\n"
            << "  hosp " << p.hospital_period << "d (to ICU "
            << p.hospital_to_icu << "d), ICU " << p.icu_period
            << "d, post-ICU " << p.post_icu_period << "d\n"
            << "  P(symptomatic)=" << p.fraction_symptomatic
            << " P(mild|sympt)=" << p.fraction_mild
            << " P(critical|hosp)=" << p.fraction_critical
            << " P(death|ICU)=" << p.fraction_death << "\n"
            << "  detection: asym " << p.detect_asymptomatic << ", presym "
            << p.detect_presymptomatic << ", mild " << p.detect_mild
            << ", severe " << p.detect_severe << " (delay "
            << p.detection_delay << "d)\n"
            << "  rel. infectiousness: asymptomatic "
            << p.asymptomatic_infectiousness << ", detected "
            << p.detected_infectiousness << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
