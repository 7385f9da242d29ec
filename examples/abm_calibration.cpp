// Calibrating an agent-based model with the SMC core (paper §VI), driven
// entirely through the epismc::api facade: the "abm-truth" scenario preset
// generates the individual-based ground truth and the "abm" registry entry
// supplies the matching simulator backend -- the same two strings any other
// backend uses.
//
// Individual-based models carry a "coordinate system" that maps to reality:
// households, individuals, detected/undetected status. After calibration
// the checkpointed posterior agent states answer an individual-level
// question no compartmental model can: how much of the remaining
// transmission risk sits inside households with an active undetected
// infection?

#include <iostream>

#include "abm/agent_model.hpp"
#include "api/api.hpp"
#include "io/table.hpp"

namespace {

int run(const epismc::io::Args& args) {
  using namespace epismc;
  if (api::handle_list_flag(args, std::cout)) return 0;

  api::CalibrationSession session;
  api::CliDefaults defaults;
  defaults.simulator = "abm";
  defaults.scenario = "abm-truth";
  defaults.n_params = 200;
  defaults.replicates = 5;
  api::configure_session_from_args(session, args, defaults);
  session.with_windows({{20, 33}});
  args.check_unused();

  // --- Ground truth from the ABM itself (the "abm-truth" preset). ----------
  const core::GroundTruth& truth = session.truth();
  const auto& cfg = session.config();
  std::cout << "ABM ground truth: theta* = " << truth.theta_at(20)
            << ", reporting rho* = " << truth.rho_at(20) << "\n";

  // --- Calibrate with the unchanged SMC core. ------------------------------
  std::cout << "Calibrating days 20-33 with "
            << cfg.n_params * cfg.replicates
            << " agent-based trajectories...\n";
  const core::WindowResult& window = session.run_next_window();
  const auto posterior = session.posterior_summary(0);

  io::Table table({"parameter", "truth", "posterior mean", "sd"});
  table.add_row_values("theta", truth.theta_at(20), posterior.theta.mean,
                       posterior.theta.sd);
  table.add_row_values("rho", truth.rho_at(20), posterior.rho.mean,
                       posterior.rho.sd);
  table.print(std::cout);
  std::cout << "ESS " << io::Table::num(window.diag.ess, 1) << ", "
            << window.diag.unique_resampled << " unique posterior states\n\n";

  // --- Individual-level posterior query. -----------------------------------
  // Restore a posterior agent state and inspect household-level risk:
  // fraction of susceptibles living with an undetected infectious agent.
  // The checkpoint bytes round-trip through the generic epi::Checkpoint, so
  // the ABM-specific restore is the only agent-aware part of this program
  // -- and the only one that requires the agent-based backend.
  if (session.simulator().name() != "agent-based") {
    std::cout << "Simulator '" << session.simulator().name()
              << "' has no agent-level state; skipping the household-risk "
                 "query (use --simulator=abm).\n";
    return 0;
  }
  const std::uint32_t draw = window.resampled.front();
  const abm::AgentBasedModel state =
      abm::AgentBasedModel::restore(window.state_checkpoint(draw));
  using C = epi::Compartment;
  const std::int64_t susceptible = state.count(C::kS);
  const std::int64_t undetected_infectious =
      state.count(C::kAu) + state.count(C::kPu) + state.count(C::kSmU) +
      state.count(C::kSsU);
  const std::int64_t exposed_households = undetected_infectious;  // <= one per household bound
  std::cout << "Posterior day-" << state.day() << " agent state: "
            << state.household_count() << " households, " << susceptible
            << " susceptible agents, " << undetected_infectious
            << " undetected infectious agents spread over at most "
            << exposed_households << " households ("
            << io::Table::num(100.0 * static_cast<double>(undetected_infectious) /
                                  static_cast<double>(state.population()), 2)
            << "% of the population is an undetected source).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return epismc::api::cli_main(argc, argv, run);
}
