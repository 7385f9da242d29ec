#pragma once

// core::Simulator adapter for the agent-based model: the SMC machinery
// calibrates the ABM through exactly the interface it uses for the
// compartmental engines -- the paper's simulator-agnosticism claim, made
// compilable.

#include "abm/agent_model.hpp"
#include "core/simulator.hpp"

namespace epismc::abm {

struct AbmSimulatorConfig {
  AbmConfig abm;
  double burnin_theta = 0.3;
  std::int64_t initial_exposed = 50;
};

}  // namespace epismc::abm

namespace epismc::core {
extern template class ModelSimulator<abm::AgentBasedModel,
                                     abm::AbmSimulatorConfig>;
}  // namespace epismc::core

namespace epismc::abm {

/// Propagates under this simulator's configured day-step engine
/// (AbmConfig::engine) regardless of which engine wrote a checkpoint. The
/// typed pool holds full AgentBasedModel copies (agent arrays live,
/// household topology built); agent arrays are large, so windows over big
/// populations usually capture end states by replaying the survivors
/// (the window's inline_state_budget is weighed against the pool's
/// approx_state_bytes()).
class AbmSimulator final
    : public core::ModelSimulator<AgentBasedModel, AbmSimulatorConfig> {
 public:
  using ModelSimulator::ModelSimulator;
  [[nodiscard]] std::string name() const override { return "agent-based"; }
};

}  // namespace epismc::abm
