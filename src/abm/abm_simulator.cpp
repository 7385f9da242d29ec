#include "abm/abm_simulator.hpp"

#include "core/batch_runner.hpp"

namespace epismc::core {

template class ModelSimulator<abm::AgentBasedModel, abm::AbmSimulatorConfig>;

}  // namespace epismc::core
