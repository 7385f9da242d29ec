#pragma once

// Umbrella header for the epismc::api facade -- the public entry point for
// calibration runs. Call sites outside src/ (examples, benches, user code)
// should include this and work through:
//
//   registries     api::simulators() / likelihoods() / bias_models() /
//                  jitter_policies() / scenarios()
//   one run        api::CalibrationSession (fluent builder)
//   many runs      api::ScenarioSweep (presets x backends, pool-parallel)
//   supervised     session.supervised() / sweep.run_supervised() (forked
//                  workers, heartbeats, retry/backoff; src/supervise/)
//   CLI            api::configure_session_from_args (standard flags)
//
// Result types (WindowResult, WindowPosteriorSummary, Forecast, Ribbon,
// GroundTruth) come from core and are re-exported transitively.

#include "api/cli.hpp"        // IWYU pragma: export
#include "api/components.hpp" // IWYU pragma: export
#include "api/registry.hpp"   // IWYU pragma: export
#include "api/scenarios.hpp"  // IWYU pragma: export
#include "api/session.hpp"    // IWYU pragma: export
#include "api/sweep.hpp"      // IWYU pragma: export
