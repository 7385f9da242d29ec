#pragma once

// Standard CLI wiring for api-driven binaries.
//
// Every example/bench selects components by registry name; this helper
// centralizes the flag vocabulary so binaries stay one-liner thin:
//
//   --simulator=NAME    simulator backend      (simulators() registry)
//   --scenario=NAME     ground-truth preset    (scenarios() registry)
//   --likelihood=NAME   window likelihood      (likelihoods() registry)
//   --likelihood-param=X  likelihood parameter (sigma / dispersion / phi)
//   --bias=NAME         reporting-bias model   (bias_models() registry)
//   --jitter=NAME       posterior-jitter preset (jitter_policies() registry)
//   --inference=NAME    window inference strategy: single-stage | tempered |
//                       tempered+rejuvenate (inference_strategies() registry)
//   --ess-threshold=X   temper trigger/target, a fraction of n_sims in (0,1)
//   --rejuvenation-moves=N  MH move rounds for tempered+rejuvenate
//   --on-degenerate=P   non-finite log-likelihood policy: quarantine
//                       (demote to -inf, keep going -- default) | throw
//   --abm-engine=NAME   agent-based day-step engine: fast | reference
//   --threads=N         thread budget: pool lanes (parallel::set_threads)
//   --pool=BACKEND      parallel_for backend: serial | pool
//                       (overrides the EPISMC_POOL environment variable;
//                       results are bit-identical across backends)
//   --simd=LEVEL        SIMD dispatch level: scalar | sse41 | avx2 |
//                       avx512 | auto (clamped to binary/host support;
//                       overrides the EPISMC_SIMD environment variable)
//   --n-params / --replicates / --resample     simulation budget
//   --use-deaths        add the death stream (paper eq. 4)
//   --seed=N            base randomness identity
//
// Supervised-execution flags (see src/supervise/):
//   --supervise         run the work under process supervision
//   --max-retries=N     retry budget per task (default 2)
//   --task-deadline=S   hard per-attempt wall clock in seconds (0 = off)
//   --stall-timeout=S   kill a task with no heartbeat for S seconds
//   --report-csv=PATH   dump the SupervisionReport as CSV
//
// Unknown registry names fail with the registry's listing; `--list`
// prints every registry's names and returns true (caller should exit 0).
//
// Every binary's main is one cli_main call, so bad input fails the same
// way everywhere: a usage message and exit code 2, never std::terminate.

#include <functional>
#include <iosfwd>
#include <string>

#include "api/session.hpp"
#include "io/args.hpp"
#include "supervise/supervisor.hpp"

namespace epismc::api {

/// Parse argv and run `body` on the arguments; returns body's exit code.
/// A std::invalid_argument is a command-line mistake -- a malformed or
/// unknown flag, an unparsable value, --help (empty message), an unknown
/// registry, --pool or --simd name: it prints the message and a usage
/// line listing the flags the program queried, then returns 2. Any other
/// std::exception prints "error: ..." and returns 1.
int cli_main(int argc, const char* const* argv,
             const std::function<int(const io::Args&)>& body);

/// Query the standard flags (so Args::check_unused accepts them), apply
/// --threads, and stage them onto `session`. The core selections --
/// simulator, scenario, likelihood, budget -- always apply, falling back
/// to `defaults` when the flag is absent; the optional overrides (--bias,
/// --jitter, --seed, --use-deaths) apply only when passed, so values the
/// caller staged for those beforehand survive.
struct CliDefaults {
  std::string simulator = "seir-event";
  std::string scenario = "paper-baseline";
  std::string likelihood = "gaussian-sqrt";
  double likelihood_parameter = 1.0;
  std::size_t n_params = 1000;
  std::size_t replicates = 10;
  /// 0 means "2 * n_params" (the pre-facade examples' coupling), so
  /// scaling --n-params scales the posterior sample with it.
  std::size_t resample = 0;
};

void configure_session_from_args(CalibrationSession& session,
                                 const io::Args& args,
                                 const CliDefaults& defaults = {});

/// Apply --threads=N via parallel::set_threads. Values that are not a
/// plain positive integer are ignored (tab1_scaling reuses the flag as a
/// comma-separated sweep list and manages threads itself).
void apply_threads_flag(const io::Args& args);

/// Apply --simd=LEVEL via simd::set_level. Unknown level names are fatal
/// (std::invalid_argument listing the accepted names); absent flag leaves
/// the dispatcher at its EPISMC_SIMD/default state.
void apply_simd_flag(const io::Args& args);

/// Apply --pool=BACKEND via parallel::set_backend. Unknown names are
/// fatal (std::invalid_argument naming serial|pool); absent flag leaves
/// the backend at its EPISMC_POOL/pool default state.
void apply_pool_flag(const io::Args& args);

/// Print every registry's names (simulators, scenarios, likelihoods, bias
/// models, jitter policies) -- the `--list` flag.
void print_registries(std::ostream& os);

/// True when --list was passed (after printing); callers exit early.
[[nodiscard]] bool handle_list_flag(const io::Args& args, std::ostream& os);

/// The supervised-execution flag set, queried in one shot (so
/// check_unused accepts the flags even on unsupervised runs).
struct SuperviseFlags {
  bool enabled = false;
  supervise::SupervisorOptions options;
  /// --report-csv destination; empty when the flag is absent.
  std::filesystem::path report_csv;
};

/// Query --supervise / --max-retries / --task-deadline / --stall-timeout /
/// --report-csv. Negative durations are rejected (std::invalid_argument);
/// defaults come from SupervisorOptions.
[[nodiscard]] SuperviseFlags query_supervise_flags(const io::Args& args);

}  // namespace epismc::api
