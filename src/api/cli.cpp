#include "api/cli.hpp"

#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "api/scenarios.hpp"
#include "parallel/parallel.hpp"
#include "simd/simd.hpp"

namespace epismc::api {

int cli_main(int argc, const char* const* argv,
             const std::function<int(const io::Args&)>& body) {
  const std::string program =
      std::filesystem::path(argc > 0 ? argv[0] : "epismc").filename().string();
  std::optional<io::Args> args;
  try {
    args.emplace(argc, argv);
    return body(*args);
  } catch (const std::invalid_argument& e) {
    if (*e.what() != '\0') std::cerr << program << ": " << e.what() << "\n";
    std::cerr << "usage: " << program << " [--flag[=value] ...]\n";
    if (args && !args->queried().empty()) {
      std::cerr << "flags:";
      for (const auto& key : args->queried()) std::cerr << " --" << key;
      std::cerr << "\n";
    }
    return 2;
  } catch (const std::exception& e) {
    std::cerr << program << ": error: " << e.what() << "\n";
    return 1;
  }
}

void apply_threads_flag(const io::Args& args) {
  const std::string threads = args.get_string("threads", "");
  // Digits-only and short enough to fit an int: anything else (tab1's
  // comma list, absurd magnitudes) is deliberately ignored, not fatal.
  if (!threads.empty() && threads.size() <= 6 &&
      threads.find_first_not_of("0123456789") == std::string::npos) {
    const int n = std::stoi(threads);
    if (n > 0) parallel::set_threads(n);
  }
}

void apply_simd_flag(const io::Args& args) {
  const std::string level = args.get_string("simd", "");
  if (!level.empty()) simd::set_level(level);
}

void apply_pool_flag(const io::Args& args) {
  const std::string backend = args.get_string("pool", "");
  if (!backend.empty()) parallel::set_backend(backend);
}

void configure_session_from_args(CalibrationSession& session,
                                 const io::Args& args,
                                 const CliDefaults& defaults) {
  apply_threads_flag(args);
  apply_simd_flag(args);
  apply_pool_flag(args);

  session.with_simulator(args.get_string("simulator", defaults.simulator));
  session.with_scenario(args.get_string("scenario", defaults.scenario));
  if (args.has("abm-engine")) {
    session.with_abm_engine(args.get_string("abm-engine", "fast"));
  }
  session.with_likelihood(
      args.get_string("likelihood", defaults.likelihood),
      args.get_double("likelihood-param", defaults.likelihood_parameter));
  if (args.has("bias")) {
    session.with_bias(args.get_string("bias", "binomial"));
  }
  if (args.has("jitter")) {
    session.with_jitter(args.get_string("jitter", "paper-default"));
  }
  if (args.has("inference")) {
    session.with_inference(args.get_string("inference", "single-stage"));
  }
  if (args.has("ess-threshold")) {
    session.with_ess_threshold(args.get_double("ess-threshold", 0.5));
  }
  if (args.has("rejuvenation-moves")) {
    const std::int64_t moves = args.get_int("rejuvenation-moves", 1);
    if (moves < 0) {
      // Casting a negative straight to std::size_t would wrap to ~2^64 and
      // sail past validation as an effectively infinite move loop.
      throw std::invalid_argument(
          "--rejuvenation-moves must be >= 0, got " + std::to_string(moves));
    }
    session.with_rejuvenation_moves(static_cast<std::size_t>(moves));
  }
  if (args.has("on-degenerate")) {
    session.with_on_degenerate(args.get_string("on-degenerate", "quarantine"));
  }
  const auto n_params = static_cast<std::size_t>(args.get_int(
      "n-params", static_cast<std::int64_t>(defaults.n_params)));
  const std::size_t resample_default =
      defaults.resample != 0 ? defaults.resample : 2 * n_params;
  session.with_budget(
      n_params,
      static_cast<std::size_t>(args.get_int(
          "replicates", static_cast<std::int64_t>(defaults.replicates))),
      static_cast<std::size_t>(args.get_int(
          "resample", static_cast<std::int64_t>(resample_default))));
  if (args.has("seed")) {
    session.with_seed(static_cast<std::uint64_t>(args.get_int("seed", 0)));
  }
  if (args.has("use-deaths")) {
    session.with_deaths(args.get_flag("use-deaths"));
  }
}

void print_registries(std::ostream& os) {
  const auto list = [&os](const std::string& label,
                          const std::vector<std::string>& names) {
    os << label << ":";
    for (const auto& n : names) os << " " << n;
    os << "\n";
  };
  list("simulators", simulators().names());
  list("scenarios", scenarios().names());
  list("likelihoods", likelihoods().names());
  list("bias-models", bias_models().names());
  list("jitter-policies", jitter_policies().names());
  list("inference-strategies", inference_strategies().names());
}

bool handle_list_flag(const io::Args& args, std::ostream& os) {
  if (!args.get_flag("list")) return false;
  print_registries(os);
  return true;
}

SuperviseFlags query_supervise_flags(const io::Args& args) {
  SuperviseFlags flags;
  flags.enabled = args.get_flag("supervise");
  const std::int64_t retries =
      args.get_int("max-retries", flags.options.max_retries);
  if (retries < 0) {
    throw std::invalid_argument("--max-retries must be >= 0");
  }
  flags.options.max_retries = static_cast<std::uint32_t>(retries);
  flags.options.task_deadline_seconds =
      args.get_double("task-deadline", flags.options.task_deadline_seconds);
  flags.options.stall_timeout_seconds =
      args.get_double("stall-timeout", flags.options.stall_timeout_seconds);
  if (flags.options.task_deadline_seconds < 0.0 ||
      flags.options.stall_timeout_seconds < 0.0) {
    throw std::invalid_argument(
        "--task-deadline / --stall-timeout must be >= 0 (0 disables)");
  }
  flags.report_csv = args.get_string("report-csv", "");
  return flags;
}

}  // namespace epismc::api
