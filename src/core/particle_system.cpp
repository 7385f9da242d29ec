#include "core/particle_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/binary_archive.hpp"
#include "stats/weights.hpp"

namespace epismc::core {

const char* to_string(InferenceStrategy strategy) {
  switch (strategy) {
    case InferenceStrategy::kSingleStage: return "single-stage";
    case InferenceStrategy::kTempered: return "tempered";
    case InferenceStrategy::kTemperedRejuvenate: return "tempered+rejuvenate";
  }
  return "unknown";
}

const char* to_string(DegeneracyPolicy policy) {
  switch (policy) {
    case DegeneracyPolicy::kQuarantine: return "quarantine";
    case DegeneracyPolicy::kThrow: return "throw";
  }
  return "unknown";
}

DegeneracyPolicy degeneracy_policy_from_name(const std::string& name) {
  if (name == "quarantine") return DegeneracyPolicy::kQuarantine;
  if (name == "throw") return DegeneracyPolicy::kThrow;
  throw std::invalid_argument(
      "degeneracy_policy_from_name: unknown policy '" + name +
      "' (known: quarantine, throw)");
}

double SmcDiagnostics::acceptance_rate() const noexcept {
  if (rejuvenation_proposed == 0) return -1.0;
  return static_cast<double>(rejuvenation_accepted) /
         static_cast<double>(rejuvenation_proposed);
}

void SmcDiagnostics::serialize(io::BinaryWriter& out) const {
  out.write(static_cast<std::uint8_t>(strategy));
  out.write(static_cast<std::uint8_t>(triggered));
  out.write(ess_threshold);
  out.write(initial_ess);
  out.write(final_ess);
  out.write(static_cast<std::uint64_t>(stages.size()));
  for (const SmcStage& s : stages) {
    out.write(s.phi);
    out.write(s.ess);
    out.write(s.log_marginal_increment);
  }
  out.write_vector(move_acceptance);
  out.write(rejuvenation_proposed);
  out.write(rejuvenation_accepted);
  out.write(degeneracy.demoted);
  out.write_vector(degeneracy.draws);
}

SmcDiagnostics SmcDiagnostics::deserialize(io::BinaryReader& in) {
  SmcDiagnostics d;
  const auto tag = in.read<std::uint8_t>();
  if (tag > static_cast<std::uint8_t>(InferenceStrategy::kTemperedRejuvenate)) {
    throw io::ArchiveError("SmcDiagnostics: unknown strategy tag " +
                           std::to_string(tag));
  }
  d.strategy = static_cast<InferenceStrategy>(tag);
  d.triggered = in.read<std::uint8_t>() != 0;
  d.ess_threshold = in.read<double>();
  d.initial_ess = in.read<double>();
  d.final_ess = in.read<double>();
  d.stages.resize(in.read_count(3 * sizeof(double)));
  for (SmcStage& s : d.stages) {
    s.phi = in.read<double>();
    s.ess = in.read<double>();
    s.log_marginal_increment = in.read<double>();
  }
  d.move_acceptance = in.read_vector<double>();
  d.rejuvenation_proposed = in.read<std::uint64_t>();
  d.rejuvenation_accepted = in.read<std::uint64_t>();
  d.degeneracy.demoted = in.read<std::uint64_t>();
  d.degeneracy.draws = in.read_vector<std::uint32_t>();
  return d;
}

void ParticleSystem::reset(std::size_t n) {
  log_weight_.assign(n, 0.0);
  weight_.clear();
  n_ = n;
  committed_ = false;
}

void ParticleSystem::assign(std::span<const double> log_weights) {
  log_weight_.assign(log_weights.begin(), log_weights.end());
  weight_.clear();
  n_ = log_weight_.size();
  committed_ = false;
}

void ParticleSystem::commit() { commit(log_weight_); }

void ParticleSystem::commit(std::span<const double> log_weights) {
  n_ = log_weights.size();
  lse_ = stats::log_sum_exp(log_weights);
  if (std::isfinite(lse_)) {
    weight_ = stats::normalize_log_weights(log_weights, lse_);
  } else {
    weight_.clear();
  }
  committed_ = true;
}

std::vector<double> ParticleSystem::take_weights() {
  require_committed("take_weights");
  committed_ = false;
  return std::move(weight_);
}

void ParticleSystem::require_committed(const char* what) const {
  if (!committed_) {
    throw std::logic_error(std::string("ParticleSystem::") + what +
                           ": commit() the log-weights first");
  }
}

double ParticleSystem::lse() const {
  require_committed("lse");
  return lse_;
}

double ParticleSystem::log_marginal_increment() const {
  require_committed("log_marginal_increment");
  return lse_ - std::log(static_cast<double>(n_));
}

const std::vector<double>& ParticleSystem::weights() const {
  require_committed("weights");
  if (weight_.empty()) {
    throw std::domain_error(
        "ParticleSystem: population is degenerate (zero total weight)");
  }
  return weight_;
}

double ParticleSystem::ess() const {
  return stats::effective_sample_size(weights());
}

double ParticleSystem::perplexity() const {
  return stats::weight_perplexity(weights());
}

double ParticleSystem::max_weight() const {
  const std::vector<double>& w = weights();
  return *std::max_element(w.begin(), w.end());
}

std::vector<std::uint32_t> ParticleSystem::resample(
    stats::ResamplingScheme scheme, rng::Engine& eng, std::size_t count) const {
  return stats::resample(scheme, eng, weights(), count);
}

ParticleSystem::Survivors ParticleSystem::survivors(
    std::span<const std::uint32_t> resampled, std::size_t n) {
  Survivors out;
  out.unique.assign(resampled.begin(), resampled.end());
  std::sort(out.unique.begin(), out.unique.end());
  out.unique.erase(std::unique(out.unique.begin(), out.unique.end()),
                   out.unique.end());
  if (!out.unique.empty() && out.unique.back() >= n) {
    throw std::out_of_range("ParticleSystem::survivors: index " +
                            std::to_string(out.unique.back()) +
                            " outside population of " + std::to_string(n));
  }
  out.index_to_slot.assign(n, Survivors::kNoSlot);
  for (std::size_t u = 0; u < out.unique.size(); ++u) {
    out.index_to_slot[out.unique[u]] = static_cast<std::uint32_t>(u);
  }
  return out;
}

double solve_temper_step(std::span<const double> loglik, double budget,
                         double target_ess) {
  if (!(budget > 0.0)) {
    throw std::invalid_argument("solve_temper_step: budget must be > 0");
  }
  if (stats::effective_sample_size_log(loglik, budget) >= target_ess) {
    return budget;
  }
  // ESS(delta -> 0) == N >= target, ESS(budget) < target: bisect the
  // boundary. ESS is not guaranteed strictly monotone in delta, but the
  // invariant "lo satisfies the target" is maintained exactly.
  double lo = 0.0;
  double hi = budget;
  for (int it = 0; it < 60 && (hi - lo) > 1e-12; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (stats::effective_sample_size_log(loglik, mid) >= target_ess) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Floor at a sliver of the budget: when one particle dominates at any
  // positive temperature the bisection collapses toward zero, and a zero
  // step would stall the ladder (the stage cap still bounds the run).
  return std::max(lo, budget * 1e-6);
}

}  // namespace epismc::core
