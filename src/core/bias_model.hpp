#pragma once

// Reporting-bias models (paper §IV-A).
//
// The observation model is y_t = eta_obs_t(theta, s, rho) + eps_t with
// eta_obs_t ~ Binomial(eta_t, rho): every true case is independently
// reported with probability rho. A bias model maps the simulator's true
// counts to simulated *reported* counts; the SMC treats rho as an unknown
// to be inferred jointly with theta. IdentityBias deliberately ignores the
// bias (the E11 ablation shows what that does to the posterior).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "random/distributions.hpp"

namespace epismc::core {

class BiasModel {
 public:
  virtual ~BiasModel() = default;

  /// Map true counts to simulated reported counts given reporting
  /// probability rho, consuming randomness from `eng`.
  [[nodiscard]] virtual std::vector<double> apply(
      rng::Engine& eng, std::span<const double> true_counts,
      double rho) const = 0;

  /// Batched variant writing into a caller-owned row of equal length --
  /// the importance-sampling hot path applies bias straight onto
  /// EnsembleBuffer observation rows through this. Must consume randomness
  /// exactly as apply() does, and day by day: calls over consecutive
  /// sub-ranges with one persisted engine must equal one call over the
  /// whole series (the streaming ingest and rejuvenation's early
  /// rejection score day by day). The default copies through apply(), so
  /// external registry models keep working unchanged; the built-ins
  /// override it allocation-free.
  virtual void apply_into(rng::Engine& eng, std::span<const double> true_counts,
                          double rho, std::span<double> out) const;

  /// True when the model actually uses rho (drives prior handling).
  [[nodiscard]] virtual bool uses_rho() const noexcept = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// y_obs,t ~ Binomial(round(eta_t), rho).
class BinomialBias final : public BiasModel {
 public:
  [[nodiscard]] std::vector<double> apply(rng::Engine& eng,
                                          std::span<const double> true_counts,
                                          double rho) const override;
  void apply_into(rng::Engine& eng, std::span<const double> true_counts,
                  double rho, std::span<double> out) const override;
  [[nodiscard]] bool uses_rho() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "binomial"; }
};

/// Pass-through: pretends reporting is perfect.
class IdentityBias final : public BiasModel {
 public:
  [[nodiscard]] std::vector<double> apply(rng::Engine& eng,
                                          std::span<const double> true_counts,
                                          double rho) const override;
  void apply_into(rng::Engine& eng, std::span<const double> true_counts,
                  double rho, std::span<double> out) const override;
  [[nodiscard]] bool uses_rho() const noexcept override { return false; }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

/// Deterministic thinning: y_obs,t = rho * eta_t (expected-value variant,
/// no binomial noise). Ablation comparator isolating the stochastic part
/// of the bias model.
class DeterministicThinning final : public BiasModel {
 public:
  [[nodiscard]] std::vector<double> apply(rng::Engine& eng,
                                          std::span<const double> true_counts,
                                          double rho) const override;
  void apply_into(rng::Engine& eng, std::span<const double> true_counts,
                  double rho, std::span<double> out) const override;
  [[nodiscard]] bool uses_rho() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override {
    return "deterministic-thinning";
  }
};

/// Resolve a bias model by registry name ("binomial", "identity",
/// "deterministic-thinning", plus anything registered at startup).
/// Delegates to api::bias_models(); kept for config-name resolution and
/// source compatibility.
[[nodiscard]] std::unique_ptr<BiasModel> make_bias_model(
    const std::string& name);

}  // namespace epismc::core
