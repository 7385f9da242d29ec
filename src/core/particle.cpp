#include "core/particle.hpp"

#include <ostream>
#include <stdexcept>
#include <string>

#include "io/binary_archive.hpp"
#include "stats/descriptive.hpp"

namespace epismc::core {

void WindowDiagnostics::serialize(io::BinaryWriter& out) const {
  out.write(ess);
  out.write(perplexity);
  out.write(max_weight);
  out.write(log_marginal);
  out.write(static_cast<std::uint64_t>(unique_resampled));
  out.write(static_cast<std::uint64_t>(n_sims));
  out.write(propagate_seconds);
  out.write(checkpoint_seconds);
  out.write(static_cast<std::uint8_t>(inline_capture));
}

WindowDiagnostics WindowDiagnostics::deserialize(io::BinaryReader& in) {
  WindowDiagnostics d;
  d.ess = in.read<double>();
  d.perplexity = in.read<double>();
  d.max_weight = in.read<double>();
  d.log_marginal = in.read<double>();
  d.unique_resampled = static_cast<std::size_t>(in.read<std::uint64_t>());
  d.n_sims = static_cast<std::size_t>(in.read<std::uint64_t>());
  d.propagate_seconds = in.read<double>();
  d.checkpoint_seconds = in.read<double>();
  d.inline_capture = in.read<std::uint8_t>() != 0;
  return d;
}

epi::Checkpoint WindowResult::state_checkpoint(std::uint32_t s) const {
  if (!state_pool || s >= sim_to_state.size() ||
      sim_to_state[s] == kNoState) {
    throw std::logic_error("state_checkpoint: sim " + std::to_string(s) +
                           " kept no end-of-window state");
  }
  return state_pool->to_checkpoint(sim_to_state[s]);
}

double WindowResult::draw_theta(std::size_t i) const {
  if (rejuvenated) return rejuvenated->theta.at(i);
  return ensemble.theta[resampled.at(i)];
}

double WindowResult::draw_rho(std::size_t i) const {
  if (rejuvenated) return rejuvenated->rho.at(i);
  return ensemble.rho[resampled.at(i)];
}

std::uint32_t WindowResult::draw_state_slot(std::size_t i) const {
  const std::uint32_t slot = rejuvenated ? rejuvenated->state_slot.at(i)
                                         : sim_to_state[resampled.at(i)];
  if (slot == kNoState) {
    throw std::logic_error("draw_state_slot: draw " + std::to_string(i) +
                           " kept no end-of-window state");
  }
  return slot;
}

std::span<const double> WindowResult::draw_series(EnsembleBuffer::Series s,
                                                  std::size_t i) const {
  if (rejuvenated && rejuvenated->moved.at(i)) {
    return rejuvenated->series.series(s, rejuvenated->series_row[i]);
  }
  return ensemble.series(s, resampled.at(i));
}

std::vector<double> WindowResult::posterior_thetas() const {
  std::vector<double> out;
  out.reserve(resampled.size());
  for (std::size_t i = 0; i < resampled.size(); ++i) {
    out.push_back(draw_theta(i));
  }
  return out;
}

std::vector<double> WindowResult::posterior_rhos() const {
  std::vector<double> out;
  out.reserve(resampled.size());
  for (std::size_t i = 0; i < resampled.size(); ++i) {
    out.push_back(draw_rho(i));
  }
  return out;
}

std::vector<double> WindowResult::posterior_quantile(Series field,
                                                     double q) const {
  if (resampled.empty()) {
    throw std::logic_error("posterior_quantile: window not yet resampled");
  }
  const std::size_t days = window_length();
  std::vector<double> out(days);
  std::vector<double> column(resampled.size());
  for (std::size_t d = 0; d < days; ++d) {
    for (std::size_t i = 0; i < resampled.size(); ++i) {
      column[i] = draw_series(field, i)[d];
    }
    out[d] = stats::quantile(column, q);
  }
  return out;
}

void write_smc_diagnostics_csv(std::ostream& os,
                               std::span<const WindowResult> windows) {
  os << "window,from_day,to_day,strategy,kind,index,phi,ess,"
        "log_marginal_increment,acceptance_rate\n";
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowResult& win = windows[w];
    const SmcDiagnostics& d = win.smc;
    const std::string prefix = std::to_string(w) + "," +
                               std::to_string(win.from_day) + "," +
                               std::to_string(win.to_day) + "," +
                               to_string(d.strategy) + ",";
    for (std::size_t k = 0; k < d.stages.size(); ++k) {
      const SmcStage& s = d.stages[k];
      os << prefix << "stage," << k << "," << s.phi << "," << s.ess << ","
         << s.log_marginal_increment << ",\n";
    }
    for (std::size_t r = 0; r < d.move_acceptance.size(); ++r) {
      os << prefix << "move," << r << "," << 1.0 << "," << d.final_ess
         << ",," << d.move_acceptance[r] << "\n";
    }
  }
}

}  // namespace epismc::core
