#include "stream/stream_state.hpp"

#include <bit>
#include <cstddef>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "random/engines.hpp"

namespace epismc::stream {

void StreamConfig::validate() const {
  calibration.validate();
  const bool wants_checkpoints =
      checkpoint_every != 0 || !checkpoint_path.empty();
  if (!wants_checkpoints) return;
  if (checkpoint_every <= 0) {
    throw std::invalid_argument(
        "StreamConfig: checkpoint_every must be a positive number of "
        "assimilated days, got " +
        std::to_string(checkpoint_every));
  }
  if (checkpoint_path.empty()) {
    throw std::invalid_argument(
        "StreamConfig: checkpoint_every is set but checkpoint_path is "
        "empty -- automatic checkpoints need a destination file");
  }
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return rng::hash_combine(h, v);
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix(std::uint64_t h, const std::string& s) {
  h = mix(h, static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h = mix(h, static_cast<std::uint64_t>(c));
  return h;
}

}  // namespace

std::uint64_t config_fingerprint(const StreamConfig& config) {
  const core::CalibrationConfig& c = config.calibration;
  std::uint64_t h = 0x53545246494E4750ull;  // "STRFINGP"
  h = mix(h, static_cast<std::uint64_t>(c.windows.size()));
  for (const auto& [from, to] : c.windows) {
    h = mix(h, static_cast<std::uint64_t>(from));
    h = mix(h, static_cast<std::uint64_t>(to));
  }
  h = mix(h, static_cast<std::uint64_t>(c.n_params));
  h = mix(h, static_cast<std::uint64_t>(c.replicates));
  h = mix(h, static_cast<std::uint64_t>(c.resample_size));
  h = mix(h, static_cast<std::uint64_t>(c.common_random_numbers));
  h = mix(h, static_cast<std::uint64_t>(c.use_deaths));
  h = mix(h, static_cast<std::uint64_t>(c.scheme));
  h = mix(h, c.seed);
  h = mix(h, c.likelihood_name);
  h = mix(h, c.likelihood_parameter);
  h = mix(h, c.death_likelihood_name);
  h = mix(h, c.death_likelihood_parameter);
  h = mix(h, c.bias_name);
  h = mix(h, static_cast<std::uint64_t>(c.burnin_day));
  h = mix(h, c.theta_jitter.down);
  h = mix(h, c.theta_jitter.up);
  h = mix(h, c.theta_jitter.lo);
  h = mix(h, c.theta_jitter.hi);
  h = mix(h, c.rho_jitter.down);
  h = mix(h, c.rho_jitter.up);
  h = mix(h, c.rho_jitter.lo);
  h = mix(h, c.rho_jitter.hi);
  h = mix(h, c.defensive_fraction);
  // Placeholder for the retired capture-policy field (its old default
  // tag, 0), kept so fingerprints of existing stream checkpoints still
  // match and those checkpoints still resume.
  h = mix(h, std::uint64_t{0});
  h = mix(h, static_cast<std::uint64_t>(c.inline_state_budget));
  h = mix(h, static_cast<std::uint64_t>(c.inference));
  h = mix(h, c.ess_threshold);
  h = mix(h, static_cast<std::uint64_t>(c.max_temper_stages));
  h = mix(h, static_cast<std::uint64_t>(c.rejuvenation_moves));
  h = mix(h, static_cast<std::uint64_t>(c.on_degenerate));
  h = mix(h, static_cast<std::uint64_t>(config.resample_mid_window));
  return h;
}

namespace {

void write_checkpoint(io::BinaryWriter& out, const epi::Checkpoint& ckpt) {
  out.write(ckpt.day);
  out.write_vector(ckpt.bytes);
}

epi::Checkpoint read_checkpoint(io::BinaryReader& in) {
  epi::Checkpoint ckpt;
  ckpt.day = in.read<std::int32_t>();
  ckpt.bytes = in.read_vector<std::byte>();
  return ckpt;
}

void write_checkpoints(io::BinaryWriter& out,
                       const std::vector<epi::Checkpoint>& v) {
  out.write(static_cast<std::uint64_t>(v.size()));
  for (const epi::Checkpoint& c : v) write_checkpoint(out, c);
}

/// Bytes write_vector / write_checkpoint / write_checkpoints append.
template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}

std::size_t checkpoint_bytes(const epi::Checkpoint& ckpt) {
  return sizeof ckpt.day + vector_bytes(ckpt.bytes);
}

std::size_t checkpoints_bytes(const std::vector<epi::Checkpoint>& v) {
  std::size_t n = sizeof(std::uint64_t);
  for (const epi::Checkpoint& c : v) n += checkpoint_bytes(c);
  return n;
}

std::vector<epi::Checkpoint> read_checkpoints(io::BinaryReader& in) {
  // Each checkpoint holds at least its day and its byte-vector length.
  const std::size_t n =
      in.read_count(sizeof(std::int32_t) + sizeof(std::uint64_t));
  std::vector<epi::Checkpoint> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(read_checkpoint(in));
  return v;
}

/// Exact archive size of everything serialize() writes after the day
/// records: the simulator states and the plain vectors, which are nearly
/// all of a checkpoint, so serialize() can reserve them in one allocation.
std::size_t state_bytes(const StreamState& st) {
  std::size_t n = 2 * sizeof(std::uint8_t);  // has_initial, has_posterior
  if (st.has_initial) n += checkpoint_bytes(st.initial);
  if (st.has_posterior) {
    n += vector_bytes(st.posterior.theta) + vector_bytes(st.posterior.rho) +
         vector_bytes(st.posterior.parent_slot);
  }
  n += checkpoints_bytes(st.parent_pool);
  n += vector_bytes(st.obs_cases) + vector_bytes(st.obs_deaths) +
       sizeof st.n_sims;
  n += vector_bytes(st.param_index) + vector_bytes(st.replicate) +
       vector_bytes(st.parent) + vector_bytes(st.theta) +
       vector_bytes(st.rho) + vector_bytes(st.seed) + vector_bytes(st.stream);
  n += vector_bytes(st.true_cases_prefix) +
       vector_bytes(st.obs_cases_prefix) + vector_bytes(st.deaths_prefix);
  n += vector_bytes(st.case_acc) + vector_bytes(st.death_acc) +
       vector_bytes(st.full_case_acc) + vector_bytes(st.full_death_acc);
  n += vector_bytes(st.bias_stream) + vector_bytes(st.bias_position);
  n += checkpoints_bytes(st.cloud);
  n += sizeof st.log_marginal_acc + sizeof st.midwindow_resamples +
       sizeof st.propagate_seconds + vector_bytes(st.degenerate_draw);
  return n;
}

void write_window_record(io::BinaryWriter& out, const StreamWindowRecord& w) {
  out.write(w.from_day);
  out.write(w.to_day);
  w.diag.serialize(out);
  w.smc.serialize(out);
  w.summary.serialize(out);
}

StreamWindowRecord read_window_record(io::BinaryReader& in) {
  StreamWindowRecord w;
  w.from_day = in.read<std::int32_t>();
  w.to_day = in.read<std::int32_t>();
  w.diag = core::WindowDiagnostics::deserialize(in);
  w.smc = core::SmcDiagnostics::deserialize(in);
  w.summary = core::WindowPosteriorSummary::deserialize(in);
  return w;
}

/// Bytes write_day_record appends.
constexpr std::size_t kDayRecordBytes = 3 * sizeof(std::uint32_t) +
                                        3 * sizeof(double) +
                                        sizeof(std::uint8_t);

void write_day_record(io::BinaryWriter& out, const StreamDayRecord& d) {
  out.write(d.day);
  out.write(d.window);
  out.write(d.ess);
  out.write(static_cast<std::uint8_t>(d.resampled));
  out.write(d.log_marginal);
  out.write(d.seconds);
  out.write(d.demoted);
}

StreamDayRecord read_day_record(io::BinaryReader& in) {
  StreamDayRecord d;
  d.day = in.read<std::int32_t>();
  d.window = in.read<std::uint32_t>();
  d.ess = in.read<double>();
  d.resampled = in.read<std::uint8_t>() != 0;
  d.log_marginal = in.read<double>();
  d.seconds = in.read<double>();
  d.demoted = in.read<std::uint32_t>();
  return d;
}

}  // namespace

void StreamState::serialize(io::BinaryWriter& out) const {
  out.write_string(kArchiveTag);
  out.write(config_fingerprint);
  out.write_string(simulator_name);

  out.write(cursor);
  out.write(static_cast<std::uint8_t>(any_assimilated));
  out.write(window_index);
  out.write(static_cast<std::uint8_t>(window_open));
  out.write(days_since_checkpoint);

  out.write(static_cast<std::uint64_t>(history.size()));
  for (const StreamWindowRecord& w : history) write_window_record(out, w);
  out.write(static_cast<std::uint64_t>(days.size()));
  for (const StreamDayRecord& d : days) write_day_record(out, d);

  out.reserve(state_bytes(*this));
  out.write(static_cast<std::uint8_t>(has_initial));
  if (has_initial) write_checkpoint(out, initial);
  out.write(static_cast<std::uint8_t>(has_posterior));
  if (has_posterior) {
    out.write_vector(posterior.theta);
    out.write_vector(posterior.rho);
    out.write_vector(posterior.parent_slot);
  }
  write_checkpoints(out, parent_pool);

  out.write_vector(obs_cases);
  out.write_vector(obs_deaths);
  out.write(n_sims);
  out.write_vector(param_index);
  out.write_vector(replicate);
  out.write_vector(parent);
  out.write_vector(theta);
  out.write_vector(rho);
  out.write_vector(seed);
  out.write_vector(stream);
  out.write_vector(true_cases_prefix);
  out.write_vector(obs_cases_prefix);
  out.write_vector(deaths_prefix);
  out.write_vector(case_acc);
  out.write_vector(death_acc);
  out.write_vector(full_case_acc);
  out.write_vector(full_death_acc);
  out.write_vector(bias_stream);
  out.write_vector(bias_position);
  write_checkpoints(out, cloud);
  out.write(log_marginal_acc);
  out.write(midwindow_resamples);
  out.write(propagate_seconds);
  out.write_vector(degenerate_draw);
}

StreamState StreamState::deserialize(io::BinaryReader& in) {
  if (in.version() != kArchiveVersion) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kVersion,
        "StreamState: archive is format version " +
            std::to_string(in.version()) + "; this build reads version " +
            std::to_string(kArchiveVersion));
  }
  const std::string tag = in.read_string();
  if (tag != kArchiveTag) {
    throw io::ArchiveError(io::ArchiveErrorKind::kForeignTag,
                           "StreamState: not a streaming-calibrator "
                           "checkpoint (archive tag '" +
                               tag + "', expected '" + kArchiveTag + "')");
  }

  StreamState st;
  st.config_fingerprint = in.read<std::uint64_t>();
  st.simulator_name = in.read_string();

  st.cursor = in.read<std::int32_t>();
  st.any_assimilated = in.read<std::uint8_t>() != 0;
  st.window_index = in.read<std::uint32_t>();
  st.window_open = in.read<std::uint8_t>() != 0;
  st.days_since_checkpoint = in.read<std::uint64_t>();

  // Lower bounds per record: a window record holds at least its days, its
  // diagnostics and its summary (the SMC trace is left out of the bound).
  const std::size_t n_windows =
      in.read_count(2 * sizeof(std::int32_t) +
                    core::WindowDiagnostics::kArchiveBytes +
                    core::WindowPosteriorSummary::kArchiveBytes);
  st.history.reserve(n_windows);
  for (std::size_t i = 0; i < n_windows; ++i) {
    st.history.push_back(read_window_record(in));
  }
  const std::size_t n_days = in.read_count(kDayRecordBytes);
  st.days.reserve(n_days);
  for (std::size_t i = 0; i < n_days; ++i) {
    st.days.push_back(read_day_record(in));
  }

  st.has_initial = in.read<std::uint8_t>() != 0;
  if (st.has_initial) st.initial = read_checkpoint(in);
  st.has_posterior = in.read<std::uint8_t>() != 0;
  if (st.has_posterior) {
    st.posterior.theta = in.read_vector<double>();
    st.posterior.rho = in.read_vector<double>();
    st.posterior.parent_slot = in.read_vector<std::uint32_t>();
  }
  st.parent_pool = read_checkpoints(in);

  st.obs_cases = in.read_vector<double>();
  st.obs_deaths = in.read_vector<double>();
  st.n_sims = in.read<std::uint64_t>();
  st.param_index = in.read_vector<std::uint32_t>();
  st.replicate = in.read_vector<std::uint32_t>();
  st.parent = in.read_vector<std::uint32_t>();
  st.theta = in.read_vector<double>();
  st.rho = in.read_vector<double>();
  st.seed = in.read_vector<std::uint64_t>();
  st.stream = in.read_vector<std::uint64_t>();
  st.true_cases_prefix = in.read_vector<double>();
  st.obs_cases_prefix = in.read_vector<double>();
  st.deaths_prefix = in.read_vector<double>();
  st.case_acc = in.read_vector<double>();
  st.death_acc = in.read_vector<double>();
  st.full_case_acc = in.read_vector<double>();
  st.full_death_acc = in.read_vector<double>();
  st.bias_stream = in.read_vector<std::uint64_t>();
  st.bias_position = in.read_vector<std::uint64_t>();
  st.cloud = read_checkpoints(in);
  st.log_marginal_acc = in.read<double>();
  st.midwindow_resamples = in.read<std::uint32_t>();
  st.propagate_seconds = in.read<double>();
  st.degenerate_draw = in.read_vector<std::uint8_t>();
  return st;
}

void StreamState::save(const std::filesystem::path& path) const {
  io::BinaryWriter out(kArchiveVersion);
  serialize(out);
  out.save(path);
}

StreamState StreamState::load(const std::filesystem::path& path) {
  io::BinaryReader in = io::BinaryReader::load(path);
  return deserialize(in);
}

void write_stream_day_csv(std::ostream& out,
                          const std::vector<StreamDayRecord>& days) {
  const auto prec = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "day,window,ess,resampled,log_marginal,seconds,demoted\n";
  for (const StreamDayRecord& d : days) {
    out << d.day << ',' << d.window << ',' << d.ess << ','
        << (d.resampled ? 1 : 0) << ',' << d.log_marginal << ',' << d.seconds
        << ',' << d.demoted << '\n';
  }
  out.precision(prec);
}

}  // namespace epismc::stream
