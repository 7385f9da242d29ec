#include "stream/streaming_calibrator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/importance_sampler.hpp"
#include "core/posterior.hpp"
#include "fault/fault.hpp"
#include "parallel/parallel.hpp"
#include "random/seeding.hpp"

namespace epismc::stream {

namespace {

// Streaming-only stream identities, disjoint from the batch tags in
// core/importance_sampler.cpp by construction (different leading tag).
// They address the randomness that only exists on the streaming path:
// mid-window resamples and the fresh model/bias streams particles receive
// after one. On a stream that never resamples mid-window, none of these
// is ever consumed -- the batch identities carry the whole window, which
// is what makes the no-resample path bit-identical to batch.
constexpr std::uint64_t kStreamResampleTag = 0x53545253ull;  // "STRS"
constexpr std::uint64_t kStreamModelTag = 0x53544D44ull;     // "STMD"
constexpr std::uint64_t kStreamBiasTag = 0x53544249ull;      // "STBI"

/// Serialize every slot of `pool` into `out`, one slot per index on all
/// lanes. Each index writes only its own pre-sized element, so the bytes
/// do not depend on the lane count (StatePool::to_checkpoint is safe on
/// distinct slots concurrently).
void encode_states(const core::StatePool& pool,
                   std::vector<epi::Checkpoint>& out) {
  out.resize(pool.size());
  parallel::parallel_for(out.size(), [&](std::size_t i) {
    out[i] = pool.to_checkpoint(i);
  });
}

[[noreturn]] void corrupt(const std::string& what) {
  throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                         "StreamingCalibrator::restore: " + what);
}

void check_length(const char* field, std::size_t got, std::size_t want) {
  if (got != want) {
    corrupt(std::string(field) + " holds " + std::to_string(got) +
            " entries, expected " + std::to_string(want));
  }
}

/// The shape restore() relies on before it builds anything: window index,
/// flags, posterior, cursor and the per-sim vectors that are not copied
/// through for_each_per_sim_field (whose lengths are checked as they are
/// copied). Each violation is a corrupt checkpoint naming the field.
void check_shape(const StreamState& st, const core::CalibrationConfig& cal) {
  const std::size_t n_windows = cal.windows.size();
  if (st.window_index > n_windows ||
      (st.window_index == n_windows && st.window_open)) {
    corrupt("window_index " + std::to_string(st.window_index) +
            (st.window_open ? " (open)" : "") + " is outside the config's " +
            std::to_string(n_windows) + " windows");
  }
  if (st.has_initial != (st.window_index > 0 || st.window_open)) {
    corrupt("has_initial disagrees with window_index " +
            std::to_string(st.window_index));
  }
  if (st.has_posterior != (st.window_index > 0)) {
    corrupt("has_posterior disagrees with window_index " +
            std::to_string(st.window_index));
  }
  const core::PosteriorDraws& post = st.posterior;
  if (st.has_posterior && post.theta.empty()) corrupt("posterior is empty");
  check_length("posterior rho", post.rho.size(), post.theta.size());
  check_length("posterior parent_slot", post.parent_slot.size(),
               post.theta.size());
  for (const std::uint32_t slot : post.parent_slot) {
    if (slot >= st.parent_pool.size()) {
      corrupt("posterior parent_slot " + std::to_string(slot) +
              " is past the " + std::to_string(st.parent_pool.size()) +
              "-state parent_pool");
    }
  }
  if (!st.window_open) return;

  const std::size_t n = cal.n_params * cal.replicates;
  if (st.n_sims != n) {
    corrupt("n_sims is " + std::to_string(st.n_sims) +
            " but the config budgets " + std::to_string(n));
  }
  const auto [from, to] = cal.windows[st.window_index];
  const std::size_t days = st.obs_cases.size();
  if (days == 0 || days >= static_cast<std::size_t>(to - from + 1)) {
    corrupt("obs_cases holds " + std::to_string(days) +
            " days, but an open window [" + std::to_string(from) + ", " +
            std::to_string(to) + "] has 1 to " + std::to_string(to - from) +
            " days done");
  }
  check_length("obs_deaths", st.obs_deaths.size(), cal.use_deaths ? days : 0);
  const auto last_day = static_cast<std::int32_t>(from + days - 1);
  if (!st.any_assimilated || st.cursor != last_day) {
    corrupt("cursor is day " + std::to_string(st.cursor) +
            " but the open window's last assimilated day is " +
            std::to_string(last_day));
  }
  check_length("bias_stream", st.bias_stream.size(), n);
  check_length("bias_position", st.bias_position.size(), n);
  check_length("cloud", st.cloud.size(), n);
}

/// Calls f(field, archived, live) for every per-sim vector a StreamState
/// keeps of an open window, paired with where it lives in the session:
/// the seven identity columns and three series of `prefix` (the window's
/// assimilated days as an n_sims x days EnsembleBuffer), then the
/// accumulators and quarantine flags of the open-window record. snapshot()
/// and restore() both walk this one list.
template <typename State, typename Window, typename F>
void for_each_per_sim_field(State& st, Window& w, core::EnsembleBuffer& prefix,
                            F&& f) {
  using Series = core::EnsembleBuffer::Series;
  f("param_index", st.param_index, prefix.param_index);
  f("replicate", st.replicate, prefix.replicate);
  f("parent", st.parent, prefix.parent);
  f("theta", st.theta, prefix.theta);
  f("rho", st.rho, prefix.rho);
  f("seed", st.seed, prefix.seed);
  f("stream", st.stream, prefix.stream);
  f("true_cases_prefix", st.true_cases_prefix,
    prefix.matrix(Series::kTrueCases));
  f("obs_cases_prefix", st.obs_cases_prefix, prefix.matrix(Series::kObsCases));
  f("deaths_prefix", st.deaths_prefix, prefix.matrix(Series::kDeaths));
  f("case_acc", st.case_acc, w.case_acc);
  f("death_acc", st.death_acc, w.death_acc);
  f("full_case_acc", st.full_case_acc, w.full_case_acc);
  f("full_death_acc", st.full_death_acc, w.full_death_acc);
  f("degenerate_draw", st.degenerate_draw, w.degen);
}

}  // namespace

StreamingCalibrator::StreamingCalibrator(const core::Simulator& sim,
                                         StreamConfig config)
    : sim_(sim), config_(std::move(config)) {
  config_.validate();
  const core::CalibrationConfig& cal = config_.calibration;
  likelihood_ = core::make_likelihood(cal.likelihood_name,
                                      cal.likelihood_parameter);
  death_likelihood_ = core::make_likelihood(cal.death_likelihood_name,
                                            cal.death_likelihood_parameter);
  bias_ = core::make_bias_model(cal.bias_name);
  needs_rho_ = bias_->uses_rho();
  results_.reserve(cal.windows.size());
}

std::int32_t StreamingCalibrator::next_expected_day() const {
  const auto& windows = config_.calibration.windows;
  if (finished()) return windows.back().second + 1;
  if (win_) return cursor_ + 1;
  return windows[window_index_].first;
}

std::int32_t StreamingCalibrator::last_assimilated_day() const {
  if (!any_assimilated_) {
    throw std::logic_error(
        "StreamingCalibrator::last_assimilated_day: no day assimilated yet");
  }
  return cursor_;
}

const StreamDayRecord& StreamingCalibrator::ingest(
    const DailyObservation& obs) {
  if (finished()) {
    throw std::logic_error(
        "StreamingCalibrator::ingest: all " +
        std::to_string(config_.calibration.windows.size()) +
        " windows are assimilated; day " + std::to_string(obs.day) +
        " rejected");
  }
  const std::int32_t expected = next_expected_day();
  if (obs.day != expected) {
    if (any_assimilated_ && obs.day <= cursor_) {
      throw std::invalid_argument(
          "StreamingCalibrator::ingest: day " + std::to_string(obs.day) +
          " already assimilated (cursor at day " + std::to_string(cursor_) +
          ")");
    }
    throw std::invalid_argument(
        "StreamingCalibrator::ingest: expected day " +
        std::to_string(expected) + ", got day " + std::to_string(obs.day) +
        " (streaming ingestion must be contiguous)");
  }
  if (config_.calibration.use_deaths && !obs.deaths.has_value()) {
    throw std::invalid_argument(
        "StreamingCalibrator::ingest: use_deaths is set but the day-" +
        std::to_string(obs.day) + " observation carries no death count");
  }

  fault::hit("stream-ingest");
  if (!win_) open_window();
  assimilate_day(obs);
  cursor_ = obs.day;
  any_assimilated_ = true;
  if (cursor_ == win_->spec.to_day) finalize_window();
  maybe_checkpoint();
  progress_.beat();
  return days_.back();
}

StreamingCalibrator::OpenWindow StreamingCalibrator::make_window(
    std::uint32_t m, const core::StatePool& parents,
    const std::shared_ptr<const core::PosteriorDraws>& prev) const {
  const core::CalibrationConfig& cal = config_.calibration;
  const std::size_t n = n_sims();
  OpenWindow w;
  w.spec = core::make_window_spec(cal, m);
  w.propose = m == 0 ? core::make_prior_proposal(cal, needs_rho_)
                     : core::make_posterior_proposal(cal, prev, needs_rho_);
  w.ens.resize(n,
               static_cast<std::size_t>(w.spec.to_day - w.spec.from_day + 1));
  core::detail::layout_window_ensemble(w.spec, parents, w.propose, w.ens);
  w.day_ens.resize(n, 1);
  for (std::size_t s = 0; s < n; ++s) w.day_ens.copy_row(s, w.ens, s);
  w.cloud = sim_.make_pool();
  w.cloud->resize(n);
  w.case_acc.assign(n, 0.0);
  w.death_acc.assign(n, 0.0);
  w.full_case_acc.assign(n, 0.0);
  w.full_death_acc.assign(n, 0.0);
  w.degen.assign(n, 0);
  w.bias_eng.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    w.bias_eng.push_back(core::detail::bias_engine(w.spec, w.ens.param_index[s],
                                                   w.ens.replicate[s]));
  }
  w.ps.reset(n);
  w.lw_scratch.assign(n, 0.0);
  return w;
}

std::shared_ptr<core::StatePool> StreamingCalibrator::load_pool(
    std::span<const epi::Checkpoint> states) const {
  auto pool = sim_.make_pool();
  pool->resize(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    pool->set_from_checkpoint(i, states[i]);
  }
  return pool;
}

void StreamingCalibrator::open_window() {
  if (window_index_ == 0) {
    // Shared burn-in state, same identity as SequentialCalibrator's.
    const core::CalibrationConfig& cal = config_.calibration;
    initial_ckpt_ = sim_.initial_state(
        cal.burnin_day, rng::hash_combine(cal.seed, 0x494E4954ull));
    has_initial_ = true;
    parents_ = load_pool({&initial_ckpt_, 1});
  }
  win_.emplace(make_window(window_index_, *parents_, prev_draws_));
}

void StreamingCalibrator::assimilate_day(const DailyObservation& obs) {
  parallel::Timer day_timer;
  OpenWindow& w = *win_;
  const std::size_t n = n_sims();
  const bool use_deaths = config_.calibration.use_deaths;
  const std::int32_t day = obs.day;
  const std::size_t k = w.obs_cases.size();  // day offset in the window

  w.obs_cases.push_back(obs.cases);
  if (use_deaths) w.obs_deaths.push_back(*obs.deaths);

  // One-day observation caches: the built-in likelihoods fold per-day
  // terms left to right, so day caches scored and summed in day order are
  // bit-equal to the whole-window cached score.
  const double day_cases = obs.cases;
  const core::ObservationCache case_cache =
      likelihood_->prepare({&day_cases, 1});
  double day_deaths = 0.0;
  core::ObservationCache death_cache;
  if (use_deaths) {
    day_deaths = *obs.deaths;
    death_cache = death_likelihood_->prepare({&day_deaths, 1});
  }

  // Raw day terms land in scratch, not the accumulators: a kThrow
  // degeneracy must abort before any accumulator mutates, and the
  // quarantine demotion happens in one serial pass below (per-sim the
  // day-ordered fold is unchanged, so healthy windows stay bit-identical).
  w.day_case_term.assign(n, 0.0);
  if (use_deaths) w.day_death_term.assign(n, 0.0);
  w.day_degen.assign(n, 0);

  core::BatchSink sink;
  sink.on_sim = [&](std::size_t s) {
    // The bias engine persists across days and its draws are consumed
    // day-sequentially, so the per-day applies concatenate to exactly one
    // whole-window apply_into.
    bias_->apply_into(w.bias_eng[s], w.day_ens.true_cases(s), w.ens.rho[s],
                      w.day_ens.obs_cases(s));
    const double case_term =
        likelihood_->logpdf(case_cache, w.day_ens.obs_cases(s));
    w.day_case_term[s] = case_term;
    bool bad = core::detail::nonfinite_score(case_term);
    if (use_deaths) {
      const double death_term =
          death_likelihood_->logpdf(death_cache, w.day_ens.deaths(s));
      w.day_death_term[s] = death_term;
      bad = bad || core::detail::nonfinite_score(death_term);
    }
    if (bad) w.day_degen[s] = 1;
    w.ens.true_cases(s)[k] = w.day_ens.true_cases(s)[0];
    w.ens.obs_cases(s)[k] = w.day_ens.obs_cases(s)[0];
    w.ens.deaths(s)[k] = w.day_ens.deaths(s)[0];
  };

  parallel::Timer prop_timer;
  if (k == 0) {
    // First day: copy-branch from the parent states exactly like the
    // batch weighted pass (same seed/stream/theta columns), truncated at
    // from_day, and capture each live model into the cloud.
    sink.capture = w.cloud.get();
    sim_.run_batch(*parents_, day, w.day_ens, 0, n, sink);
  } else {
    // Later days: continue each pooled model in place. Typed backends
    // keep their engine positions (bit-identical to one long run); the
    // io-boundary default re-branches onto the fresh per-day stream set
    // here (distribution-correct).
    const auto wi = static_cast<std::uint64_t>(w.spec.window_index);
    const auto d = static_cast<std::uint64_t>(day);
    for (std::size_t s = 0; s < n; ++s) {
      w.day_ens.parent[s] = static_cast<std::uint32_t>(s);
      w.day_ens.stream[s] =
          rng::make_stream_id({kStreamModelTag, wi, d, s}).key;
    }
    sim_.advance_batch(*w.cloud, day, w.day_ens, 0, n, sink);
  }
  w.propagate_seconds += prop_timer.seconds();

  const core::DegeneracyReport day_report =
      core::detail::collect_degenerate(w.day_degen);
  if (day_report.any() &&
      w.spec.on_degenerate == core::DegeneracyPolicy::kThrow) {
    // No accumulator has been touched yet, so the session stays restorable
    // from its last checkpoint.
    core::detail::throw_degenerate(
        "streaming day " + std::to_string(day) + " (window " +
            std::to_string(w.spec.window_index) + ")",
        day_report);
  }

  // Fold the day terms, demoting each non-finite term to -inf (the
  // quarantine policy); per sim this adds exactly one term per day in day
  // order, bit-identical to the pre-scratch fold on healthy windows and to
  // the batch whole-window demotion on quarantined ones (-inf either way).
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < n; ++s) {
    double case_term = w.day_case_term[s];
    if (core::detail::nonfinite_score(case_term)) case_term = kNegInf;
    w.case_acc[s] += case_term;
    w.full_case_acc[s] += case_term;
    if (use_deaths) {
      double death_term = w.day_death_term[s];
      if (core::detail::nonfinite_score(death_term)) death_term = kNegInf;
      w.death_acc[s] += death_term;
      w.full_death_acc[s] += death_term;
    }
    w.degen[s] = static_cast<std::uint8_t>(w.degen[s] | w.day_degen[s]);
  }

  for (std::size_t s = 0; s < n; ++s) {
    w.lw_scratch[s] =
        use_deaths ? w.case_acc[s] + w.death_acc[s] : w.case_acc[s];
  }
  w.ps.commit(w.lw_scratch);

  StreamDayRecord rec;
  rec.day = day;
  rec.window = w.spec.window_index;
  rec.demoted = static_cast<std::uint32_t>(day_report.demoted);
  rec.log_marginal = w.ps.log_marginal_increment();
  bool degenerate = false;
  try {
    rec.ess = w.ps.ess();
  } catch (const std::domain_error&) {
    // Fully degenerate day: every since-resample weight is -inf. Coast to
    // the boundary, where resolve_window_posterior raises a precise,
    // recoverable CalibrationError naming the quarantined draws.
    rec.ess = 0.0;
    degenerate = true;
  }

  const bool adaptive =
      w.spec.inference != core::InferenceStrategy::kSingleStage;
  if (adaptive && config_.resample_mid_window && !degenerate &&
      day < w.spec.to_day &&
      rec.ess < w.spec.ess_threshold * static_cast<double>(n)) {
    resample_cloud(day);
    rec.resampled = true;
  }
  rec.seconds = day_timer.seconds();
  days_.push_back(rec);
}

void StreamingCalibrator::resample_cloud(std::int32_t day) {
  fault::hit("resample");
  OpenWindow& w = *win_;
  const std::size_t n = n_sims();
  const auto wi = static_cast<std::uint64_t>(w.spec.window_index);
  const auto d = static_cast<std::uint64_t>(day);

  // Fold the evidence of the weights consumed by this resample; the
  // window's final log_marginal is this accumulator plus the tail commit.
  w.log_marginal_acc += w.ps.log_marginal_increment();

  rng::PhiloxEngine eng =
      rng::make_engine(w.spec.seed, {kStreamResampleTag, wi, d});
  const std::vector<std::uint32_t> anc = w.ps.resample(w.spec.scheme, eng, n);

  // Redistribute the ensemble: identity/parameter columns plus the
  // already-assimilated series prefix follow the ancestor.
  const std::size_t days_done = w.obs_cases.size();
  core::EnsembleBuffer next(n, w.ens.window_len());
  for (std::size_t i = 0; i < n; ++i) {
    next.copy_row(i, w.ens, anc[i], days_done);
  }
  w.ens = std::move(next);

  // Full-window accumulators follow the ancestor; the since-resample
  // accumulators restart at zero (the SMC weights from here on). The
  // quarantine flags are distinct-draw bookkeeping, so they follow the
  // ancestor too.
  std::vector<double> fc(n), fd(n);
  std::vector<std::uint8_t> dg(n);
  for (std::size_t i = 0; i < n; ++i) {
    fc[i] = w.full_case_acc[anc[i]];
    fd[i] = w.full_death_acc[anc[i]];
    dg[i] = w.degen[anc[i]];
  }
  w.full_case_acc = std::move(fc);
  w.full_death_acc = std::move(fd);
  w.degen = std::move(dg);
  w.case_acc.assign(n, 0.0);
  w.death_acc.assign(n, 0.0);

  // Fresh per-particle identities from the resample day on: duplicated
  // ancestors must diverge, so each particle gets a new model stream (the
  // pool re-branches in place) and a new bias stream. The 1-day buffer's
  // parent/stream columns are rewritten before the next day's advance.
  std::vector<std::uint64_t> streams(n);
  for (std::size_t i = 0; i < n; ++i) {
    streams[i] = rng::make_stream_id({kStreamModelTag, wi, d, i}).key;
    w.bias_eng[i] = rng::make_engine(w.spec.seed, {kStreamBiasTag, wi, d, i});
    w.day_ens.copy_row(i, w.ens, i);
  }
  sim_.resample_states(*w.cloud, anc, w.spec.seed, streams, w.ens.theta);
  ++w.midwindow_resamples;
}

void StreamingCalibrator::finalize_window() {
  fault::hit("window-boundary");
  OpenWindow& w = *win_;
  const std::size_t n = n_sims();
  const bool use_deaths = config_.calibration.use_deaths;

  core::WindowResult result;
  result.from_day = w.spec.from_day;
  result.to_day = w.spec.to_day;

  // The ensemble's log-weight column carries the since-resample
  // accumulators -- the correct SMC weights for the boundary resolve (and
  // the full-window likelihood when no mid-window resample fired, making
  // the resolve input bit-identical to batch).
  for (std::size_t s = 0; s < n; ++s) {
    w.ens.log_weight[s] =
        use_deaths ? w.case_acc[s] + w.death_acc[s] : w.case_acc[s];
  }
  result.ensemble = std::move(w.ens);
  result.diag.propagate_seconds = w.propagate_seconds;

  const core::ObservationCache case_cache =
      likelihood_->prepare(w.obs_cases);
  const core::ObservationCache death_cache =
      use_deaths ? death_likelihood_->prepare(w.obs_deaths)
                 : core::ObservationCache{};

  // Full-window log-likelihoods for rejuvenation acceptance; identical to
  // the log-weight column unless a mid-window resample truncated it.
  std::vector<double> full_lw(n);
  for (std::size_t s = 0; s < n; ++s) {
    full_lw[s] = use_deaths ? w.full_case_acc[s] + w.full_death_acc[s]
                            : w.full_case_acc[s];
  }

  // The streaming path always captures inline: the cloud *is* the live
  // end-of-window state set, so survivor compaction is free and deferred
  // replay (which could not reproduce mid-window resamples anyway) is
  // never needed.
  core::detail::WindowPosteriorInputs inputs{
      sim_,   *likelihood_, *death_likelihood_, *bias_,      *parents_,
      w.spec, w.propose,    case_cache,         death_cache, full_lw};
  inputs.observed_cases = w.obs_cases;
  inputs.observed_deaths = w.obs_deaths;
  inputs.degeneracy = core::detail::collect_degenerate(w.degen);
  core::detail::resolve_window_posterior(inputs, w.cloud,
                                         /*inline_capture=*/true, result);
  if (w.midwindow_resamples > 0) {
    result.diag.log_marginal += w.log_marginal_acc;
  }

  StreamWindowRecord rec;
  rec.from_day = w.spec.from_day;
  rec.to_day = w.spec.to_day;
  rec.diag = result.diag;
  rec.smc = result.smc;
  rec.summary = core::summarize_window(result);
  history_.push_back(std::move(rec));

  prev_draws_ = std::make_shared<const core::PosteriorDraws>(
      core::PosteriorDraws::from_window(result));
  parents_ = result.state_pool;
  results_.push_back(std::move(result));

  ++window_index_;
  win_.reset();
}

void StreamingCalibrator::maybe_checkpoint() {
  if (config_.checkpoint_every <= 0) return;
  ++days_since_checkpoint_;
  if (days_since_checkpoint_ <
      static_cast<std::uint64_t>(config_.checkpoint_every)) {
    return;
  }
  save_rotated();
}

void StreamingCalibrator::checkpoint_now() {
  if (config_.checkpoint_path.empty()) {
    throw std::logic_error(
        "StreamingCalibrator::checkpoint_now: no checkpoint_path configured");
  }
  save_rotated();
}

void StreamingCalibrator::save_rotated() {
  // Reset before snapshotting so the archive does not re-trigger a
  // checkpoint on the first post-resume ingest.
  days_since_checkpoint_ = 0;
  io::BinaryWriter out(StreamState::kArchiveVersion);
  snapshot().serialize(out);
  io::CheckpointRotation(config_.checkpoint_path).save_next(out);
}

StreamState StreamingCalibrator::snapshot() const {
  StreamState st;
  st.config_fingerprint = config_fingerprint(config_);
  st.simulator_name = sim_.name();

  st.cursor = cursor_;
  st.any_assimilated = any_assimilated_;
  st.window_index = window_index_;
  st.window_open = win_.has_value();
  st.days_since_checkpoint = days_since_checkpoint_;

  st.history = history_;
  st.days = days_;

  st.has_initial = has_initial_;
  if (has_initial_) st.initial = initial_ckpt_;
  st.has_posterior = prev_draws_ != nullptr;
  if (st.has_posterior) {
    st.posterior = *prev_draws_;
    encode_states(*parents_, st.parent_pool);
  }

  if (win_) {
    const OpenWindow& w = *win_;
    const std::size_t n = n_sims();
    const std::size_t days = w.obs_cases.size();
    core::EnsembleBuffer prefix(n, days);
    for (std::size_t s = 0; s < n; ++s) prefix.copy_row(s, w.ens, s, days);
    for_each_per_sim_field(st, w, prefix,
                           [](const char*, auto& archived, const auto& live) {
                             archived.assign(live.begin(), live.end());
                           });
    st.obs_cases = w.obs_cases;
    st.obs_deaths = w.obs_deaths;
    st.n_sims = n;
    st.bias_stream.reserve(n);
    st.bias_position.reserve(n);
    for (const rng::PhiloxEngine& e : w.bias_eng) {
      st.bias_stream.push_back(e.stream_value());
      st.bias_position.push_back(e.position());
    }
    encode_states(*w.cloud, st.cloud);
    st.log_marginal_acc = w.log_marginal_acc;
    st.midwindow_resamples = w.midwindow_resamples;
    st.propagate_seconds = w.propagate_seconds;
  }
  return st;
}

void StreamingCalibrator::restore(const StreamState& state) {
  if (state.config_fingerprint != config_fingerprint(config_)) {
    throw std::invalid_argument(
        "StreamingCalibrator::restore: snapshot was taken under a different "
        "configuration (fingerprint mismatch); resume with the exact config "
        "that produced the checkpoint");
  }
  if (state.simulator_name != sim_.name()) {
    throw std::invalid_argument(
        "StreamingCalibrator::restore: snapshot was taken under simulator '" +
        state.simulator_name + "', but this calibrator drives '" +
        sim_.name() + "'");
  }
  check_shape(state, config_.calibration);

  // Build the whole session into locals and commit by move at the end, so
  // a corrupt field (or a state the simulator refuses) changes nothing.
  std::shared_ptr<const core::PosteriorDraws> prev;
  std::shared_ptr<core::StatePool> parents;
  if (state.has_posterior) {
    prev = std::make_shared<const core::PosteriorDraws>(state.posterior);
    parents = load_pool(state.parent_pool);
  } else if (state.has_initial) {
    parents = load_pool({&state.initial, 1});
  }
  std::optional<OpenWindow> win;
  if (state.window_open) {
    OpenWindow& w =
        win.emplace(make_window(state.window_index, *parents, prev));
    const std::size_t n = n_sims();
    const std::size_t days = state.obs_cases.size();
    core::EnsembleBuffer prefix(n, days);
    for_each_per_sim_field(
        state, w, prefix,
        [](const char* field, const auto& archived, auto&& live) {
          check_length(field, archived.size(), live.size());
          std::copy(archived.begin(), archived.end(), live.begin());
        });
    for (std::size_t s = 0; s < n; ++s) {
      w.ens.copy_row(s, prefix, s, days);
      w.day_ens.copy_row(s, prefix, s);
      w.bias_eng[s] = rng::PhiloxEngine(w.spec.seed, state.bias_stream[s]);
      w.bias_eng[s].set_position(state.bias_position[s]);
      w.cloud->set_from_checkpoint(s, state.cloud[s]);
    }
    w.obs_cases = state.obs_cases;
    w.obs_deaths = state.obs_deaths;
    w.log_marginal_acc = state.log_marginal_acc;
    w.midwindow_resamples = state.midwindow_resamples;
    w.propagate_seconds = state.propagate_seconds;
  }
  std::vector<StreamWindowRecord> history = state.history;
  std::vector<StreamDayRecord> days = state.days;
  epi::Checkpoint initial = state.initial;

  cursor_ = state.cursor;
  any_assimilated_ = state.any_assimilated;
  window_index_ = state.window_index;
  days_since_checkpoint_ = state.days_since_checkpoint;
  history_ = std::move(history);
  days_ = std::move(days);
  results_.clear();  // full WindowResults are not archived (see results())
  has_initial_ = state.has_initial;
  initial_ckpt_ = std::move(initial);
  prev_draws_ = std::move(prev);
  parents_ = std::move(parents);
  win_ = std::move(win);
}

void StreamingCalibrator::save(const std::filesystem::path& path) const {
  snapshot().save(path);
}

void StreamingCalibrator::load(const std::filesystem::path& path) {
  restore(StreamState::load(path));
}

std::optional<io::RecoveredSlot> StreamingCalibrator::resume_latest() {
  if (config_.checkpoint_path.empty()) {
    throw std::logic_error(
        "StreamingCalibrator::resume_latest: no checkpoint_path configured "
        "(rotated slots are derived from it)");
  }
  const io::CheckpointRotation rotation(config_.checkpoint_path);
  // A crash mid-save (the very situation resume recovers from) leaks the
  // save's temp file; collect any such strays before a retry leaks more.
  rotation.gc_stale_temps();
  bool any_exists = false;
  bool fell_back = false;
  std::string failures;
  for (const io::SlotInfo& slot : rotation.by_recency()) {
    if (!slot.exists) continue;
    any_exists = true;
    try {
      io::BinaryReader in = io::BinaryReader::load(slot.path);
      StreamState state = StreamState::deserialize(in);
      // A fingerprint/simulator mismatch throws std::invalid_argument out
      // of restore() and is deliberately NOT a fallback trigger: both
      // slots came from the same session, so the older one would mismatch
      // identically.
      restore(state);
      io::RecoveredSlot recovered;
      recovered.path = slot.path;
      recovered.generation = in.generation();
      recovered.fell_back = fell_back;
      recovered.note =
          fell_back ? "newest slot unusable (" + failures +
                          "); recovered from the previous generation"
                    : "newest checkpoint slot";
      last_recovery_ = std::move(recovered);
      return last_recovery_;
    } catch (const io::ArchiveError& e) {
      // Torn/corrupt/truncated slot: note why and try the older one.
      if (!failures.empty()) failures += "; ";
      failures += slot.path.filename().string() + ": " + e.what();
      fell_back = true;
    }
  }
  if (!any_exists) return std::nullopt;  // fresh session, nothing to resume
  throw io::ArchiveError(
      io::ArchiveErrorKind::kCorrupt,
      "StreamingCalibrator::resume_latest: no usable checkpoint slot under "
      "'" + config_.checkpoint_path.string() + "' (" + failures + ")");
}

}  // namespace epismc::stream
