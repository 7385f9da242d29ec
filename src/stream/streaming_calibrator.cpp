#include "stream/streaming_calibrator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
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
  if (window_open_) return cursor_ + 1;
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
  if (!window_open_) open_window();
  assimilate_day(obs);
  cursor_ = obs.day;
  any_assimilated_ = true;
  if (cursor_ == spec_.to_day) finalize_window();
  maybe_checkpoint();
  progress_.beat();
  return days_.back();
}

void StreamingCalibrator::open_window() {
  const core::CalibrationConfig& cal = config_.calibration;
  const std::size_t m = window_index_;
  spec_ = core::make_window_spec(cal, m);
  const std::size_t n = n_sims();

  if (m == 0) {
    // Shared burn-in state, same identity as SequentialCalibrator's.
    initial_ckpt_ = sim_.initial_state(
        cal.burnin_day, rng::hash_combine(cal.seed, 0x494E4954ull));
    has_initial_ = true;
    auto pool = sim_.make_pool();
    pool->resize(1);
    pool->set_from_checkpoint(0, initial_ckpt_);
    parents_ = std::move(pool);
    propose_ = core::make_prior_proposal(cal, needs_rho_);
  } else {
    propose_ = core::make_posterior_proposal(cal, prev_draws_, needs_rho_);
  }

  const auto window_len =
      static_cast<std::size_t>(spec_.to_day - spec_.from_day + 1);
  win_ens_.resize(n, window_len);
  core::detail::layout_window_ensemble(spec_, *parents_, propose_, win_ens_);

  day_ens_.resize(n, 1);
  day_ens_.param_index = win_ens_.param_index;
  day_ens_.replicate = win_ens_.replicate;
  day_ens_.parent = win_ens_.parent;
  day_ens_.theta = win_ens_.theta;
  day_ens_.rho = win_ens_.rho;
  day_ens_.seed = win_ens_.seed;
  day_ens_.stream = win_ens_.stream;

  cloud_ = sim_.make_pool();
  cloud_->resize(n);

  win_obs_cases_.clear();
  win_obs_deaths_.clear();
  case_acc_.assign(n, 0.0);
  death_acc_.assign(n, 0.0);
  full_case_acc_.assign(n, 0.0);
  full_death_acc_.assign(n, 0.0);
  bias_eng_.clear();
  bias_eng_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    bias_eng_.push_back(core::detail::bias_engine(
        spec_, win_ens_.param_index[s], win_ens_.replicate[s]));
  }
  log_marginal_acc_ = 0.0;
  midwindow_resamples_ = 0;
  propagate_seconds_ = 0.0;
  win_degen_.assign(n, 0);
  ps_.reset(n);
  lw_scratch_.assign(n, 0.0);
  window_open_ = true;
}

void StreamingCalibrator::assimilate_day(const DailyObservation& obs) {
  parallel::Timer day_timer;
  const std::size_t n = n_sims();
  const bool use_deaths = config_.calibration.use_deaths;
  const std::int32_t day = obs.day;
  const std::size_t k = win_obs_cases_.size();  // day offset in the window

  win_obs_cases_.push_back(obs.cases);
  if (use_deaths) win_obs_deaths_.push_back(*obs.deaths);

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
  day_case_term_.assign(n, 0.0);
  if (use_deaths) day_death_term_.assign(n, 0.0);
  day_degen_.assign(n, 0);

  core::BatchSink sink;
  sink.on_sim = [&](std::size_t s) {
    // The bias engine persists across days and its draws are consumed
    // day-sequentially, so the per-day applies concatenate to exactly one
    // whole-window apply_into.
    bias_->apply_into(bias_eng_[s], day_ens_.true_cases(s), win_ens_.rho[s],
                      day_ens_.obs_cases(s));
    const double case_term =
        likelihood_->logpdf(case_cache, day_ens_.obs_cases(s));
    day_case_term_[s] = case_term;
    bool bad = core::detail::nonfinite_score(case_term);
    if (use_deaths) {
      const double death_term =
          death_likelihood_->logpdf(death_cache, day_ens_.deaths(s));
      day_death_term_[s] = death_term;
      bad = bad || core::detail::nonfinite_score(death_term);
    }
    if (bad) day_degen_[s] = 1;
    win_ens_.true_cases(s)[k] = day_ens_.true_cases(s)[0];
    win_ens_.obs_cases(s)[k] = day_ens_.obs_cases(s)[0];
    win_ens_.deaths(s)[k] = day_ens_.deaths(s)[0];
  };

  parallel::Timer prop_timer;
  if (k == 0) {
    // First day: copy-branch from the parent states exactly like the
    // batch weighted pass (same seed/stream/theta columns), truncated at
    // from_day, and capture each live model into the cloud.
    sink.capture = cloud_.get();
    sim_.run_batch(*parents_, day, day_ens_, 0, n, sink);
  } else {
    // Later days: continue each pooled model in place. Typed backends
    // keep their engine positions (bit-identical to one long run); the
    // io-boundary default re-branches onto the fresh per-day stream set
    // here (distribution-correct).
    const auto w = static_cast<std::uint64_t>(spec_.window_index);
    const auto d = static_cast<std::uint64_t>(day);
    for (std::size_t s = 0; s < n; ++s) {
      day_ens_.parent[s] = static_cast<std::uint32_t>(s);
      day_ens_.stream[s] = rng::make_stream_id({kStreamModelTag, w, d, s}).key;
    }
    sim_.advance_batch(*cloud_, day, day_ens_, 0, n, sink);
  }
  propagate_seconds_ += prop_timer.seconds();

  const core::DegeneracyReport day_report =
      core::detail::collect_degenerate(day_degen_);
  if (day_report.any() &&
      spec_.on_degenerate == core::DegeneracyPolicy::kThrow) {
    // No accumulator has been touched yet, so the session stays restorable
    // from its last checkpoint.
    core::detail::throw_degenerate(
        "streaming day " + std::to_string(day) + " (window " +
            std::to_string(spec_.window_index) + ")",
        day_report);
  }

  // Fold the day terms, demoting each non-finite term to -inf (the
  // quarantine policy); per sim this adds exactly one term per day in day
  // order, bit-identical to the pre-scratch fold on healthy windows and to
  // the batch whole-window demotion on quarantined ones (-inf either way).
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < n; ++s) {
    double case_term = day_case_term_[s];
    if (core::detail::nonfinite_score(case_term)) case_term = kNegInf;
    case_acc_[s] += case_term;
    full_case_acc_[s] += case_term;
    if (use_deaths) {
      double death_term = day_death_term_[s];
      if (core::detail::nonfinite_score(death_term)) death_term = kNegInf;
      death_acc_[s] += death_term;
      full_death_acc_[s] += death_term;
    }
    win_degen_[s] = static_cast<std::uint8_t>(win_degen_[s] | day_degen_[s]);
  }

  for (std::size_t s = 0; s < n; ++s) {
    lw_scratch_[s] =
        use_deaths ? case_acc_[s] + death_acc_[s] : case_acc_[s];
  }
  ps_.commit(lw_scratch_);

  StreamDayRecord rec;
  rec.day = day;
  rec.window = spec_.window_index;
  rec.demoted = static_cast<std::uint32_t>(day_report.demoted);
  rec.log_marginal = ps_.log_marginal_increment();
  bool degenerate = false;
  try {
    rec.ess = ps_.ess();
  } catch (const std::domain_error&) {
    // Fully degenerate day: every since-resample weight is -inf. Coast to
    // the boundary, where resolve_window_posterior raises a precise,
    // recoverable CalibrationError naming the quarantined draws.
    rec.ess = 0.0;
    degenerate = true;
  }

  const bool adaptive =
      spec_.inference != core::InferenceStrategy::kSingleStage;
  if (adaptive && config_.resample_mid_window && !degenerate &&
      day < spec_.to_day &&
      rec.ess < spec_.ess_threshold * static_cast<double>(n)) {
    resample_cloud(day);
    rec.resampled = true;
  }
  rec.seconds = day_timer.seconds();
  days_.push_back(rec);
}

void StreamingCalibrator::resample_cloud(std::int32_t day) {
  fault::hit("resample");
  const std::size_t n = n_sims();
  const auto w = static_cast<std::uint64_t>(spec_.window_index);
  const auto d = static_cast<std::uint64_t>(day);

  // Fold the evidence of the weights consumed by this resample; the
  // window's final log_marginal is this accumulator plus the tail commit.
  log_marginal_acc_ += ps_.log_marginal_increment();

  rng::PhiloxEngine eng =
      rng::make_engine(spec_.seed, {kStreamResampleTag, w, d});
  const std::vector<std::uint32_t> anc = ps_.resample(spec_.scheme, eng, n);

  // Redistribute the ensemble: identity/parameter columns plus the
  // already-assimilated series prefix follow the ancestor.
  const std::size_t days_done = win_obs_cases_.size();
  core::EnsembleBuffer next(n, win_ens_.window_len());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = anc[i];
    next.param_index[i] = win_ens_.param_index[a];
    next.replicate[i] = win_ens_.replicate[a];
    next.parent[i] = win_ens_.parent[a];
    next.theta[i] = win_ens_.theta[a];
    next.rho[i] = win_ens_.rho[a];
    next.seed[i] = win_ens_.seed[a];
    next.stream[i] = win_ens_.stream[a];
    const auto src_tc = win_ens_.true_cases(a);
    const auto src_oc = win_ens_.obs_cases(a);
    const auto src_de = win_ens_.deaths(a);
    std::copy_n(src_tc.begin(), days_done, next.true_cases(i).begin());
    std::copy_n(src_oc.begin(), days_done, next.obs_cases(i).begin());
    std::copy_n(src_de.begin(), days_done, next.deaths(i).begin());
  }
  win_ens_ = std::move(next);

  // Full-window accumulators follow the ancestor; the since-resample
  // accumulators restart at zero (the SMC weights from here on). The
  // quarantine flags are distinct-draw bookkeeping, so they follow the
  // ancestor too.
  std::vector<double> fc(n), fd(n);
  std::vector<std::uint8_t> dg(n);
  for (std::size_t i = 0; i < n; ++i) {
    fc[i] = full_case_acc_[anc[i]];
    fd[i] = full_death_acc_[anc[i]];
    dg[i] = win_degen_[anc[i]];
  }
  full_case_acc_ = std::move(fc);
  full_death_acc_ = std::move(fd);
  win_degen_ = std::move(dg);
  case_acc_.assign(n, 0.0);
  death_acc_.assign(n, 0.0);

  // Fresh per-particle identities from the resample day on: duplicated
  // ancestors must diverge, so each particle gets a new model stream (the
  // pool re-branches in place) and a new bias stream.
  std::vector<std::uint64_t> streams(n);
  for (std::size_t i = 0; i < n; ++i) {
    streams[i] = rng::make_stream_id({kStreamModelTag, w, d, i}).key;
    bias_eng_[i] = rng::make_engine(spec_.seed, {kStreamBiasTag, w, d, i});
    day_ens_.param_index[i] = win_ens_.param_index[i];
    day_ens_.replicate[i] = win_ens_.replicate[i];
    day_ens_.theta[i] = win_ens_.theta[i];
    day_ens_.rho[i] = win_ens_.rho[i];
  }
  sim_.resample_states(*cloud_, anc, spec_.seed, streams, win_ens_.theta);
  ++midwindow_resamples_;
}

void StreamingCalibrator::finalize_window() {
  fault::hit("window-boundary");
  const std::size_t n = n_sims();
  const bool use_deaths = config_.calibration.use_deaths;

  core::WindowResult result;
  result.from_day = spec_.from_day;
  result.to_day = spec_.to_day;

  // The ensemble's log-weight column carries the since-resample
  // accumulators -- the correct SMC weights for the boundary resolve (and
  // the full-window likelihood when no mid-window resample fired, making
  // the resolve input bit-identical to batch).
  for (std::size_t s = 0; s < n; ++s) {
    win_ens_.log_weight[s] =
        use_deaths ? case_acc_[s] + death_acc_[s] : case_acc_[s];
  }
  result.ensemble = std::move(win_ens_);
  result.diag.propagate_seconds = propagate_seconds_;

  const core::ObservationCache case_cache =
      likelihood_->prepare(win_obs_cases_);
  const core::ObservationCache death_cache =
      use_deaths ? death_likelihood_->prepare(win_obs_deaths_)
                 : core::ObservationCache{};

  // Full-window log-likelihoods for rejuvenation acceptance; identical to
  // the log-weight column unless a mid-window resample truncated it.
  std::vector<double> full_lw(n);
  for (std::size_t s = 0; s < n; ++s) {
    full_lw[s] = use_deaths ? full_case_acc_[s] + full_death_acc_[s]
                            : full_case_acc_[s];
  }

  // The streaming path always captures inline: the cloud *is* the live
  // end-of-window state set, so survivor compaction is free and deferred
  // replay (which could not reproduce mid-window resamples anyway) is
  // never needed.
  core::detail::WindowPosteriorInputs inputs{
      sim_,        *likelihood_, *death_likelihood_, *bias_, *parents_,
      spec_,       propose_,     case_cache,         death_cache,
      full_lw};
  inputs.degeneracy = core::detail::collect_degenerate(win_degen_);
  core::detail::resolve_window_posterior(inputs, cloud_,
                                         /*inline_capture=*/true, result);
  if (midwindow_resamples_ > 0) {
    result.diag.log_marginal += log_marginal_acc_;
  }

  StreamWindowRecord rec;
  rec.from_day = spec_.from_day;
  rec.to_day = spec_.to_day;
  rec.diag = result.diag;
  rec.smc = result.smc;
  rec.summary = core::summarize_window(result);
  history_.push_back(std::move(rec));

  prev_draws_ = std::make_shared<const core::PosteriorDraws>(
      core::PosteriorDraws::from_window(result));
  parents_ = result.state_pool;
  results_.push_back(std::move(result));

  ++window_index_;
  close_window_members();
}

void StreamingCalibrator::close_window_members() {
  window_open_ = false;
  propose_ = nullptr;
  cloud_.reset();
  win_obs_cases_.clear();
  win_obs_deaths_.clear();
  bias_eng_.clear();
  win_degen_.clear();
  log_marginal_acc_ = 0.0;
  midwindow_resamples_ = 0;
  propagate_seconds_ = 0.0;
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
  st.window_open = window_open_;
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

  if (window_open_) {
    const std::size_t n = n_sims();
    const std::size_t days_done = win_obs_cases_.size();
    st.obs_cases = win_obs_cases_;
    st.obs_deaths = win_obs_deaths_;
    st.n_sims = n;
    st.param_index = win_ens_.param_index;
    st.replicate = win_ens_.replicate;
    st.parent = win_ens_.parent;
    st.theta = win_ens_.theta;
    st.rho = win_ens_.rho;
    st.seed = win_ens_.seed;
    st.stream = win_ens_.stream;
    st.true_cases_prefix.reserve(n * days_done);
    st.obs_cases_prefix.reserve(n * days_done);
    st.deaths_prefix.reserve(n * days_done);
    for (std::size_t s = 0; s < n; ++s) {
      const auto tc = win_ens_.true_cases(s);
      const auto oc = win_ens_.obs_cases(s);
      const auto de = win_ens_.deaths(s);
      st.true_cases_prefix.insert(st.true_cases_prefix.end(), tc.begin(),
                                  tc.begin() + days_done);
      st.obs_cases_prefix.insert(st.obs_cases_prefix.end(), oc.begin(),
                                 oc.begin() + days_done);
      st.deaths_prefix.insert(st.deaths_prefix.end(), de.begin(),
                              de.begin() + days_done);
    }
    st.case_acc = case_acc_;
    st.death_acc = death_acc_;
    st.full_case_acc = full_case_acc_;
    st.full_death_acc = full_death_acc_;
    st.bias_stream.reserve(n);
    st.bias_position.reserve(n);
    for (const rng::PhiloxEngine& e : bias_eng_) {
      st.bias_stream.push_back(e.stream_value());
      st.bias_position.push_back(e.position());
    }
    encode_states(*cloud_, st.cloud);
    st.log_marginal_acc = log_marginal_acc_;
    st.midwindow_resamples = midwindow_resamples_;
    st.propagate_seconds = propagate_seconds_;
    st.degenerate_draw = win_degen_;
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

  cursor_ = state.cursor;
  any_assimilated_ = state.any_assimilated;
  window_index_ = state.window_index;
  days_since_checkpoint_ = state.days_since_checkpoint;
  history_ = state.history;
  days_ = state.days;
  results_.clear();  // full WindowResults are not archived (see results())

  has_initial_ = state.has_initial;
  if (has_initial_) initial_ckpt_ = state.initial;
  prev_draws_ = state.has_posterior
                    ? std::make_shared<const core::PosteriorDraws>(
                          state.posterior)
                    : nullptr;

  parents_.reset();
  if (state.has_posterior) {
    auto pool = sim_.make_pool();
    pool->resize(state.parent_pool.size());
    for (std::size_t p = 0; p < state.parent_pool.size(); ++p) {
      pool->set_from_checkpoint(p, state.parent_pool[p]);
    }
    parents_ = std::move(pool);
  } else if (has_initial_) {
    auto pool = sim_.make_pool();
    pool->resize(1);
    pool->set_from_checkpoint(0, initial_ckpt_);
    parents_ = std::move(pool);
  }

  close_window_members();
  if (!state.window_open) return;

  const core::CalibrationConfig& cal = config_.calibration;
  spec_ = core::make_window_spec(cal, window_index_);
  propose_ = window_index_ == 0
                 ? core::make_prior_proposal(cal, needs_rho_)
                 : core::make_posterior_proposal(cal, prev_draws_,
                                                 needs_rho_);

  const std::size_t n = n_sims();
  if (state.n_sims != n) {
    throw std::invalid_argument(
        "StreamingCalibrator::restore: snapshot holds " +
        std::to_string(state.n_sims) + " sims but the config budgets " +
        std::to_string(n));
  }
  const auto window_len =
      static_cast<std::size_t>(spec_.to_day - spec_.from_day + 1);
  const std::size_t days_done = state.obs_cases.size();

  win_ens_.resize(n, window_len);
  win_ens_.param_index = state.param_index;
  win_ens_.replicate = state.replicate;
  win_ens_.parent = state.parent;
  win_ens_.theta = state.theta;
  win_ens_.rho = state.rho;
  win_ens_.seed = state.seed;
  win_ens_.stream = state.stream;
  for (std::size_t s = 0; s < n; ++s) {
    std::copy_n(state.true_cases_prefix.begin() + s * days_done, days_done,
                win_ens_.true_cases(s).begin());
    std::copy_n(state.obs_cases_prefix.begin() + s * days_done, days_done,
                win_ens_.obs_cases(s).begin());
    std::copy_n(state.deaths_prefix.begin() + s * days_done, days_done,
                win_ens_.deaths(s).begin());
  }

  day_ens_.resize(n, 1);
  day_ens_.param_index = win_ens_.param_index;
  day_ens_.replicate = win_ens_.replicate;
  day_ens_.parent = win_ens_.parent;
  day_ens_.theta = win_ens_.theta;
  day_ens_.rho = win_ens_.rho;
  day_ens_.seed = win_ens_.seed;
  day_ens_.stream = win_ens_.stream;

  cloud_ = sim_.make_pool();
  cloud_->resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    cloud_->set_from_checkpoint(s, state.cloud[s]);
  }

  win_obs_cases_ = state.obs_cases;
  win_obs_deaths_ = state.obs_deaths;
  case_acc_ = state.case_acc;
  death_acc_ = state.death_acc;
  full_case_acc_ = state.full_case_acc;
  full_death_acc_ = state.full_death_acc;
  bias_eng_.clear();
  bias_eng_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    rng::PhiloxEngine e(spec_.seed, state.bias_stream[s]);
    e.set_position(state.bias_position[s]);
    bias_eng_.push_back(e);
  }
  log_marginal_acc_ = state.log_marginal_acc;
  midwindow_resamples_ = state.midwindow_resamples;
  propagate_seconds_ = state.propagate_seconds;
  win_degen_ = state.degenerate_draw;
  win_degen_.resize(n, 0);
  ps_.reset(n);
  lw_scratch_.assign(n, 0.0);
  window_open_ = true;
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
