#include "core/importance_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "parallel/parallel.hpp"
#include "random/seeding.hpp"
#include "simd/simd.hpp"

namespace epismc::core {

namespace {

// Domain tags keeping the model / bias / proposal / resampling / temper /
// rejuvenation stream families disjoint within a window.
constexpr std::uint64_t kModelTag = 0x4D4F44454Cull;     // "MODEL"
constexpr std::uint64_t kBiasTag = 0x42494153ull;        // "BIAS"
constexpr std::uint64_t kProposalTag = 0x50524F50ull;    // "PROP"
constexpr std::uint64_t kResampleTag = 0x52455341ull;    // "RESA"
constexpr std::uint64_t kTemperTag = 0x54454D50ull;      // "TEMP"
constexpr std::uint64_t kRejuvProposalTag = 0x524A5052ull;  // "RJPR"
constexpr std::uint64_t kRejuvModelTag = 0x524A4D44ull;  // "RJMD"
constexpr std::uint64_t kRejuvBiasTag = 0x524A4249ull;   // "RJBI"
constexpr std::uint64_t kRejuvAcceptTag = 0x524A4143ull; // "RJAC"

// Adaptive tempering ladder over the cached per-sim log-likelihoods: a
// pure re-weighting pass (no re-propagation). The population starts as
// every sim once; each rung raises the temperature by the largest step
// keeping the rung ESS at the target, then resamples the ancestor
// population. The final rung (phi = 1) draws the posterior sample.
void run_temper_ladder(const EnsembleBuffer& ens, const WindowSpec& spec,
                       WindowResult& result) {
  const std::size_t n_sims = ens.size();
  const double target_ess =
      spec.ess_threshold * static_cast<double>(n_sims);

  std::vector<std::uint32_t> ancestors(n_sims);
  std::iota(ancestors.begin(), ancestors.end(), 0u);
  std::vector<double> pop_ll(n_sims);
  std::vector<std::uint32_t> next(n_sims);
  ParticleSystem rung;
  double phi = 0.0;
  double log_marginal = 0.0;

  for (std::size_t stage = 1;; ++stage) {
    for (std::size_t i = 0; i < n_sims; ++i) {
      pop_ll[i] = ens.log_weight[ancestors[i]];
    }
    const double budget = 1.0 - phi;
    // The stage cap forces the last permitted rung to complete the ladder
    // whatever its ESS (the diagnostics make a forced finish visible).
    const double step = stage < spec.max_temper_stages
                            ? solve_temper_step(pop_ll, budget, target_ess)
                            : budget;

    rung.reset(n_sims);
    const std::span<double> lw = rung.log_weights();
    for (std::size_t i = 0; i < n_sims; ++i) lw[i] = step * pop_ll[i];
    rung.commit();

    SmcStage st;
    st.phi = phi + step;
    st.ess = rung.ess();
    st.log_marginal_increment = rung.log_marginal_increment();
    result.smc.stages.push_back(st);
    log_marginal += st.log_marginal_increment;
    phi += step;

    auto eng =
        rng::make_engine(spec.seed, {kTemperTag, spec.window_index, stage});
    if (phi >= 1.0 - 1e-12) {
      const std::vector<std::uint32_t> idx =
          rung.resample(spec.scheme, eng, spec.resample_size);
      result.resampled.resize(idx.size());
      for (std::size_t k = 0; k < idx.size(); ++k) {
        result.resampled[k] = ancestors[idx[k]];
      }
      result.smc.final_ess = st.ess;
      break;
    }
    const std::vector<std::uint32_t> idx =
        rung.resample(spec.scheme, eng, n_sims);
    for (std::size_t k = 0; k < n_sims; ++k) next[k] = ancestors[idx[k]];
    ancestors.swap(next);
  }
  // The ladder's product estimator replaces the single-stage evidence
  // increment: sum over rungs of log mean incremental weight.
  result.diag.log_marginal = log_marginal;
}

// Re-runs rows `rows` of `src` from their identity columns through the
// window with end-state capture into `pool` (resized to rows.size(), slot
// k for rows[k]). Counter-based streams make each replay bit-identical to
// the run that filled src's true-case row; the cheap check of that
// invariant (the full property is covered in tests/) throws
// std::logic_error naming `what` and the row.
void replay_with_capture(const Simulator& sim, const StatePool& parents,
                         std::int32_t to_day, const EnsembleBuffer& src,
                         std::span<const std::uint32_t> rows, StatePool& pool,
                         const char* what) {
  EnsembleBuffer replay(rows.size(), src.window_len());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    replay.copy_row(k, src, rows[k]);
  }
  pool.resize(rows.size());
  BatchSink sink;
  sink.capture = &pool;
  sim.run_batch(parents, to_day, replay, 0, rows.size(), sink);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::span<const double> a = replay.true_cases(k);
    const std::span<const double> b = src.true_cases(rows[k]);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      throw std::logic_error(std::string(what) +
                             ": non-deterministic replay of row " +
                             std::to_string(rows[k]) +
                             "; stream discipline violated");
    }
  }
}

// PMMH-style rejuvenation of the final posterior draws: each draw
// receives an independence MH proposal from the window's own proposal
// distribution (fresh (theta, rho, parent) plus a fresh model stream), so
// the proposal density cancels and the acceptance ratio is exactly the
// window-likelihood ratio. Accepted draws adopt the proposal's
// parameters, output series and -- via a capture replay of the winning
// identities -- end-of-window state.
// `full_ll`, when non-empty, supplies the full-window log-likelihood per
// sim: the streaming driver's ensemble log-weight column only covers the
// tail after a mid-window resample, but the MH acceptance ratio needs the
// whole window on both sides.
//
// Early rejection: a proposal is accepted iff log u < ll - cur_ll, with u
// drawn from its own engine. When every day's likelihood term is <= 0
// (ObservationCache::nonpositive_day_terms) the running day-ordered score
// can only fall, so the proposal stops on the first day where
// running - cur_ll <= log u (BatchSink::on_day) -- it could not be
// accepted any more. The stop is exact at the scalar dispatch level: there
// the cached window score is the same left-to-right sum of the same terms,
// so each rounded partial sum bounds the final one from above, and the
// sum of the case and death scores and the subtraction are monotone too.
// Vector levels accumulate in lanes and regroup the terms, so their window
// score is not bounded by the running one to the last ulp; they do not
// stop. Proposals that run to the end are scored by the unchanged
// whole-window on_sim, so every accepted value is the full evaluation's.
void run_rejuvenation(const detail::WindowPosteriorInputs& in,
                      WindowResult& result) {
  const WindowSpec& spec = in.spec;
  const std::span<const double> full_ll = in.rejuvenation_loglik;
  const EnsembleBuffer& ens = result.ensemble;
  const std::size_t n_draws = result.resampled.size();
  const std::size_t window_len = result.window_length();

  RejuvenatedDraws overlay;
  overlay.moved.assign(n_draws, 0);
  overlay.theta.resize(n_draws);
  overlay.rho.resize(n_draws);
  overlay.state_slot.assign(n_draws, WindowResult::kNoState);
  // Accepted particles (identity columns and series) land in a full-width
  // scratch first (a draw can move again in a later round); only the moved
  // rows are compacted into the overlay that the window result retains.
  EnsembleBuffer scratch(n_draws, window_len);

  // Window log-likelihood of each draw's current particle.
  std::vector<double> cur_ll(n_draws);
  for (std::size_t i = 0; i < n_draws; ++i) {
    const std::uint32_t s = result.resampled[i];
    overlay.theta[i] = ens.theta[s];
    overlay.rho[i] = ens.rho[s];
    overlay.state_slot[i] = result.sim_to_state[s];
    cur_ll[i] = full_ll.empty() ? ens.log_weight[s] : full_ll[s];
  }

  const bool early_reject =
      in.case_cache.nonpositive_day_terms &&
      in.observed_cases.size() == window_len &&
      (!spec.use_deaths || (in.death_cache.nonpositive_day_terms &&
                            in.observed_deaths.size() == window_len)) &&
      simd::active().level == simd::SimdLevel::kScalar;
  // One-day observation caches, as the streaming ingest scores them.
  std::vector<ObservationCache> case_days;
  std::vector<ObservationCache> death_days;
  if (early_reject) {
    for (std::size_t k = 0; k < window_len; ++k) {
      case_days.push_back(
          in.case_likelihood.prepare(in.observed_cases.subspan(k, 1)));
      if (spec.use_deaths) {
        death_days.push_back(
            in.death_likelihood.prepare(in.observed_deaths.subspan(k, 1)));
      }
    }
  }
  // Per-draw running state of the day-by-day score; each sim of the
  // parallel sweep touches only its own slot.
  std::vector<double> log_u(n_draws);
  std::vector<rng::PhiloxEngine> day_bias(early_reject ? n_draws : 0);
  std::vector<double> run_case(early_reject ? n_draws : 0);
  std::vector<double> run_death(early_reject ? n_draws : 0);

  EnsembleBuffer prop(n_draws, window_len);
  for (std::uint64_t round = 1; round <= spec.rejuvenation_moves; ++round) {
    for (std::size_t i = 0; i < n_draws; ++i) {
      auto peng = rng::make_engine(
          spec.seed, {kRejuvProposalTag, spec.window_index, round, i});
      // Uniform mixture over the window's per-draw proposal components:
      // exactly the distribution the original cloud was drawn from, which
      // is what makes the MH ratio collapse to the likelihood ratio.
      const auto j =
          static_cast<std::uint32_t>(rng::uniform_int(peng, spec.n_params));
      const ProposedParams pp = in.propose(peng, j);
      if (pp.parent >= in.parents.size()) {
        throw std::out_of_range("run_rejuvenation: bad parent index");
      }
      prop.param_index[i] = static_cast<std::uint32_t>(i);
      prop.replicate[i] = static_cast<std::uint32_t>(round);
      prop.parent[i] = pp.parent;
      prop.theta[i] = pp.theta;
      prop.rho[i] = pp.rho;
      prop.seed[i] = spec.seed;
      prop.stream[i] =
          rng::make_stream_id({kRejuvModelTag, spec.window_index, round, i})
              .key;
      auto aeng = rng::make_engine(
          spec.seed, {kRejuvAcceptTag, spec.window_index, round, i});
      log_u[i] = std::log(rng::uniform_double_oo(aeng));
      if (early_reject) {
        day_bias[i] = rng::make_engine(
            spec.seed, {kRejuvBiasTag, spec.window_index, round, i});
        run_case[i] = 0.0;
        run_death[i] = 0.0;
      }
    }
    BatchSink sink;
    sink.on_sim = [&](std::size_t i) {
      auto beng = rng::make_engine(
          spec.seed, {kRejuvBiasTag, spec.window_index, round, i});
      in.bias.apply_into(beng, prop.true_cases(i), prop.rho[i],
                         prop.obs_cases(i));
      double ll = in.case_likelihood.logpdf(in.case_cache, prop.obs_cases(i));
      if (spec.use_deaths) {
        ll += in.death_likelihood.logpdf(in.death_cache, prop.deaths(i));
      }
      prop.log_weight[i] = ll;
    };
    if (early_reject) {
      sink.on_day = [&](std::size_t i, std::size_t days_filled) {
        const std::size_t k = days_filled - 1;
        in.bias.apply_into(day_bias[i], prop.true_cases(i).subspan(k, 1),
                           prop.rho[i], prop.obs_cases(i).subspan(k, 1));
        run_case[i] += in.case_likelihood.logpdf(
            case_days[k], prop.obs_cases(i).subspan(k, 1));
        double running = run_case[i];
        if (spec.use_deaths) {
          run_death[i] += in.death_likelihood.logpdf(
              death_days[k], prop.deaths(i).subspan(k, 1));
          running = run_case[i] + run_death[i];
        }
        if (running - cur_ll[i] <= log_u[i]) {
          prop.log_weight[i] = -std::numeric_limits<double>::infinity();
          return false;
        }
        return true;
      };
    }
    in.sim.run_batch(in.parents, spec.to_day, prop, 0, n_draws, sink);

    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n_draws; ++i) {
      if (log_u[i] < prop.log_weight[i] - cur_ll[i]) {
        overlay.moved[i] = 1;
        overlay.theta[i] = prop.theta[i];
        overlay.rho[i] = prop.rho[i];
        cur_ll[i] = prop.log_weight[i];
        scratch.copy_row(i, prop, i, window_len);
        ++accepted;
      }
    }
    result.smc.move_acceptance.push_back(
        static_cast<double>(accepted) / static_cast<double>(n_draws));
    result.smc.rejuvenation_proposed += n_draws;
    result.smc.rejuvenation_accepted += accepted;
  }

  // Capture end states for the moved draws by replaying their winning
  // identities and folding the states into the window's survivor pool.
  std::vector<std::uint32_t> moved_ids;
  for (std::size_t i = 0; i < n_draws; ++i) {
    if (overlay.moved[i]) moved_ids.push_back(static_cast<std::uint32_t>(i));
  }
  overlay.series_row.assign(n_draws, RejuvenatedDraws::kNoRow);
  overlay.series.resize(moved_ids.size(), window_len);
  for (std::size_t k = 0; k < moved_ids.size(); ++k) {
    const std::uint32_t i = moved_ids[k];
    overlay.series_row[i] = static_cast<std::uint32_t>(k);
    overlay.series.copy_row(k, scratch, i, window_len);
  }
  if (!moved_ids.empty()) {
    const std::shared_ptr<StatePool> moved_pool = in.sim.make_pool();
    replay_with_capture(in.sim, in.parents, spec.to_day, scratch, moved_ids,
                        *moved_pool, "run_rejuvenation");
    for (std::size_t k = 0; k < moved_ids.size(); ++k) {
      overlay.state_slot[moved_ids[k]] = static_cast<std::uint32_t>(
          result.state_pool->append_from(*moved_pool, k));
    }
  }
  result.rejuvenated = std::move(overlay);
}

}  // namespace

void WindowSpec::validate(const ObservedData* data) const {
  if (to_day < from_day) {
    throw std::invalid_argument(
        "WindowSpec: window [" + std::to_string(from_day) + ", " +
        std::to_string(to_day) + "] ends before it starts");
  }
  if (n_params == 0 || replicates == 0 || resample_size == 0) {
    throw std::invalid_argument("WindowSpec: zero-sized simulation budget");
  }
  if (!(ess_threshold > 0.0 && ess_threshold < 1.0)) {
    throw std::invalid_argument(
        "WindowSpec: ess_threshold must be a fraction of n_sims in (0, 1), "
        "got " + std::to_string(ess_threshold));
  }
  if (max_temper_stages == 0) {
    throw std::invalid_argument(
        "WindowSpec: max_temper_stages must be >= 1 (the ladder needs at "
        "least the final phi = 1 rung)");
  }
  if (inference == InferenceStrategy::kTemperedRejuvenate &&
      rejuvenation_moves == 0) {
    throw std::invalid_argument(
        "WindowSpec: the tempered+rejuvenate strategy needs "
        "rejuvenation_moves >= 1 (use \"tempered\" for ladder-only runs)");
  }
  if (data != nullptr) {
    if (data->first_day() > from_day || data->last_day() < to_day) {
      throw std::invalid_argument(
          "WindowSpec: observed data covers days [" +
          std::to_string(data->first_day()) + ", " +
          std::to_string(data->last_day()) + "] but the window needs [" +
          std::to_string(from_day) + ", " + std::to_string(to_day) + "]");
    }
    if (use_deaths && !data->has_deaths()) {
      throw std::invalid_argument(
          "WindowSpec: use_deaths set but the observed data has no death "
          "series");
    }
  }
}

namespace detail {

rng::PhiloxEngine proposal_engine(const WindowSpec& spec, std::uint32_t j) {
  return rng::make_engine(spec.seed, {kProposalTag, spec.window_index, j});
}

std::uint64_t model_stream_key(const WindowSpec& spec, std::uint32_t j,
                               std::uint32_t r) {
  return spec.common_random_numbers
             ? rng::make_stream_id({kModelTag, spec.window_index, r}).key
             : rng::make_stream_id({kModelTag, spec.window_index, j, r}).key;
}

rng::PhiloxEngine bias_engine(const WindowSpec& spec, std::uint32_t j,
                              std::uint32_t r) {
  return spec.common_random_numbers
             ? rng::make_engine(spec.seed, {kBiasTag, spec.window_index, r})
             : rng::make_engine(spec.seed, {kBiasTag, spec.window_index, j, r});
}

rng::PhiloxEngine resample_engine(const WindowSpec& spec) {
  return rng::make_engine(spec.seed, {kResampleTag, spec.window_index});
}

void layout_window_ensemble(const WindowSpec& spec, const StatePool& parents,
                            const ParamProposal& propose,
                            EnsembleBuffer& ens) {
  // --- 1. Draw proposals (sequential: cheap, reproducible). --------------
  std::vector<ProposedParams> params(spec.n_params);
  for (std::uint32_t j = 0; j < spec.n_params; ++j) {
    auto eng = proposal_engine(spec, j);
    params[j] = propose(eng, j);
    if (params[j].parent >= parents.size()) {
      throw std::out_of_range("run_importance_window: bad parent index");
    }
  }

  // --- 2. Lay out the ensemble: columns first, then one fused sweep. -----
  const std::size_t n_sims = spec.n_params * spec.replicates;
  if (ens.size() != n_sims) {
    throw std::invalid_argument(
        "layout_window_ensemble: buffer holds " + std::to_string(ens.size()) +
        " rows but the spec budgets " + std::to_string(n_sims) + " sims");
  }
  for (std::size_t s = 0; s < n_sims; ++s) {
    const auto j = static_cast<std::uint32_t>(s / spec.replicates);
    const auto r = static_cast<std::uint32_t>(s % spec.replicates);
    const ProposedParams& pp = params[j];
    ens.param_index[s] = j;
    ens.replicate[s] = r;
    ens.parent[s] = pp.parent;
    ens.theta[s] = pp.theta;
    ens.rho[s] = pp.rho;
    // Common random numbers: the model/bias stream identity depends only
    // on the replicate (all thetas see the same noise realization);
    // otherwise it depends on (draw, replicate).
    ens.seed[s] = spec.seed;
    ens.stream[s] = model_stream_key(spec, j, r);
  }
}

DegeneracyReport collect_degenerate(std::span<const std::uint8_t> flags) {
  DegeneracyReport report;
  for (std::size_t s = 0; s < flags.size(); ++s) {
    if (flags[s] != 0) {
      ++report.demoted;
      report.draws.push_back(static_cast<std::uint32_t>(s));
    }
  }
  return report;
}

void throw_degenerate(const std::string& where,
                      const DegeneracyReport& report) {
  std::string ids;
  const std::size_t shown = std::min<std::size_t>(report.draws.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) ids += ", ";
    ids += std::to_string(report.draws[i]);
  }
  if (report.draws.size() > shown) ids += ", ...";
  throw CalibrationError(
      where + ": " + std::to_string(report.demoted) +
      " draw(s) scored a non-finite log-likelihood (draw ids " + ids +
      ") under DegeneracyPolicy::kThrow; switch on_degenerate to "
      "'quarantine' to demote them to zero weight instead");
}

void resolve_window_posterior(const WindowPosteriorInputs& in,
                              std::shared_ptr<StatePool> capture,
                              bool inline_capture, WindowResult& result) {
  const WindowSpec& spec = in.spec;
  EnsembleBuffer& ens = result.ensemble;
  const std::size_t n_sims = ens.size();
  result.diag.inline_capture = inline_capture;

  // --- 3. Normalize weights and diagnostics: one log-sum-exp pass, owned
  // by the shared particle-system kernel (operation-for-operation the
  // historical inline code, so the single-stage path stays bit-identical).
  // The kernel commits over the ensemble's own log-weight column and the
  // normalized weights are moved out at the end -- no extra O(n_sims)
  // copies on the hot path.
  ParticleSystem ps;
  ps.commit(ens.log_weight);
  result.smc.degeneracy = in.degeneracy;
  if (!std::isfinite(ps.lse())) {
    // Every log-weight is -inf: there is no posterior to resample. Fail
    // here with the window named, instead of letting the stats layer
    // throw std::domain_error from deep inside the normalize.
    std::string msg = "calibration window " +
                      std::to_string(spec.window_index) + " (days " +
                      std::to_string(spec.from_day) + ".." +
                      std::to_string(spec.to_day) + "): all " +
                      std::to_string(n_sims) +
                      " draws carry zero posterior weight";
    if (in.degeneracy.any()) {
      msg += " (" + std::to_string(in.degeneracy.demoted) +
             " scored non-finite and were quarantined)";
    }
    msg +=
        "; widen the priors/jitter kernels or relax the likelihood -- a "
        "streaming session can instead resume from its last checkpoint";
    throw CalibrationError(msg);
  }
  result.diag.n_sims = n_sims;
  result.diag.ess = ps.ess();
  result.diag.perplexity = ps.perplexity();
  result.diag.max_weight = ps.max_weight();
  result.diag.log_marginal = ps.log_marginal_increment();

  result.smc.strategy = spec.inference;
  result.smc.ess_threshold =
      spec.inference == InferenceStrategy::kSingleStage ? 0.0
                                                        : spec.ess_threshold;
  result.smc.initial_ess = result.diag.ess;

  // --- 4. Resample the posterior: single stage, or the temper ladder when
  // an adaptive strategy sees the ESS trigger fire.
  const bool degenerate =
      spec.inference != InferenceStrategy::kSingleStage &&
      result.diag.ess < spec.ess_threshold * static_cast<double>(n_sims);
  if (degenerate) {
    result.smc.triggered = true;
    run_temper_ladder(ens, spec, result);
  } else {
    auto resample_eng = resample_engine(spec);
    result.resampled =
        ps.resample(spec.scheme, resample_eng, spec.resample_size);
    result.smc.stages.push_back(
        {1.0, result.diag.ess, result.diag.log_marginal});
    result.smc.final_ess = result.diag.ess;
  }
  result.weights = ps.take_weights();

  // --- 5. Keep end-of-window states for the unique survivors. ------------
  ParticleSystem::Survivors surv =
      ParticleSystem::survivors(result.resampled, n_sims);
  result.diag.unique_resampled = surv.unique.size();
  result.sim_to_state = std::move(surv.index_to_slot);

  parallel::Timer checkpoint_timer;
  if (inline_capture) {
    // The weighted pass already captured every candidate's end state;
    // keeping the survivors is O(survivors) pointer moves.
    capture->compact(surv.unique);
  } else {
    replay_with_capture(in.sim, in.parents, spec.to_day, ens, surv.unique,
                        *capture, "run_importance_window");
  }
  result.state_pool = std::move(capture);
  result.diag.checkpoint_seconds = checkpoint_timer.seconds();

  // --- 6. Rejuvenation moves (kTemperedRejuvenate, triggered windows
  // only): diversify the resampled duplicates with independence-MH moves
  // scored through the same fused batch kernel.
  if (spec.inference == InferenceStrategy::kTemperedRejuvenate && degenerate) {
    run_rejuvenation(in, result);
  }
}

}  // namespace detail

WindowResult run_importance_window(const Simulator& sim,
                                   const Likelihood& case_likelihood,
                                   const Likelihood& death_likelihood,
                                   const BiasModel& bias,
                                   const ObservedData& data,
                                   const StatePool& parents,
                                   const WindowSpec& spec,
                                   const ParamProposal& propose) {
  spec.validate(&data);
  if (parents.empty()) {
    throw std::invalid_argument("run_importance_window: no parent states");
  }

  WindowResult result;
  result.from_day = spec.from_day;
  result.to_day = spec.to_day;

  const std::size_t n_sims = spec.n_params * spec.replicates;
  // Parent states may sit before the window (e.g. the day-0 state for
  // window 1, so each particle owns its whole early path); the stored rows
  // and the likelihood always cover exactly [from_day, to_day].
  const std::size_t window_len =
      static_cast<std::size_t>(spec.to_day - spec.from_day + 1);
  EnsembleBuffer& ens = result.ensemble;
  ens.resize(n_sims, window_len);
  detail::layout_window_ensemble(spec, parents, propose, ens);

  const std::vector<double> y_cases =
      data.cases_window(spec.from_day, spec.to_day);
  const std::vector<double> y_deaths =
      spec.use_deaths ? data.deaths_window(spec.from_day, spec.to_day)
                      : std::vector<double>{};
  // Observation-side constants (sqrt transforms, lgamma terms) hoisted out
  // of the per-sim scoring loop; bit-identical to uncached scoring.
  const ObservationCache case_cache = case_likelihood.prepare(y_cases);
  const ObservationCache death_cache =
      spec.use_deaths ? death_likelihood.prepare(y_deaths) : ObservationCache{};

  // Capture inline when the peak transient cost of holding every
  // candidate's end state fits the budget; otherwise replay the survivors.
  const bool inline_capture =
      parents.approx_state_bytes() * n_sims <= spec.inline_state_budget;
  std::shared_ptr<StatePool> capture = sim.make_pool();
  BatchSink sink;
  if (inline_capture) {
    capture->resize(n_sims);
    sink.capture = capture.get();
  }
  // Fused per-sim tail of the sweep: reporting bias onto the observation
  // row, then the window likelihood. The bias stream is addressed by the
  // same identity as before the batching refactor, so weights are
  // bit-identical to the per-sim path.
  // Per-slot quarantine flags: on_sim runs inside the backend's parallel
  // loop, so each sim writes only its own byte (no shared mutation).
  std::vector<std::uint8_t> degenerate_flag(n_sims, 0);
  sink.on_sim = [&](std::size_t s) {
    auto bias_eng = detail::bias_engine(spec, ens.param_index[s],
                                        ens.replicate[s]);
    bias.apply_into(bias_eng, ens.true_cases(s), ens.rho[s], ens.obs_cases(s));

    double logw = case_likelihood.logpdf(case_cache, ens.obs_cases(s));
    if (spec.use_deaths) {
      logw += death_likelihood.logpdf(death_cache, ens.deaths(s));
    }
    if (detail::nonfinite_score(logw)) {
      degenerate_flag[s] = 1;
      logw = -std::numeric_limits<double>::infinity();
    }
    ens.log_weight[s] = logw;
  };

  parallel::Timer propagate_timer;
  // Propagate, bias, score and (inline) capture all n_params * replicates
  // trajectories in one batch call; the simulator backend owns the
  // parallel loop and fills the true-case / death rows in place.
  sim.run_batch(parents, spec.to_day, ens, 0, n_sims, sink);
  result.diag.propagate_seconds = propagate_timer.seconds();

  DegeneracyReport degeneracy = detail::collect_degenerate(degenerate_flag);
  if (degeneracy.any() && spec.on_degenerate == DegeneracyPolicy::kThrow) {
    detail::throw_degenerate("calibration window " +
                                 std::to_string(spec.window_index) +
                                 " (days " + std::to_string(spec.from_day) +
                                 ".." + std::to_string(spec.to_day) + ")",
                             degeneracy);
  }

  // Stages 3-6 (normalize -> strategy dispatch -> survivor states ->
  // rejuvenation) live in the shared resolver so the streaming calibrator
  // lands on the same posterior bits.
  detail::WindowPosteriorInputs inputs{
      sim,        case_likelihood, death_likelihood, bias, parents,
      spec,       propose,         case_cache,       death_cache};
  inputs.observed_cases = y_cases;
  inputs.observed_deaths = y_deaths;
  inputs.degeneracy = std::move(degeneracy);
  detail::resolve_window_posterior(inputs, std::move(capture), inline_capture,
                                   result);

  return result;
}

WindowResult run_importance_window(const Simulator& sim,
                                   const Likelihood& case_likelihood,
                                   const Likelihood& death_likelihood,
                                   const BiasModel& bias,
                                   const ObservedData& data,
                                   std::span<const epi::Checkpoint> parents,
                                   const WindowSpec& spec,
                                   const ParamProposal& propose) {
  const std::shared_ptr<StatePool> pool = sim.make_pool();
  for (const epi::Checkpoint& parent : parents) {
    pool->append_checkpoint(parent);
  }
  return run_importance_window(sim, case_likelihood, death_likelihood, bias,
                               data, *pool, spec, propose);
}

}  // namespace epismc::core
