#include "abm/agent_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "random/sampling.hpp"

namespace epismc::abm {

namespace {
// v203: engine tag, hot-household set and calendar ring (drain order is
// part of the RNG contract, so both round-trip verbatim); the household
// pressure table stays derived and is rebuilt on restore.
constexpr std::uint32_t kAbmCheckpointVersion = 203;
constexpr std::int32_t kNever = std::numeric_limits<std::int32_t>::max();
constexpr std::uint32_t kNoIndex = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kNetworkTag = 0x4E455457ull;  // "NETW"
constexpr std::size_t kHazardMemoSlots = 4096;  // power of two (mask index)
}  // namespace

std::string_view to_string(AbmEngine engine) noexcept {
  switch (engine) {
    case AbmEngine::kFast: return "fast";
    case AbmEngine::kReference: return "reference";
  }
  return "?";
}

AbmEngine engine_from_name(std::string_view name) {
  if (name == "fast") return AbmEngine::kFast;
  if (name == "reference") return AbmEngine::kReference;
  throw std::invalid_argument("unknown ABM engine '" + std::string(name) +
                              "' (expected: fast, reference)");
}

void AbmConfig::validate() const {
  disease.validate();
  if (!(mean_household_size >= 1.0 && mean_household_size <= 20.0)) {
    throw std::invalid_argument("AbmConfig: mean_household_size out of range");
  }
  if (!(household_share >= 0.0 && household_share <= 1.0)) {
    throw std::invalid_argument("AbmConfig: household_share must be in [0, 1]");
  }
  if (engine != AbmEngine::kFast && engine != AbmEngine::kReference) {
    throw std::invalid_argument("AbmConfig: unknown engine");
  }
}

AgentBasedModel::AgentBasedModel(AbmConfig config,
                                 epi::PiecewiseSchedule transmission,
                                 std::uint64_t seed, std::uint64_t stream)
    : config_(config),
      transmission_(std::move(transmission)),
      eng_(seed, stream) {
  config_.validate();
  const auto n = static_cast<std::size_t>(config_.disease.population);
  state_.assign(n, static_cast<std::uint8_t>(epi::Compartment::kS));
  next_state_.assign(n, static_cast<std::uint8_t>(epi::Compartment::kS));
  next_day_.assign(n, kNever);
  counts_[epi::index(epi::Compartment::kS)] = config_.disease.population;
  build_households();
  acquire_delay_tables();
  hh_state_.assign(household_count(), HouseholdState{});
  for (std::size_t hh = 0; hh < household_count(); ++hh) {
    hh_state_[hh].susceptible = static_cast<std::uint16_t>(
        household_offsets_[hh + 1] - household_offsets_[hh]);
  }
  hot_pos_.assign(household_count(), kNoIndex);
  rebuild_calendar();
}

void AgentBasedModel::build_households() {
  const auto n = static_cast<std::size_t>(config_.disease.population);
  household_.assign(n, 0);
  household_offsets_.clear();
  household_offsets_.push_back(0);

  // Sizes ~ 1 + Poisson(mean - 1); topology derived from network_seed only,
  // so restarts and replicas reconstruct the identical network. Members are
  // assigned consecutively: household hh holds exactly the agents
  // [offsets[hh], offsets[hh+1]).
  auto net_eng = rng::PhiloxEngine(config_.network_seed, kNetworkTag);
  std::size_t assigned = 0;
  std::uint32_t hh = 0;
  while (assigned < n) {
    const auto size = static_cast<std::size_t>(
        1 + rng::poisson(net_eng, config_.mean_household_size - 1.0));
    const std::size_t take = std::min(size, n - assigned);
    for (std::size_t k = 0; k < take; ++k) {
      household_[assigned] = hh;
      ++assigned;
    }
    household_offsets_.push_back(static_cast<std::uint32_t>(assigned));
    ++hh;
  }
}

void AgentBasedModel::acquire_delay_tables() {
  const auto& p = config_.disease;
  const int k = p.erlang_shape;
  const int md = p.max_delay;
  auto tables = std::make_shared<epi::DelayTables>();
  tables->latent = epi::DelayDistribution(p.latent_period, k, md);
  tables->presym = epi::DelayDistribution(p.presymptomatic_period, k, md);
  tables->asym = epi::DelayDistribution(p.asymptomatic_period, k, md);
  tables->mild = epi::DelayDistribution(p.mild_period, k, md);
  tables->severe = epi::DelayDistribution(p.severe_period, k, md);
  tables->hosp = epi::DelayDistribution(p.hospital_period, k, md);
  tables->hosp_icu = epi::DelayDistribution(p.hospital_to_icu, k, md);
  tables->icu = epi::DelayDistribution(p.icu_period, k, md);
  tables->posticu = epi::DelayDistribution(p.post_icu_period, k, md);
  delays_ = std::move(tables);
}

void AgentBasedModel::rebuild_population_index() {
  const std::size_t n = state_.size();
  // Household pressure classes are derived: one scan of the state array.
  hh_state_.assign(household_count(), HouseholdState{});
  std::size_t hot_count = 0;
  for (std::size_t a = 0; a < n; ++a) {
    const auto c = static_cast<epi::Compartment>(state_[a]);
    if (c == epi::Compartment::kS) {
      hh_state_[household_[a]].susceptible += 1;
      continue;
    }
    const int cls = epi::infectiousness_class(c);
    if (cls < 0) continue;
    HouseholdState& hs = hh_state_[household_[a]];
    hs.cls[static_cast<std::size_t>(cls)] += 1;
    if (hs.infectious++ == 0) ++hot_count;
  }
  // The hot set itself comes from the archive (its order is drained
  // verbatim by the fast engine); check it against the derived counts.
  hot_pos_.assign(household_count(), kNoIndex);
  if (hot_households_.size() != hot_count) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kCorrupt,
        "AgentBasedModel::restore: hot-household set does not match state");
  }
  for (std::size_t i = 0; i < hot_households_.size(); ++i) {
    const std::uint32_t hh = hot_households_[i];
    if (hh >= household_count() || hot_pos_[hh] != kNoIndex ||
        hh_state_[hh].infectious == 0) {
      throw io::ArchiveError(
          io::ArchiveErrorKind::kCorrupt,
          "AgentBasedModel::restore: corrupt hot-household set");
    }
    hot_pos_[hh] = static_cast<std::uint32_t>(i);
  }
}

std::size_t AgentBasedModel::calendar_length() const noexcept {
  // Sized past the longest schedulable delay (sojourn draws are truncated
  // at max_delay; detection takes detection_delay) so a push during the
  // drain of today's bucket can never wrap into that same bucket.
  return static_cast<std::size_t>(
      std::max(config_.disease.max_delay, config_.disease.detection_delay) + 2);
}

void AgentBasedModel::validate_restored_calendar() const {
  if (ring_.size() != calendar_length()) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kCorrupt,
        "AgentBasedModel::restore: calendar ring length does not match the "
        "disease parameters");
  }
  for (const auto& bucket : ring_) {
    for (const std::uint32_t a : bucket) {
      if (a >= state_.size()) {
        throw io::ArchiveError(
            io::ArchiveErrorKind::kCorrupt,
            "AgentBasedModel::restore: calendar entry out of range");
      }
    }
  }
}

void AgentBasedModel::rebuild_calendar() {
  ring_.assign(calendar_length(), {});
  if (config_.engine != AbmEngine::kFast) return;
  for (std::size_t a = 0; a < next_day_.size(); ++a) {
    if (next_day_[a] != kNever) {
      ring_[ring_slot(next_day_[a])].push_back(static_cast<std::uint32_t>(a));
    }
  }
}

void AgentBasedModel::set_engine(AbmEngine engine) {
  if (engine != AbmEngine::kFast && engine != AbmEngine::kReference) {
    throw std::invalid_argument("AgentBasedModel::set_engine: unknown engine");
  }
  if (engine == config_.engine) return;
  config_.engine = engine;
  rebuild_calendar();
}

double AgentBasedModel::weight_of(epi::Compartment c) const noexcept {
  return epi::infectiousness_weight(
      c, config_.disease.asymptomatic_infectiousness,
      config_.disease.detected_infectiousness);
}

double AgentBasedModel::effective_infectious() const noexcept {
  double w = 0.0;
  for (std::size_t c = 0; c < epi::kCompartmentCount; ++c) {
    w += weight_of(static_cast<epi::Compartment>(c)) *
         static_cast<double>(counts_[c]);
  }
  return w;
}

void AgentBasedModel::exit_compartment(std::size_t a, epi::Compartment c) {
  counts_[epi::index(c)] -= 1;
  const int cls = epi::infectiousness_class(c);
  if (cls < 0) return;
  const std::uint32_t hh = household_[a];
  HouseholdState& hs = hh_state_[hh];
  hs.cls[static_cast<std::size_t>(cls)] -= 1;
  if (--hs.infectious == 0) {
    // Swap-pop the household out of the hot set.
    const std::uint32_t pos = hot_pos_[hh];
    const std::uint32_t last = hot_households_.back();
    hot_households_[pos] = last;
    hot_pos_[last] = pos;
    hot_households_.pop_back();
    hot_pos_[hh] = kNoIndex;
  }
}

void AgentBasedModel::infect(std::size_t a) {
  counts_[epi::index(epi::Compartment::kS)] -= 1;
  hh_state_[household_[a]].susceptible -= 1;
  enter(a, epi::Compartment::kE);
}

void AgentBasedModel::infect_random_susceptibles(std::int64_t k, bool record) {
  if (k <= 0) return;
  const std::int64_t s_count = counts_[epi::index(epi::Compartment::kS)];
  const auto n = static_cast<std::uint64_t>(state_.size());
  // Branch on expected rejection work, not on how scarce susceptibles are
  // relative to the population: the i-th pick expects n/(S-i) draws, so
  // the whole call expects at most k*n/(S-k+1) -- with S >= 5k that is
  // <= n/4, a quarter of what the scan path costs. Late-epidemic days
  // with small k therefore stay O(k * n/S) instead of degrading to a full
  // O(population) scan; only draws that consume a sizable share of the
  // remaining pool (seeding, epidemic blow-ups) pay for the index build.
  if (s_count >= 5 * k) {
    // Rejection over agent ids. Infecting as we go moves victims out of
    // kS, so duplicates reject themselves and each accepted pick is
    // uniform over the susceptibles remaining -- exactly a uniform
    // k-subset.
    for (std::int64_t i = 0; i < k; ++i) {
      std::size_t a;
      do {
        a = static_cast<std::size_t>(rng::uniform_int(eng_, n));
      } while (static_cast<epi::Compartment>(state_[a]) !=
               epi::Compartment::kS);
      infect(a);
      if (record) today_new_infections_ += 1;
    }
    return;
  }
  // Scarce susceptibles (the regime where accept/reject degenerates):
  // one sequential scan builds the susceptible index, a partial
  // Fisher-Yates picks the k victims. infect() never touches the scratch
  // index, so the picked prefix can be consumed in place.
  scratch_susceptibles_.clear();
  for (std::size_t a = 0; a < state_.size(); ++a) {
    if (static_cast<epi::Compartment>(state_[a]) == epi::Compartment::kS) {
      scratch_susceptibles_.push_back(static_cast<std::uint32_t>(a));
    }
  }
  rng::partial_fisher_yates(
      eng_, std::span<std::uint32_t>(scratch_susceptibles_),
      static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    infect(scratch_susceptibles_[static_cast<std::size_t>(i)]);
    if (record) today_new_infections_ += 1;
  }
}

void AgentBasedModel::enter(std::size_t a, epi::Compartment c) {
  using C = epi::Compartment;
  const epi::DiseaseParameters& p = config_.disease;
  state_[a] = static_cast<std::uint8_t>(c);
  counts_[epi::index(c)] += 1;
  if (c == C::kDu || c == C::kDd) today_new_deaths_ += 1;
  const int cls = epi::infectiousness_class(c);
  if (cls >= 0) {
    const std::uint32_t hh = household_[a];
    HouseholdState& hs = hh_state_[hh];
    hs.cls[static_cast<std::size_t>(cls)] += 1;
    if (hs.infectious++ == 0) {
      hot_pos_[hh] = static_cast<std::uint32_t>(hot_households_.size());
      hot_households_.push_back(hh);
    }
  }

  const auto go = [&](C to, int delay) {
    next_state_[a] = static_cast<std::uint8_t>(to);
    next_day_[a] = day_ + std::max(delay, 1);
  };
  const auto terminal = [&] { next_day_[a] = kNever; };

  switch (c) {
    case C::kE:
      go(rng::bernoulli(eng_, p.fraction_symptomatic) ? C::kPu : C::kAu,
         delays_->latent.sample_one(eng_));
      break;
    case C::kAu:
      if (rng::bernoulli(eng_, p.detect_asymptomatic)) {
        go(C::kAd, p.detection_delay);
      } else {
        go(C::kRu, delays_->asym.sample_one(eng_));
      }
      break;
    case C::kAd:
      go(C::kRd, delays_->asym.sample_one(eng_));
      break;
    case C::kPu:
      if (rng::bernoulli(eng_, p.detect_presymptomatic)) {
        go(C::kPd, p.detection_delay);
      } else {
        go(rng::bernoulli(eng_, p.fraction_mild) ? C::kSmU : C::kSsU,
           delays_->presym.sample_one(eng_));
      }
      break;
    case C::kPd:
      go(rng::bernoulli(eng_, p.fraction_mild) ? C::kSmD : C::kSsD,
         delays_->presym.sample_one(eng_));
      break;
    case C::kSmU:
      if (rng::bernoulli(eng_, p.detect_mild)) {
        go(C::kSmD, p.detection_delay);
      } else {
        go(C::kRu, delays_->mild.sample_one(eng_));
      }
      break;
    case C::kSmD:
      go(C::kRd, delays_->mild.sample_one(eng_));
      break;
    case C::kSsU:
      if (rng::bernoulli(eng_, p.detect_severe)) {
        go(C::kSsD, p.detection_delay);
      } else {
        go(C::kHu, delays_->severe.sample_one(eng_));
      }
      break;
    case C::kSsD:
      go(C::kHd, delays_->severe.sample_one(eng_));
      break;
    case C::kHu:
    case C::kHd: {
      const bool undetected = c == C::kHu;
      if (rng::bernoulli(eng_, p.fraction_critical)) {
        go(undetected ? C::kCu : C::kCd, delays_->hosp_icu.sample_one(eng_));
      } else {
        go(undetected ? C::kRu : C::kRd, delays_->hosp.sample_one(eng_));
      }
      break;
    }
    case C::kCu:
    case C::kCd: {
      const bool undetected = c == C::kCu;
      if (rng::bernoulli(eng_, p.fraction_death)) {
        go(undetected ? C::kDu : C::kDd, delays_->icu.sample_one(eng_));
      } else {
        go(undetected ? C::kHpU : C::kHpD, delays_->icu.sample_one(eng_));
      }
      break;
    }
    case C::kHpU:
      go(C::kRu, delays_->posticu.sample_one(eng_));
      break;
    case C::kHpD:
      go(C::kRd, delays_->posticu.sample_one(eng_));
      break;
    default:
      terminal();
      break;
  }

  if (config_.engine == AbmEngine::kFast && next_day_[a] != kNever) {
    ring_[ring_slot(next_day_[a])].push_back(static_cast<std::uint32_t>(a));
  }
}

void AgentBasedModel::seed_exposed(std::int64_t n) {
  if (n < 0 || n > counts_[epi::index(epi::Compartment::kS)]) {
    throw std::invalid_argument("seed_exposed: count exceeds susceptibles");
  }
  infect_random_susceptibles(n, /*record=*/false);
}

void AgentBasedModel::step() {
  ++day_;
  today_new_infections_ = 0;
  today_new_detected_ = 0;
  today_new_deaths_ = 0;
  if (config_.engine == AbmEngine::kFast) {
    step_transitions_fast();
    step_infections_fast();
  } else {
    step_transitions_reference();
    step_infections_reference();
  }
  record_day();
}

void AgentBasedModel::step_transitions_reference() {
  using C = epi::Compartment;
  for (std::size_t a = 0; a < state_.size(); ++a) {
    if (next_day_[a] != day_) continue;
    const auto from = static_cast<C>(state_[a]);
    const auto to = static_cast<C>(next_state_[a]);
    exit_compartment(a, from);
    if (!epi::is_detected(from) && epi::is_detected(to)) {
      today_new_detected_ += 1;
    }
    enter(a, to);
  }
}

void AgentBasedModel::step_infections_reference() {
  // Two-level mixing, per-agent: community pressure is homogeneous;
  // household pressure is the infectiousness inside the agent's household
  // normalized by household size. One bernoulli per susceptible per day --
  // O(population), the cost profile the fast engine exists to avoid.
  using C = epi::Compartment;
  const double w_comm = effective_infectious();
  if (w_comm <= 0.0) return;
  std::vector<double> hh_weight(household_count(), 0.0);
  for (std::size_t a = 0; a < state_.size(); ++a) {
    const double w = weight_of(static_cast<C>(state_[a]));
    if (w > 0.0) hh_weight[household_[a]] += w;
  }
  const double theta = transmission_.value_at(day_);
  const double share = config_.household_share;
  const double comm_hazard = theta * (1.0 - share) * w_comm /
                             static_cast<double>(config_.disease.population);
  const double p_comm = 1.0 - std::exp(-comm_hazard);
  for (std::size_t a = 0; a < state_.size(); ++a) {
    if (static_cast<C>(state_[a]) != C::kS) continue;
    const std::uint32_t hh = household_[a];
    double p_inf = p_comm;
    if (hh_weight[hh] > 0.0) {
      const double size = household_offsets_[hh + 1] - household_offsets_[hh];
      const double hazard = comm_hazard + theta * share * hh_weight[hh] / size;
      p_inf = 1.0 - std::exp(-hazard);
    }
    if (rng::uniform_double(eng_) < p_inf) {
      infect(a);
      today_new_infections_ += 1;
    }
  }
}

void AgentBasedModel::step_transitions_fast() {
  using C = epi::Compartment;
  auto& bucket = ring_[ring_slot(day_)];
  // Bucket entries drain in scheduling order. That order is part of the
  // serialized state (the checkpoint stores the ring verbatim), so resume
  // replays bit-identically without a per-day canonicalizing sort -- at
  // epidemic peak the sort, not the epidemiology, dominated the step.
  for (const std::uint32_t a : bucket) {
    if (next_day_[a] != day_) continue;  // defensive; entries are never stale
    const auto from = static_cast<C>(state_[a]);
    const auto to = static_cast<C>(next_state_[a]);
    exit_compartment(a, from);
    if (!epi::is_detected(from) && epi::is_detected(to)) {
      today_new_detected_ += 1;
    }
    enter(a, to);
  }
  bucket.clear();
}

void AgentBasedModel::step_infections_fast() {
  using C = epi::Compartment;
  const double w_comm = effective_infectious();
  if (w_comm <= 0.0) return;
  const double theta = transmission_.value_at(day_);
  const double share = config_.household_share;
  const double comm_hazard = theta * (1.0 - share) * w_comm /
                             static_cast<double>(config_.disease.population);
  const double p_comm = 1.0 - std::exp(-comm_hazard);

  // The reference engine draws one bernoulli per susceptible with the
  // combined hazard 1 - exp(-(comm + hh)). Hazards factorize --
  // 1 - exp(-(a+b)) = 1 - (1-p_a)(1-p_b) -- so infection decomposes into
  // two independent events per agent: a homogeneous community event
  // (probability p_comm for *every* susceptible) and, for members of
  // households with infectious pressure, a household event. The decomposed
  // process samples the identical distribution while letting each part use
  // the cheapest mechanism available.

  // Community: every susceptible shares p_comm, so the day's community
  // infection count is one aggregated Binomial(S, p_comm) draw (O(1) via
  // BTPE) and the victims a uniform k-subset pick -- O(k) expected, not
  // O(population).
  infect_random_susceptibles(
      rng::binomial(eng_,
                    counts_[epi::index(epi::Compartment::kS)], p_comm),
      /*record=*/true);

  // Household pass: per-agent bernoullis survive only for susceptibles in
  // "hot" households (infectious pressure > 0). Iterating the live hot set
  // is safe -- infections create exposed (non-infectious) agents, so the
  // set cannot mutate under the loop -- and its order is part of the
  // serialized state, so no per-day canonicalizing sort is needed for
  // checkpoint exactness. Agents the community draw already infected are
  // no longer kS and are skipped, exactly the OR-combination above.
  const auto class_weights = epi::infectiousness_class_weights(
      config_.disease.asymptomatic_infectiousness,
      config_.disease.detected_infectiousness);
  if (hazard_memo_.empty()) hazard_memo_.resize(kHazardMemoSlots);
  const auto household_probability = [&](const HouseholdState& hs,
                                         std::uint32_t size) -> double {
    std::uint32_t packed = 0;
    static_assert(sizeof(hs.cls) == sizeof(packed));
    std::memcpy(&packed, hs.cls.data(), sizeof(packed));
    const std::uint64_t key =
        packed | (static_cast<std::uint64_t>(size) << 32);
    HazardMemo& memo = hazard_memo_[
        (key * 0x9E3779B97F4A7C15ull) >> 52];  // top bits index 4096 slots
    if (memo.day == day_ && memo.key == key) return memo.p_hh;
    double pressure = 0.0;
    for (std::size_t cls = 0; cls < class_weights.size(); ++cls) {
      pressure += class_weights[cls] * static_cast<double>(hs.cls[cls]);
    }
    const double p_hh =
        pressure > 0.0
            ? 1.0 - std::exp(-theta * share * pressure /
                             static_cast<double>(size))
            : 0.0;
    memo = {key, day_, p_hh};
    return p_hh;
  };
  const auto visit_household = [&](std::uint32_t hh) {
    const HouseholdState& hs = hh_state_[hh];
    // Saturated households (no susceptible members left) are common late
    // in an epidemic; skip them before touching pressure or exp().
    if (hs.susceptible == 0) return;
    const std::uint32_t begin = household_offsets_[hh];
    const std::uint32_t end = household_offsets_[hh + 1];
    const double p_hh = household_probability(hs, end - begin);
    if (p_hh <= 0.0) return;  // zero-weight classes: community only
    for (std::uint32_t a = begin; a < end; ++a) {
      if (static_cast<C>(state_[a]) != C::kS) continue;
      if (rng::bernoulli(eng_, p_hh)) {
        infect(a);
        today_new_infections_ += 1;
      }
    }
  };
  // Small hot sets walk the (insertion-ordered, serialized) list: cost is
  // O(hot households), independent of population. Once the hot set covers
  // a sizable share of all households, an ascending full scan wins -- the
  // list's scattered order costs a cache miss per household, while the
  // scan streams the household-state/offset/agent arrays in memory order.
  // The switch depends only on serialized state, so replays stay bit-exact.
  if (hot_households_.size() * 16 >= household_count()) {
    for (std::uint32_t hh = 0; hh < household_count(); ++hh) {
      if (hh_state_[hh].infectious != 0) visit_household(hh);
    }
  } else {
    for (const std::uint32_t hh : hot_households_) visit_household(hh);
  }
}

void AgentBasedModel::record_day() {
  using C = epi::Compartment;
  epi::DailyRecord rec;
  rec.day = day_;
  rec.new_infections = today_new_infections_;
  rec.new_detected_cases = today_new_detected_;
  rec.new_deaths = today_new_deaths_;
  rec.hospital_census = count(C::kHu) + count(C::kHd) + count(C::kHpU) +
                        count(C::kHpD);
  rec.icu_census = count(C::kCu) + count(C::kCd);
  double infectious = 0.0;
  for (std::size_t c = 0; c < epi::kCompartmentCount; ++c) {
    if (epi::is_infectious(static_cast<C>(c))) {
      infectious += static_cast<double>(counts_[c]);
    }
  }
  rec.infectious_census = static_cast<std::int64_t>(infectious);
  rec.susceptible = count(C::kS);
  trajectory_.append(rec);
}

void AgentBasedModel::run_until_day(std::int32_t day) {
  if (day < day_) {
    throw std::invalid_argument("run_until_day: target is in the past");
  }
  while (day_ < day) step();
}

std::int64_t AgentBasedModel::total_individuals() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : counts_) total += c;
  return total;
}

epi::Checkpoint AgentBasedModel::make_checkpoint() const {
  io::BinaryWriter out(kAbmCheckpointVersion);
  config_.disease.serialize(out);
  out.write(config_.mean_household_size);
  out.write(config_.household_share);
  out.write(config_.network_seed);
  out.write(static_cast<std::uint8_t>(config_.engine));
  transmission_.serialize(out);
  out.write(day_);
  out.write(counts_);
  out.write_vector(state_);
  out.write_vector(next_state_);
  out.write_vector(next_day_);
  // Hot-set and calendar order are part of the RNG contract (the fast
  // engine drains them in stored order, sort-free), so both round-trip
  // verbatim; household *contents* (class counts) stay derived.
  out.write_vector(hot_households_);
  out.write(static_cast<std::uint32_t>(ring_.size()));
  for (const auto& bucket : ring_) out.write_vector(bucket);
  out.write(eng_.seed_value());
  out.write(eng_.stream_value());
  out.write(eng_.position());
  trajectory_.serialize(out);

  epi::Checkpoint ckpt;
  ckpt.bytes = out.bytes();
  ckpt.day = day_;
  return ckpt;
}

AgentBasedModel AgentBasedModel::restore(const epi::Checkpoint& ckpt,
                                         const epi::RestartOverrides& ovr) {
  io::BinaryReader in{ckpt.bytes};
  if (in.version() != kAbmCheckpointVersion) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kVersion,
        "AgentBasedModel::restore: unsupported checkpoint version");
  }
  constexpr const char* kWho = "AgentBasedModel::restore";
  AgentBasedModel m;
  m.config_.disease = epi::detail::read_archived_parameters(in, kWho);
  m.config_.mean_household_size = in.read<double>();
  m.config_.household_share = in.read<double>();
  // Bad archived fields are a property of the bytes (kCorrupt); a bad
  // override below stays the caller's std::invalid_argument.
  try {
    m.config_.validate();
  } catch (const std::invalid_argument& e) {
    throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                           std::string(kWho) + ": archived " + e.what());
  }
  m.config_.network_seed = in.read<std::uint64_t>();
  const auto engine_tag = in.read<std::uint8_t>();
  if (engine_tag > static_cast<std::uint8_t>(AbmEngine::kReference)) {
    throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                           "AgentBasedModel::restore: unknown engine tag");
  }
  m.config_.engine = static_cast<AbmEngine>(engine_tag);
  m.transmission_ = epi::PiecewiseSchedule::deserialize(in);
  m.day_ = in.read<std::int32_t>();
  m.counts_ = in.read<epi::Census>();
  epi::detail::check_archived_census(m.counts_, m.config_.disease.population,
                                     kWho);
  m.state_ = in.read_vector<std::uint8_t>();
  m.next_state_ = in.read_vector<std::uint8_t>();
  m.next_day_ = in.read_vector<std::int32_t>();
  m.hot_households_ = in.read_vector<std::uint32_t>();
  // Each calendar bucket holds at least its vector length.
  m.ring_.resize(in.read_count<std::uint32_t>(sizeof(std::uint64_t)));
  for (auto& bucket : m.ring_) bucket = in.read_vector<std::uint32_t>();
  const auto seed = in.read<std::uint64_t>();
  const auto stream = in.read<std::uint64_t>();
  const auto position = in.read<std::uint64_t>();
  m.trajectory_ = epi::Trajectory::deserialize(in);

  if (ovr.reseeds()) {
    m.eng_.reseed(ovr.seed.value_or(seed), ovr.stream.value_or(stream));
  } else {
    m.eng_.reseed(seed, stream);
    m.eng_.set_position(position);
  }
  if (ovr.fraction_symptomatic) {
    m.config_.disease.fraction_symptomatic = *ovr.fraction_symptomatic;
  }
  if (ovr.fraction_mild) m.config_.disease.fraction_mild = *ovr.fraction_mild;
  if (ovr.asymptomatic_infectiousness) {
    m.config_.disease.asymptomatic_infectiousness =
        *ovr.asymptomatic_infectiousness;
  }
  if (ovr.detected_infectiousness) {
    m.config_.disease.detected_infectiousness = *ovr.detected_infectiousness;
  }
  if (ovr.transmission_rate) {
    m.transmission_.override_from(m.day_ + 1, *ovr.transmission_rate);
  }
  m.config_.validate();
  m.build_households();
  m.acquire_delay_tables();
  m.rebuild_population_index();
  m.validate_restored_calendar();
  return m;
}

}  // namespace epismc::abm
