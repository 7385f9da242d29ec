#include "epi/seir_model.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace epismc::epi {

namespace {
constexpr std::uint32_t kCheckpointVersion = 3;  // v3: padding-free params/trajectory layout
}

// ---------------------------------------------------------------------------
// Checkpoint file I/O.
// ---------------------------------------------------------------------------

void Checkpoint::save(const std::filesystem::path& path) const {
  io::BinaryWriter out(kCheckpointVersion);
  out.write(day);
  out.write_vector(bytes);
  out.save(path);
}

Checkpoint Checkpoint::load(const std::filesystem::path& path) {
  io::BinaryReader in = io::BinaryReader::load(path);
  Checkpoint ckpt;
  ckpt.day = in.read<std::int32_t>();
  ckpt.bytes = in.read_vector<std::byte>();
  return ckpt;
}

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

SeirModel::SeirModel(DiseaseParameters params, PiecewiseSchedule transmission,
                     std::uint64_t seed, std::uint64_t stream)
    : params_(params),
      transmission_(std::move(transmission)),
      eng_(seed, stream) {
  params_.validate();
  counts_[index(Compartment::kS)] = params_.population;
  acquire_delay_tables();
  init_event_ring();
}

namespace {

/// Cache key over the fields the delay tables depend on.
struct DelayKey {
  double durations[9];
  int shape;
  int max_delay;

  friend bool operator==(const DelayKey& a, const DelayKey& b) {
    for (int i = 0; i < 9; ++i) {
      if (a.durations[i] != b.durations[i]) return false;
    }
    return a.shape == b.shape && a.max_delay == b.max_delay;
  }
};

DelayKey make_delay_key(const DiseaseParameters& p) {
  return DelayKey{{p.latent_period, p.presymptomatic_period,
                   p.asymptomatic_period, p.mild_period, p.severe_period,
                   p.hospital_period, p.hospital_to_icu, p.icu_period,
                   p.post_icu_period},
                  p.erlang_shape,
                  p.max_delay};
}

}  // namespace

void SeirModel::acquire_delay_tables() {
  // One-entry thread-local cache: particle loops restore thousands of
  // models with identical durations, so the hit rate is ~100%.
  thread_local DelayKey cached_key{};
  thread_local std::shared_ptr<const DelayTables> cached_tables;

  const DelayKey key = make_delay_key(params_);
  if (cached_tables && cached_key == key) {
    delays_ = cached_tables;
    return;
  }
  const int k = params_.erlang_shape;
  const int md = params_.max_delay;
  auto tables = std::make_shared<DelayTables>();
  tables->latent = DelayDistribution(params_.latent_period, k, md);
  tables->presym = DelayDistribution(params_.presymptomatic_period, k, md);
  tables->asym = DelayDistribution(params_.asymptomatic_period, k, md);
  tables->mild = DelayDistribution(params_.mild_period, k, md);
  tables->severe = DelayDistribution(params_.severe_period, k, md);
  tables->hosp = DelayDistribution(params_.hospital_period, k, md);
  tables->hosp_icu = DelayDistribution(params_.hospital_to_icu, k, md);
  tables->icu = DelayDistribution(params_.icu_period, k, md);
  tables->posticu = DelayDistribution(params_.post_icu_period, k, md);
  cached_key = key;
  cached_tables = tables;
  delays_ = std::move(tables);
}

void SeirModel::init_event_ring() {
  // Largest scheduling offset is max(max_delay, detection_delay); +2 keeps
  // slot(day) distinct from every reachable future slot.
  const auto horizon = static_cast<std::size_t>(
      std::max(params_.max_delay, params_.detection_delay));
  ring_.assign(horizon + 2, EventSlot{});
}

// ---------------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------------

void SeirModel::schedule(std::int32_t due_day, Compartment from,
                         Compartment to, std::int64_t count) {
  if (count <= 0) return;
  assert(due_day > day_ && "events must be strictly in the future");
  assert(static_cast<std::size_t>(due_day - day_) < ring_.size() &&
         "event beyond the ring horizon");
  const int edge = edge_index(from, to);
  assert(edge >= 0 && "scheduled transition not in the topology");
  ring_[ring_slot(due_day)][static_cast<std::size_t>(edge)] += count;
}

void SeirModel::schedule_split(const DelayDistribution& delay,
                               Compartment from, Compartment to,
                               std::int64_t count) {
  if (count <= 0) return;
  // Only the k bins split_into returns are written; the rest are never read.
  std::array<std::int64_t, kMaxDelayCeiling> buckets;
  const std::size_t k = delay.split_into(eng_, count, buckets);
  assert(k < ring_.size() && "event beyond the ring horizon");
  const int edge = edge_index(from, to);
  assert(edge >= 0 && "scheduled transition not in the topology");
  const auto e = static_cast<std::size_t>(edge);
  // Bucket d is due on day_ + d + 1: walk the ring forward from there.
  std::size_t slot = ring_slot(day_ + 1);
  for (std::size_t d = 0; d < k; ++d) {
    if (buckets[d] > 0) ring_[slot][e] += buckets[d];
    if (++slot == ring_.size()) slot = 0;
  }
}

void SeirModel::enter(Compartment c, std::int64_t n) {
  counts_[index(c)] += n;
  if (c == Compartment::kDu || c == Compartment::kDd) today_new_deaths_ += n;
  if (n <= 0) return;

  using C = Compartment;
  const DiseaseParameters& p = params_;
  switch (c) {
    case C::kE: {
      const std::int64_t to_presym =
          rng::binomial(eng_, n, p.fraction_symptomatic);
      schedule_split(delays_->latent, C::kE, C::kPu, to_presym);
      schedule_split(delays_->latent, C::kE, C::kAu, n - to_presym);
      break;
    }
    case C::kAu: {
      const std::int64_t detected =
          rng::binomial(eng_, n, p.detect_asymptomatic);
      schedule(day_ + p.detection_delay, C::kAu, C::kAd, detected);
      schedule_split(delays_->asym, C::kAu, C::kRu, n - detected);
      break;
    }
    case C::kAd:
      schedule_split(delays_->asym, C::kAd, C::kRd, n);
      break;
    case C::kPu: {
      const std::int64_t detected =
          rng::binomial(eng_, n, p.detect_presymptomatic);
      schedule(day_ + p.detection_delay, C::kPu, C::kPd, detected);
      const std::int64_t rest = n - detected;
      const std::int64_t mild = rng::binomial(eng_, rest, p.fraction_mild);
      schedule_split(delays_->presym, C::kPu, C::kSmU, mild);
      schedule_split(delays_->presym, C::kPu, C::kSsU, rest - mild);
      break;
    }
    case C::kPd: {
      const std::int64_t mild = rng::binomial(eng_, n, p.fraction_mild);
      schedule_split(delays_->presym, C::kPd, C::kSmD, mild);
      schedule_split(delays_->presym, C::kPd, C::kSsD, n - mild);
      break;
    }
    case C::kSmU: {
      const std::int64_t detected = rng::binomial(eng_, n, p.detect_mild);
      schedule(day_ + p.detection_delay, C::kSmU, C::kSmD, detected);
      schedule_split(delays_->mild, C::kSmU, C::kRu, n - detected);
      break;
    }
    case C::kSmD:
      schedule_split(delays_->mild, C::kSmD, C::kRd, n);
      break;
    case C::kSsU: {
      const std::int64_t detected = rng::binomial(eng_, n, p.detect_severe);
      schedule(day_ + p.detection_delay, C::kSsU, C::kSsD, detected);
      schedule_split(delays_->severe, C::kSsU, C::kHu, n - detected);
      break;
    }
    case C::kSsD:
      schedule_split(delays_->severe, C::kSsD, C::kHd, n);
      break;
    case C::kHu:
    case C::kHd: {
      const std::int64_t critical = rng::binomial(eng_, n, p.fraction_critical);
      const C icu = c == C::kHu ? C::kCu : C::kCd;
      const C rec = c == C::kHu ? C::kRu : C::kRd;
      schedule_split(delays_->hosp_icu, c, icu, critical);
      schedule_split(delays_->hosp, c, rec, n - critical);
      break;
    }
    case C::kCu:
    case C::kCd: {
      const std::int64_t dying = rng::binomial(eng_, n, p.fraction_death);
      const C dead = c == C::kCu ? C::kDu : C::kDd;
      const C ward = c == C::kCu ? C::kHpU : C::kHpD;
      schedule_split(delays_->icu, c, dead, dying);
      schedule_split(delays_->icu, c, ward, n - dying);
      break;
    }
    case C::kHpU:
      schedule_split(delays_->posticu, C::kHpU, C::kRu, n);
      break;
    case C::kHpD:
      schedule_split(delays_->posticu, C::kHpD, C::kRd, n);
      break;
    case C::kS:
    case C::kRu:
    case C::kRd:
    case C::kDu:
    case C::kDd:
    case C::kCount:
      break;  // terminal or passive states
  }
}

void SeirModel::apply(const Event& ev) {
  auto& from_count = counts_[index(ev.from)];
  if (from_count < ev.count) {
    throw std::logic_error("SeirModel: event drains compartment below zero");
  }
  from_count -= ev.count;
  if (!is_detected(ev.from) && is_detected(ev.to)) {
    today_new_detected_ += ev.count;
  }
  enter(ev.to, ev.count);
}

// ---------------------------------------------------------------------------
// Time stepping.
// ---------------------------------------------------------------------------

void SeirModel::seed_exposed(std::int64_t n) {
  auto& susceptible = counts_[index(Compartment::kS)];
  if (n < 0 || n > susceptible) {
    throw std::invalid_argument("seed_exposed: count exceeds susceptibles");
  }
  susceptible -= n;
  enter(Compartment::kE, n);
}

double SeirModel::effective_infectious() const noexcept {
  const double asym = params_.asymptomatic_infectiousness;
  const double det = params_.detected_infectiousness;
  const auto n = [&](Compartment c) {
    return static_cast<double>(counts_[index(c)]);
  };
  using C = Compartment;
  return n(C::kAu) * asym + n(C::kAd) * asym * det +  //
         n(C::kPu) + n(C::kPd) * det +                //
         n(C::kSmU) + n(C::kSmD) * det +              //
         n(C::kSsU) + n(C::kSsD) * det;
}

double SeirModel::force_of_infection() const noexcept {
  const double theta = transmission_.value_at(day_);
  return theta * effective_infectious() /
         static_cast<double>(params_.population);
}

void SeirModel::step() {
  ++day_;
  today_new_infections_ = 0;
  today_new_detected_ = 0;
  today_new_deaths_ = 0;

  // 1. Apply all transitions scheduled for today, in fixed edge order.
  // enter() only schedules events for day_+1 or later, and those land in
  // other ring slots, so processing a copied snapshot is safe.
  {
    EventSlot& slot = ring_[ring_slot(day_)];
    const EventSlot todays = slot;
    slot.fill(0);
    const auto& edges = transition_table();
    for (std::size_t e = 0; e < kEdgeCount; ++e) {
      if (todays[e] > 0) {
        apply(Event{edges[e].from, edges[e].to, todays[e]});
      }
    }
  }

  // 2. New infections with the post-transition census.
  const double hazard = force_of_infection();
  const double p_inf = 1.0 - std::exp(-hazard);
  const std::int64_t susceptible = counts_[index(Compartment::kS)];
  const std::int64_t infected = rng::binomial(eng_, susceptible, p_inf);
  counts_[index(Compartment::kS)] -= infected;
  today_new_infections_ = infected;
  enter(Compartment::kE, infected);

  // 3. Record the day.
  DailyRecord rec;
  rec.day = day_;
  rec.new_infections = today_new_infections_;
  rec.new_detected_cases = today_new_detected_;
  rec.new_deaths = today_new_deaths_;
  rec.hospital_census = count(Compartment::kHu) + count(Compartment::kHd) +
                        count(Compartment::kHpU) + count(Compartment::kHpD);
  rec.icu_census = count(Compartment::kCu) + count(Compartment::kCd);
  double infectious = 0.0;
  for (std::size_t c = 0; c < kCompartmentCount; ++c) {
    if (is_infectious(static_cast<Compartment>(c))) {
      infectious += static_cast<double>(counts_[c]);
    }
  }
  rec.infectious_census = static_cast<std::int64_t>(infectious);
  rec.susceptible = count(Compartment::kS);
  trajectory_.append(rec);
}

void SeirModel::run_until_day(std::int32_t day) {
  if (day < day_) {
    throw std::invalid_argument("run_until_day: target is in the past");
  }
  while (day_ < day) step();
}

std::int64_t SeirModel::total_individuals() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : counts_) total += c;
  return total;
}

std::size_t SeirModel::pending_events() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : ring_) {
    for (const std::int64_t count : slot) n += count > 0 ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------------

namespace detail {

DiseaseParameters read_archived_parameters(io::BinaryReader& in,
                                           const char* who) {
  DiseaseParameters params = DiseaseParameters::deserialize(in);
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                           std::string(who) + ": archived " + e.what());
  }
  return params;
}

void check_archived_census(const Census& counts, std::int64_t population,
                           const char* who) {
  // Each entry is checked against what is left of the population before
  // it is added, so the running sum can never overflow.
  std::int64_t total = 0;
  for (const std::int64_t c : counts) {
    if (c < 0) {
      throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                             std::string(who) + ": negative census entry " +
                                 std::to_string(c));
    }
    if (c > population - total) {
      throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                             std::string(who) +
                                 ": census exceeds the archived population " +
                                 std::to_string(population));
    }
    total += c;
  }
  if (total != population) {
    throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                           std::string(who) + ": census sums to " +
                               std::to_string(total) + ", not the archived "
                               "population " + std::to_string(population));
  }
}

}  // namespace detail

Checkpoint SeirModel::make_checkpoint() const {
  io::BinaryWriter out(kCheckpointVersion);

  params_.serialize(out);
  transmission_.serialize(out);
  out.write(day_);
  out.write(counts_);

  out.write(static_cast<std::uint64_t>(pending_events()));
  // Walk future days in order; each reachable day owns one ring slot.
  const auto& edges = transition_table();
  for (std::size_t off = 1; off < ring_.size(); ++off) {
    const std::int32_t day = day_ + static_cast<std::int32_t>(off);
    const EventSlot& slot = ring_[ring_slot(day)];
    for (std::size_t e = 0; e < kEdgeCount; ++e) {
      if (slot[e] <= 0) continue;
      out.write(day);
      out.write(static_cast<std::uint8_t>(edges[e].from));
      out.write(static_cast<std::uint8_t>(edges[e].to));
      out.write(slot[e]);
    }
  }

  out.write(eng_.seed_value());
  out.write(eng_.stream_value());
  out.write(eng_.position());

  trajectory_.serialize(out);

  Checkpoint ckpt;
  ckpt.bytes = out.bytes();
  ckpt.day = day_;
  return ckpt;
}

SeirModel SeirModel::restore(const Checkpoint& ckpt,
                             const RestartOverrides& ovr) {
  io::BinaryReader in{ckpt.bytes};
  if (in.version() != kCheckpointVersion) {
    throw io::ArchiveError(io::ArchiveErrorKind::kVersion,
                           "SeirModel::restore: unsupported checkpoint version");
  }

  constexpr const char* kWho = "SeirModel::restore";
  SeirModel m;
  m.params_ = detail::read_archived_parameters(in, kWho);
  m.transmission_ = PiecewiseSchedule::deserialize(in);
  m.day_ = in.read<std::int32_t>();
  m.counts_ = in.read<Census>();
  detail::check_archived_census(m.counts_, m.params_.population, kWho);

  m.init_event_ring();
  const auto n_events = in.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_events; ++i) {
    const auto day = in.read<std::int32_t>();
    const auto from = static_cast<Compartment>(in.read<std::uint8_t>());
    const auto to = static_cast<Compartment>(in.read<std::uint8_t>());
    const auto count = in.read<std::int64_t>();
    if (day <= m.day_ ||
        static_cast<std::size_t>(day - m.day_) >= m.ring_.size()) {
      throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                             "SeirModel::restore: event outside ring horizon");
    }
    const int edge = edge_index(from, to);
    if (edge < 0) {
      throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                             "SeirModel::restore: unknown transition edge");
    }
    // A queued count moves people who exist, so it lies in [0, population]
    // even after merging; the bound also keeps the += from overflowing.
    std::int64_t& queued =
        m.ring_[m.ring_slot(day)][static_cast<std::size_t>(edge)];
    if (count < 0 || count > m.params_.population - queued) {
      throw io::ArchiveError(io::ArchiveErrorKind::kCorrupt,
                             "SeirModel::restore: event count " +
                                 std::to_string(count) +
                                 " outside [0, population]");
    }
    queued += count;
  }

  const auto seed = in.read<std::uint64_t>();
  const auto stream = in.read<std::uint64_t>();
  const auto position = in.read<std::uint64_t>();

  m.trajectory_ = Trajectory::deserialize(in);

  // Apply restart overrides (paper §III-B).
  if (ovr.reseeds()) {
    // A new seed/stream branches a fresh trajectory from this state.
    m.eng_.reseed(ovr.seed.value_or(seed), ovr.stream.value_or(stream));
  } else {
    m.eng_.reseed(seed, stream);
    m.eng_.set_position(position);
  }
  if (ovr.fraction_symptomatic) {
    m.params_.fraction_symptomatic = *ovr.fraction_symptomatic;
  }
  if (ovr.fraction_mild) m.params_.fraction_mild = *ovr.fraction_mild;
  if (ovr.asymptomatic_infectiousness) {
    m.params_.asymptomatic_infectiousness = *ovr.asymptomatic_infectiousness;
  }
  if (ovr.detected_infectiousness) {
    m.params_.detected_infectiousness = *ovr.detected_infectiousness;
  }
  if (ovr.transmission_rate) {
    m.transmission_.override_from(m.day_ + 1, *ovr.transmission_rate);
  }
  m.params_.validate();
  m.acquire_delay_tables();
  return m;
}

}  // namespace epismc::epi
