#include "epi/chain_binomial.hpp"

#include <cmath>
#include <stdexcept>

#include "simd/simd.hpp"

namespace epismc::epi {

namespace {
constexpr std::uint32_t kChainCheckpointVersion = 103;  // v103: padding-free layout
}

ChainBinomialModel::ChainBinomialModel(DiseaseParameters params,
                                       PiecewiseSchedule transmission,
                                       std::uint64_t seed,
                                       std::uint64_t stream)
    : params_(params),
      transmission_(std::move(transmission)),
      eng_(seed, stream) {
  params_.validate();
  counts_[index(Compartment::kS)] = params_.population;
  probs_ = site_probs(params_);
}

ChainBinomialModel::SiteProbs ChainBinomialModel::site_probs(
    const DiseaseParameters& p) {
  const auto leave = [](double mean) { return 1.0 - std::exp(-1.0 / mean); };
  const auto detect = [](double frac_detected, double mean) {
    return 1.0 - std::pow(1.0 - frac_detected, 1.0 / mean);
  };
  return SiteProbs{leave(p.latent_period),
                   leave(p.asymptomatic_period),
                   leave(p.presymptomatic_period),
                   leave(p.mild_period),
                   leave(p.severe_period),
                   leave(p.hospital_period),
                   leave(p.icu_period),
                   leave(p.post_icu_period),
                   detect(p.detect_asymptomatic, p.asymptomatic_period),
                   detect(p.detect_presymptomatic, p.presymptomatic_period),
                   detect(p.detect_mild, p.mild_period),
                   detect(p.detect_severe, p.severe_period)};
}

void ChainBinomialModel::seed_exposed(std::int64_t n) {
  auto& susceptible = counts_[index(Compartment::kS)];
  if (n < 0 || n > susceptible) {
    throw std::invalid_argument("seed_exposed: count exceeds susceptibles");
  }
  susceptible -= n;
  counts_[index(Compartment::kE)] += n;
}

double ChainBinomialModel::effective_infectious() const noexcept {
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

double ChainBinomialModel::force_of_infection() const noexcept {
  return transmission_.value_at(day_) * effective_infectious() /
         static_cast<double>(params_.population);
}

// One day advances through 27 binomial draw sites, numbered in the order
// the sequential (scalar-level) path consumes the engine:
//
//   0  leave E            1  split E -> P        2  leave Au
//   3  detect Au          4  leave Ad            5  leave Pu
//   6  split Pu mild      7  detect Pu           8  leave Pd
//   9  split Pd mild     10  leave SmU          11  detect SmU
//  12  leave SmD         13  leave SsU          14  detect SsU
//  15  leave SsD         16  leave Hu           17  split Hu critical
//  18  leave Hd          19  split Hd critical  20  leave Cu
//  21  split Cu death    22  leave Cd           23  split Cd death
//  24  leave HpU         25  leave HpD          26  infection S -> E
//
// Every draw depends only on the start-of-day census plus (for the split
// and detection sites) the corresponding leave draw, so the sites separate
// into two dependency stages: stage A = the 15 leaves + infection, stage B
// = the 11 splits/detections. The segmented path exploits that to draw each
// stage as one lane-parallel binomial kernel call.

void ChainBinomialModel::draw_sites_sequential(
    std::array<std::int64_t, kDrawSites>& draw) {
  const DiseaseParameters& p = params_;
  const SiteProbs& h = probs_;
  using C = Compartment;
  const auto n = [&](C c) { return counts_[index(c)]; };
  const auto leave = [&](C from, double prob) {
    return rng::binomial(eng_, n(from), prob);
  };
  const auto split = [&](std::int64_t total, double frac) {
    return rng::binomial(eng_, total, frac);
  };

  draw[0] = leave(C::kE, h.leave_latent);
  draw[1] = split(draw[0], p.fraction_symptomatic);
  draw[2] = leave(C::kAu, h.leave_asym);
  draw[3] = split(n(C::kAu) - draw[2], h.detect_asym);
  draw[4] = leave(C::kAd, h.leave_asym);
  draw[5] = leave(C::kPu, h.leave_presym);
  draw[6] = split(draw[5], p.fraction_mild);
  draw[7] = split(n(C::kPu) - draw[5], h.detect_presym);
  draw[8] = leave(C::kPd, h.leave_presym);
  draw[9] = split(draw[8], p.fraction_mild);
  draw[10] = leave(C::kSmU, h.leave_mild);
  draw[11] = split(n(C::kSmU) - draw[10], h.detect_mild);
  draw[12] = leave(C::kSmD, h.leave_mild);
  draw[13] = leave(C::kSsU, h.leave_severe);
  draw[14] = split(n(C::kSsU) - draw[13], h.detect_severe);
  draw[15] = leave(C::kSsD, h.leave_severe);
  draw[16] = leave(C::kHu, h.leave_hosp);
  draw[17] = split(draw[16], p.fraction_critical);
  draw[18] = leave(C::kHd, h.leave_hosp);
  draw[19] = split(draw[18], p.fraction_critical);
  draw[20] = leave(C::kCu, h.leave_icu);
  draw[21] = split(draw[20], p.fraction_death);
  draw[22] = leave(C::kCd, h.leave_icu);
  draw[23] = split(draw[22], p.fraction_death);
  draw[24] = leave(C::kHpU, h.leave_post_icu);
  draw[25] = leave(C::kHpD, h.leave_post_icu);
  const double p_inf = 1.0 - std::exp(-force_of_infection());
  draw[26] = rng::binomial(eng_, n(C::kS), p_inf);
}

void ChainBinomialModel::draw_sites_segmented(
    std::array<std::int64_t, kDrawSites>& draw) {
  const DiseaseParameters& p = params_;
  const SiteProbs& h = probs_;
  using C = Compartment;
  const auto n = [&](C c) { return counts_[index(c)]; };

  // Each site owns a fixed 64-draw slice of the counter space starting at
  // the day's base position, so the day consumes exactly kDrawSites *
  // kDrawSegment positions regardless of per-draw rejection counts. The
  // result is a pure function of (seed, stream, site inputs) and identical
  // across all vector dispatch levels (binomial_lanes is bit-deterministic
  // across lane widths).
  const std::uint64_t base = eng_.position();
  const simd::KernelTable& kt = simd::active();

  struct Batch {
    std::array<std::uint64_t, 16> seg;
    std::array<std::int64_t, 16> n;
    std::array<double, 16> p;
    std::array<std::size_t, 16> site;
    std::size_t m = 0;
    void put(std::uint64_t base, std::size_t s, std::int64_t count,
             double prob) {
      seg[m] = base + s * kDrawSegment;
      n[m] = count;
      p[m] = prob;
      site[m] = s;
      ++m;
    }
  };

  // Stage A: leaves + infection (start-of-day census only).
  Batch a;
  a.put(base, 0, n(C::kE), h.leave_latent);
  a.put(base, 2, n(C::kAu), h.leave_asym);
  a.put(base, 4, n(C::kAd), h.leave_asym);
  a.put(base, 5, n(C::kPu), h.leave_presym);
  a.put(base, 8, n(C::kPd), h.leave_presym);
  a.put(base, 10, n(C::kSmU), h.leave_mild);
  a.put(base, 12, n(C::kSmD), h.leave_mild);
  a.put(base, 13, n(C::kSsU), h.leave_severe);
  a.put(base, 15, n(C::kSsD), h.leave_severe);
  a.put(base, 16, n(C::kHu), h.leave_hosp);
  a.put(base, 18, n(C::kHd), h.leave_hosp);
  a.put(base, 20, n(C::kCu), h.leave_icu);
  a.put(base, 22, n(C::kCd), h.leave_icu);
  a.put(base, 24, n(C::kHpU), h.leave_post_icu);
  a.put(base, 25, n(C::kHpD), h.leave_post_icu);
  a.put(base, 26, n(C::kS), 1.0 - std::exp(-force_of_infection()));
  std::array<std::int64_t, 16> out_a;
  kt.binomial_lanes(eng_.seed_value(), eng_.stream_value(), a.seg.data(),
                    a.n.data(), a.p.data(), a.m, out_a.data());
  for (std::size_t i = 0; i < a.m; ++i) draw[a.site[i]] = out_a[i];

  // Stage B: splits and detections (depend on stage-A leaves).
  Batch b;
  b.put(base, 1, draw[0], p.fraction_symptomatic);
  b.put(base, 3, n(C::kAu) - draw[2], h.detect_asym);
  b.put(base, 6, draw[5], p.fraction_mild);
  b.put(base, 7, n(C::kPu) - draw[5], h.detect_presym);
  b.put(base, 9, draw[8], p.fraction_mild);
  b.put(base, 11, n(C::kSmU) - draw[10], h.detect_mild);
  b.put(base, 14, n(C::kSsU) - draw[13], h.detect_severe);
  b.put(base, 17, draw[16], p.fraction_critical);
  b.put(base, 19, draw[18], p.fraction_critical);
  b.put(base, 21, draw[20], p.fraction_death);
  b.put(base, 23, draw[22], p.fraction_death);
  std::array<std::int64_t, 16> out_b;
  kt.binomial_lanes(eng_.seed_value(), eng_.stream_value(), b.seg.data(),
                    b.n.data(), b.p.data(), b.m, out_b.data());
  for (std::size_t i = 0; i < b.m; ++i) draw[b.site[i]] = out_b[i];

  eng_.set_position(base + kDrawSites * kDrawSegment);
}

void ChainBinomialModel::step() {
  ++day_;
  using C = Compartment;
  const auto n = [&](C c) { return counts_[index(c)]; };
  const auto move = [&](C from, C to, std::int64_t k) {
    counts_[index(from)] -= k;
    counts_[index(to)] += k;
  };

  // Draw every outflow from the start-of-day census before applying any of
  // them, so transitions are simultaneous (no within-day pass-through). The
  // scalar dispatch level consumes the engine sequentially (the historical,
  // golden-value path); vector levels draw both dependency stages through
  // the lane-parallel binomial kernel over site-addressed counter segments.
  std::array<std::int64_t, kDrawSites> draw{};
  if (simd::active_level() == simd::SimdLevel::kScalar) {
    draw_sites_sequential(draw);
  } else {
    draw_sites_segmented(draw);
  }

  struct Flow {
    C from;
    C to;
    std::int64_t count;
  };
  const std::array<Flow, 27> flows = {{
      {C::kE, C::kPu, draw[1]},
      {C::kE, C::kAu, draw[0] - draw[1]},
      {C::kAu, C::kRu, draw[2]},
      {C::kAu, C::kAd, draw[3]},
      {C::kAd, C::kRd, draw[4]},
      {C::kPu, C::kSmU, draw[6]},
      {C::kPu, C::kSsU, draw[5] - draw[6]},
      {C::kPu, C::kPd, draw[7]},
      {C::kPd, C::kSmD, draw[9]},
      {C::kPd, C::kSsD, draw[8] - draw[9]},
      {C::kSmU, C::kRu, draw[10]},
      {C::kSmU, C::kSmD, draw[11]},
      {C::kSmD, C::kRd, draw[12]},
      {C::kSsU, C::kHu, draw[13]},
      {C::kSsU, C::kSsD, draw[14]},
      {C::kSsD, C::kHd, draw[15]},
      {C::kHu, C::kCu, draw[17]},
      {C::kHu, C::kRu, draw[16] - draw[17]},
      {C::kHd, C::kCd, draw[19]},
      {C::kHd, C::kRd, draw[18] - draw[19]},
      {C::kCu, C::kDu, draw[21]},
      {C::kCu, C::kHpU, draw[20] - draw[21]},
      {C::kCd, C::kDd, draw[23]},
      {C::kCd, C::kHpD, draw[22] - draw[23]},
      {C::kHpU, C::kRu, draw[24]},
      {C::kHpD, C::kRd, draw[25]},
      {C::kS, C::kE, draw[26]},
  }};
  const std::int64_t infected = draw[26];

  std::int64_t new_deaths = 0;
  std::int64_t new_detected = 0;
  for (const Flow& f : flows) {
    move(f.from, f.to, f.count);
    if (f.to == C::kDu || f.to == C::kDd) new_deaths += f.count;
    if (!is_detected(f.from) && is_detected(f.to)) new_detected += f.count;
  }

  DailyRecord rec;
  rec.day = day_;
  rec.new_infections = infected;
  rec.new_detected_cases = new_detected;
  rec.new_deaths = new_deaths;
  rec.hospital_census =
      n(C::kHu) + n(C::kHd) + n(C::kHpU) + n(C::kHpD);
  rec.icu_census = n(C::kCu) + n(C::kCd);
  double infectious = 0.0;
  for (std::size_t c = 0; c < kCompartmentCount; ++c) {
    if (is_infectious(static_cast<Compartment>(c))) {
      infectious += static_cast<double>(counts_[c]);
    }
  }
  rec.infectious_census = static_cast<std::int64_t>(infectious);
  rec.susceptible = n(C::kS);
  trajectory_.append(rec);
}

void ChainBinomialModel::run_until_day(std::int32_t day) {
  if (day < day_) {
    throw std::invalid_argument("run_until_day: target is in the past");
  }
  while (day_ < day) step();
}

std::int64_t ChainBinomialModel::total_individuals() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : counts_) total += c;
  return total;
}

Checkpoint ChainBinomialModel::make_checkpoint() const {
  io::BinaryWriter out(kChainCheckpointVersion);
  params_.serialize(out);
  transmission_.serialize(out);
  out.write(day_);
  out.write(counts_);
  out.write(eng_.seed_value());
  out.write(eng_.stream_value());
  out.write(eng_.position());
  trajectory_.serialize(out);
  Checkpoint ckpt;
  ckpt.bytes = out.bytes();
  ckpt.day = day_;
  return ckpt;
}

ChainBinomialModel ChainBinomialModel::restore(const Checkpoint& ckpt,
                                               const RestartOverrides& ovr) {
  io::BinaryReader in{ckpt.bytes};
  if (in.version() != kChainCheckpointVersion) {
    throw io::ArchiveError(
        io::ArchiveErrorKind::kVersion,
        "ChainBinomialModel::restore: unsupported checkpoint version");
  }
  constexpr const char* kWho = "ChainBinomialModel::restore";
  ChainBinomialModel m;
  m.params_ = detail::read_archived_parameters(in, kWho);
  m.transmission_ = PiecewiseSchedule::deserialize(in);
  m.day_ = in.read<std::int32_t>();
  m.counts_ = in.read<Census>();
  detail::check_archived_census(m.counts_, m.params_.population, kWho);
  const auto seed = in.read<std::uint64_t>();
  const auto stream = in.read<std::uint64_t>();
  const auto position = in.read<std::uint64_t>();
  m.trajectory_ = Trajectory::deserialize(in);

  if (ovr.reseeds()) {
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
  m.probs_ = site_probs(m.params_);
  return m;
}

}  // namespace epismc::epi
