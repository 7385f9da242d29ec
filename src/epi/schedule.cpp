#include "epi/schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace epismc::epi {

PiecewiseSchedule::PiecewiseSchedule(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) {
    throw std::invalid_argument("PiecewiseSchedule: needs >= 1 segment");
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_day < b.start_day;
            });
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].start_day == segments_[i - 1].start_day) {
      throw std::invalid_argument("PiecewiseSchedule: duplicate start_day");
    }
  }
}

void PiecewiseSchedule::set(std::int32_t start_day, double value) {
  const auto it = std::find_if(
      segments_.begin(), segments_.end(),
      [&](const Segment& s) { return s.start_day == start_day; });
  if (it != segments_.end()) {
    it->value = value;
    return;
  }
  segments_.push_back({start_day, value});
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_day < b.start_day;
            });
}

void PiecewiseSchedule::override_from(std::int32_t start_day, double value) {
  std::erase_if(segments_,
                [&](const Segment& s) { return s.start_day >= start_day; });
  segments_.push_back({start_day, value});
  // segments_ stayed sorted: every remaining start_day < start_day.
}

double PiecewiseSchedule::value_at(std::int32_t day) const {
  double v = segments_.front().value;  // days before the first segment
  for (const Segment& s : segments_) {
    if (s.start_day > day) break;
    v = s.value;
  }
  return v;
}

void PiecewiseSchedule::serialize(io::BinaryWriter& out) const {
  out.write(static_cast<std::uint64_t>(segments_.size()));
  for (const Segment& s : segments_) {
    out.write(s.start_day);
    out.write(s.value);
  }
}

PiecewiseSchedule PiecewiseSchedule::deserialize(io::BinaryReader& in) {
  const std::size_t n =
      in.read_count(sizeof(std::int32_t) + sizeof(double));
  std::vector<Segment> segments;
  segments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Segment s{};
    s.start_day = in.read<std::int32_t>();
    s.value = in.read<double>();
    segments.push_back(s);
  }
  return PiecewiseSchedule(std::move(segments));
}

bool operator==(const PiecewiseSchedule& a, const PiecewiseSchedule& b) {
  if (a.segments_.size() != b.segments_.size()) return false;
  for (std::size_t i = 0; i < a.segments_.size(); ++i) {
    if (a.segments_[i].start_day != b.segments_[i].start_day ||
        a.segments_[i].value != b.segments_[i].value) {
      return false;
    }
  }
  return true;
}

}  // namespace epismc::epi
