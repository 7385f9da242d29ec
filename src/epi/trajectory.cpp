#include "epi/trajectory.hpp"

#include <stdexcept>

namespace epismc::epi {

const DailyRecord& Trajectory::at_day(std::int32_t day) const {
  if (records_.empty()) throw std::out_of_range("Trajectory: empty");
  const std::int64_t offset = day - records_.front().day;
  if (offset < 0 || offset >= static_cast<std::int64_t>(records_.size())) {
    throw std::out_of_range("Trajectory: day out of range");
  }
  return records_[static_cast<std::size_t>(offset)];
}

std::int32_t Trajectory::first_day() const {
  if (records_.empty()) throw std::out_of_range("Trajectory: empty");
  return records_.front().day;
}

std::int32_t Trajectory::last_day() const {
  if (records_.empty()) throw std::out_of_range("Trajectory: empty");
  return records_.back().day;
}

std::vector<double> Trajectory::series(std::int64_t DailyRecord::* field,
                                       std::int32_t from_day,
                                       std::int32_t to_day) const {
  if (to_day < from_day) {
    throw std::invalid_argument("Trajectory::series: to_day < from_day");
  }
  std::vector<double> out(static_cast<std::size_t>(to_day - from_day + 1));
  copy_series(field, from_day, to_day, out);
  return out;
}

void Trajectory::copy_series(std::int64_t DailyRecord::* field,
                             std::int32_t from_day, std::int32_t to_day,
                             std::span<double> out) const {
  if (to_day < from_day) {
    throw std::invalid_argument("Trajectory::copy_series: to_day < from_day");
  }
  if (out.size() != static_cast<std::size_t>(to_day - from_day + 1)) {
    throw std::invalid_argument(
        "Trajectory::copy_series: output span does not match the window");
  }
  for (std::int32_t d = from_day; d <= to_day; ++d) {
    out[static_cast<std::size_t>(d - from_day)] =
        static_cast<double>(at_day(d).*field);
  }
}

void Trajectory::serialize(io::BinaryWriter& out) const {
  // Field-by-field: DailyRecord carries 4 bytes of alignment padding after
  // `day`, and writing the structs wholesale would memcpy that
  // uninitialized hole into the archive -- identical trajectories would
  // serialize to different bytes across processes.
  out.write(static_cast<std::uint64_t>(records_.size()));
  for (const DailyRecord& rec : records_) {
    out.write(rec.day);
    out.write(rec.new_infections);
    out.write(rec.new_detected_cases);
    out.write(rec.new_deaths);
    out.write(rec.hospital_census);
    out.write(rec.icu_census);
    out.write(rec.infectious_census);
    out.write(rec.susceptible);
  }
}

Trajectory Trajectory::deserialize(io::BinaryReader& in) {
  Trajectory t;
  const std::size_t n =
      in.read_count(sizeof(std::int32_t) + 7 * sizeof(std::int64_t));
  t.records_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    DailyRecord rec;
    rec.day = in.read<std::int32_t>();
    rec.new_infections = in.read<std::int64_t>();
    rec.new_detected_cases = in.read<std::int64_t>();
    rec.new_deaths = in.read<std::int64_t>();
    rec.hospital_census = in.read<std::int64_t>();
    rec.icu_census = in.read<std::int64_t>();
    rec.infectious_census = in.read<std::int64_t>();
    rec.susceptible = in.read<std::int64_t>();
    t.records_.push_back(rec);
  }
  return t;
}

}  // namespace epismc::epi
