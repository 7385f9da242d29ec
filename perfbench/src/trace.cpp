#include "trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <span>

#include "api/components.hpp"
#include "bench_common.hpp"
#include "parallel/parallel.hpp"

namespace perfbench {

namespace {

// Score time and calls per lane, padded so lanes never share a line.
struct alignas(64) LaneScore {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> calls{0};
};
constexpr std::size_t kLaneSlots = 64;
std::array<LaneScore, kLaneSlots> g_lane_score;

std::int64_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Times one scoring call and books it to the calling lane.
class ScoreTimer {
 public:
  explicit ScoreTimer(bool counts_as_call)
      : counts_(counts_as_call), t0_(Clock::now()) {}
  ~ScoreTimer() { Tracer::add_score(elapsed_ns(t0_, Clock::now()), counts_); }
  ScoreTimer(const ScoreTimer&) = delete;
  ScoreTimer& operator=(const ScoreTimer&) = delete;

 private:
  bool counts_;
  Clock::time_point t0_;
};

using epismc::core::BatchSink;
using epismc::core::EnsembleBuffer;
using epismc::core::StatePool;

// Trajectory-days a run_batch call propagates: each sim runs from its
// parent's day through to_day.
double batch_sim_days(const StatePool& parents, std::int32_t to_day,
                      const EnsembleBuffer& buffer, std::size_t first,
                      std::size_t count) {
  double days = 0;
  for (std::size_t s = first; s < first + count; ++s) {
    days += to_day - parents.day(buffer.parent[s]);
  }
  return days;
}

double checkpoint_sim_days(std::span<const epismc::epi::Checkpoint> parents,
                           std::int32_t to_day, const EnsembleBuffer& buffer,
                           std::size_t first, std::size_t count) {
  double days = 0;
  for (std::size_t s = first; s < first + count; ++s) {
    days += to_day - parents[buffer.parent[s]].day;
  }
  return days;
}

class TracedSimulator final : public epismc::core::Simulator {
 public:
  explicit TracedSimulator(std::unique_ptr<Simulator> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] epismc::epi::Checkpoint initial_state(
      std::int32_t day, std::uint64_t seed) const override {
    ScopedSpan span("core.burnin");
    return inner_->initial_state(day, seed);
  }
  [[nodiscard]] epismc::core::WindowRun run_window(
      const epismc::epi::Checkpoint& state, double theta, std::uint64_t seed,
      std::uint64_t stream, std::int32_t to_day,
      bool want_checkpoint) const override {
    return inner_->run_window(state, theta, seed, stream, to_day,
                              want_checkpoint);
  }
  [[nodiscard]] std::unique_ptr<StatePool> make_pool() const override {
    return inner_->make_pool();
  }
  void run_batch(const StatePool& parents, std::int32_t to_day,
                 EnsembleBuffer& buffer, std::size_t first, std::size_t count,
                 const BatchSink& sink) const override {
    const int id = tracer().open_propagate(
        tracer().armed() ? batch_sim_days(parents, to_day, buffer, first, count)
                         : 0.0);
    inner_->run_batch(parents, to_day, buffer, first, count, sink);
    tracer().close_propagate(id);
  }
  void run_batch(std::span<const epismc::epi::Checkpoint> parents,
                 std::int32_t to_day, EnsembleBuffer& buffer,
                 std::size_t first, std::size_t count,
                 std::span<epismc::epi::Checkpoint> end_states) const override {
    const int id = tracer().open_propagate(
        tracer().armed()
            ? checkpoint_sim_days(parents, to_day, buffer, first, count)
            : 0.0);
    inner_->run_batch(parents, to_day, buffer, first, count, end_states);
    tracer().close_propagate(id);
  }
  void advance_batch(StatePool& states, std::int32_t to_day,
                     EnsembleBuffer& buffer, std::size_t first,
                     std::size_t count, const BatchSink& sink) const override {
    double days = 0;
    if (tracer().armed()) {
      for (std::size_t s = first; s < first + count; ++s) {
        days += to_day - states.day(s);
      }
    }
    const int id = tracer().open_propagate(days);
    inner_->advance_batch(states, to_day, buffer, first, count, sink);
    tracer().close_propagate(id);
  }
  void resample_states(StatePool& states,
                       std::span<const std::uint32_t> ancestors,
                       std::uint64_t seed,
                       std::span<const std::uint64_t> streams,
                       std::span<const double> thetas) const override {
    inner_->resample_states(states, ancestors, seed, streams, thetas);
  }
  // The inner name: streaming checkpoints record it, and a traced session
  // must produce the same archives as an untraced one.
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Simulator> inner_;
};

// Likelihood::logpdf_cached is protected; forming the member pointer
// through a derived class is the one way to call the wrapped likelihood's
// cached path (the path the hot loop uses) from a decorator.
struct CachedScore : epismc::core::Likelihood {
  using Fn = double (epismc::core::Likelihood::*)(
      const epismc::core::ObservationCache&, std::span<const double>) const;
  static Fn fn() { return &CachedScore::logpdf_cached; }
};

class TracedLikelihood final : public epismc::core::Likelihood {
 public:
  explicit TracedLikelihood(std::unique_ptr<Likelihood> inner)
      : inner_(std::move(inner)) {}

  using Likelihood::logpdf;
  [[nodiscard]] double logpdf(std::span<const double> observed,
                              std::span<const double> simulated)
      const override {
    ScoreTimer timer(true);
    return inner_->logpdf(observed, simulated);
  }
  /// The wrapped likelihood's cache, re-owned by the decorator so the
  /// cached overload accepts it.
  [[nodiscard]] epismc::core::ObservationCache prepare(
      std::span<const double> observed) const override {
    epismc::core::ObservationCache cache = inner_->prepare(observed);
    cache.owner = this;
    return cache;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 protected:
  [[nodiscard]] double logpdf_cached(
      const epismc::core::ObservationCache& cache,
      std::span<const double> simulated) const override {
    ScoreTimer timer(true);
    return ((*inner_).*CachedScore::fn())(cache, simulated);
  }

 private:
  std::unique_ptr<Likelihood> inner_;
};

class TracedBias final : public epismc::core::BiasModel {
 public:
  explicit TracedBias(std::unique_ptr<BiasModel> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<double> apply(
      epismc::rng::Engine& eng, std::span<const double> true_counts,
      double rho) const override {
    ScoreTimer timer(false);
    return inner_->apply(eng, true_counts, rho);
  }
  void apply_into(epismc::rng::Engine& eng,
                  std::span<const double> true_counts, double rho,
                  std::span<double> out) const override {
    ScoreTimer timer(false);
    inner_->apply_into(eng, true_counts, rho, out);
  }
  [[nodiscard]] bool uses_rho() const noexcept override {
    return inner_->uses_rho();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<BiasModel> inner_;
};

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::arm() {
  spans_.clear();
  stack_.clear();
  open_propagates_.clear();
  totals_ = {};
  weighted_pending_ = false;
  for (LaneScore& lane : g_lane_score) {
    lane.ns.store(0, std::memory_order_relaxed);
    lane.calls.store(0, std::memory_order_relaxed);
  }
  owner_ = std::this_thread::get_id();
  origin_ = Clock::now();
  armed_ = true;
}

void Tracer::disarm() { armed_ = false; }

std::int64_t Tracer::now_ns() const { return elapsed_ns(origin_, Clock::now()); }

int Tracer::open(const std::string& name) {
  if (!armed_ || std::this_thread::get_id() != owner_) return -1;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id, const char* rename) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (rename != nullptr) span.name = rename;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

void Tracer::add_score(std::int64_t ns, bool counts_as_call) noexcept {
  const auto lane =
      static_cast<std::size_t>(epismc::parallel::thread_id()) % kLaneSlots;
  g_lane_score[lane].ns.fetch_add(ns, std::memory_order_relaxed);
  if (counts_as_call) {
    g_lane_score[lane].calls.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int64_t Tracer::score_lane_ns() noexcept {
  std::int64_t total = 0;
  for (const LaneScore& lane : g_lane_score) {
    total += lane.ns.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t Tracer::score_calls() noexcept {
  std::int64_t total = 0;
  for (const LaneScore& lane : g_lane_score) {
    total += lane.calls.load(std::memory_order_relaxed);
  }
  return total;
}

int Tracer::open_propagate(double sim_days) {
  const int id = open("core.propagate");
  if (id < 0) return id;
  open_propagates_.push_back(
      {id, score_lane_ns(), score_calls(), sim_days, weighted_pending_});
  weighted_pending_ = false;
  return id;
}

void Tracer::close_propagate(int id) {
  if (id < 0 || open_propagates_.empty() || open_propagates_.back().id != id) {
    close(id);
    return;
  }
  const PropagateOpen p = open_propagates_.back();
  open_propagates_.pop_back();
  const std::int64_t score_ns = score_lane_ns() - p.score_ns0;
  totals_.score_lane_ns += score_ns;
  totals_.score_calls += score_calls() - p.score_calls0;
  totals_.sim_days += p.sim_days;
  if (p.weighted) totals_.weighted_sim_days += p.sim_days;

  const std::int64_t end = now_ns();
  Span& parent = spans_[static_cast<std::size_t>(id)];
  const int lanes = std::max(1, epismc::parallel::max_threads());
  const std::int64_t score_wall =
      std::min(score_ns / lanes, end - parent.start_ns);
  Span score;
  score.name = "core.score";
  score.id = static_cast<int>(spans_.size());
  score.parent = id;
  score.start_ns = parent.start_ns;
  score.end_ns = parent.start_ns + score_wall;
  score.aggregated = true;
  spans_[static_cast<std::size_t>(id)].child_ns += score_wall;
  spans_.push_back(std::move(score));
  close(id);
}

void register_traced(const std::string& simulator,
                     const std::string& likelihood, const std::string& bias) {
  namespace api = epismc::api;
  api::simulators().add(
      "traced:" + simulator, [simulator](const api::SimulatorSpec& spec) {
        return std::unique_ptr<epismc::core::Simulator>(
            std::make_unique<TracedSimulator>(
                api::simulators().create(simulator, spec)));
      });
  api::likelihoods().add(
      "traced:" + likelihood, [likelihood](double parameter) {
        return std::unique_ptr<epismc::core::Likelihood>(
            std::make_unique<TracedLikelihood>(
                api::likelihoods().create(likelihood, parameter)));
      });
  api::bias_models().add("traced:" + bias, [bias]() {
    return std::unique_ptr<epismc::core::BiasModel>(
        std::make_unique<TracedBias>(api::bias_models().create(bias)));
  });
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  std::map<std::string, LayerRow> rows;
  for (const Span& span : spans) {
    LayerRow& row = rows[span.name];
    row.layer = span.name;
    ++row.calls;
    row.self_s += static_cast<double>(span.self_ns()) * 1e-9;
    row.total_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double covered_seconds(const std::vector<Span>& spans) {
  std::int64_t ns = 0;
  for (const Span& span : spans) {
    if (span.parent < 0) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void write_chrome_trace(std::ostream& out, const std::vector<TracedRun>& runs,
                        const std::string& stamp_json) {
  out << std::fixed << std::setprecision(3);
  out << "{\"otherData\": " << stamp_json << ",\n\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t pid = 0; pid < runs.size(); ++pid) {
    const TracedRun& run = runs[pid];
    out << (first ? "" : ",\n")
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid + 1
        << ", \"tid\": 1, \"args\": {\"name\": \""
        << epismc::bench::json_escape(run.label) << "\"}}";
    first = false;
    for (const Span& span : run.spans) {
      out << ",\n{\"name\": \"" << epismc::bench::json_escape(span.name)
          << "\", \"cat\": \"" << (span.aggregated ? "aggregate" : "span")
          << "\", \"ph\": \"X\", \"pid\": " << pid + 1
          << ", \"tid\": 1, \"ts\": " << static_cast<double>(span.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent
          << "}}";
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
