#pragma once

// Tracing for the benchmark's traced run: spans recorded around calls
// into the library's public functions, plus timing decorators registered
// in the api registries ("traced:<name>") that wrap a simulator, a
// likelihood and a bias model. Nothing here touches the library's own
// code; an untraced run uses the plain registry names and never reaches
// these wrappers.
//
// Spans are recorded only on the thread that armed the tracer (the
// calibrating thread). Scoring runs inside the simulators' parallel loops,
// so the score decorators accumulate per-lane time and call counts instead,
// and each propagate span gets one aggregated "core.score" child whose
// duration is the score lane-time divided by the lane count -- the share of
// the propagate wall that scoring occupied.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // relative to Tracer::arm()
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;            // -1: top-level
  std::int64_t child_ns = 0;  // time covered by direct children
  bool aggregated = false;    // synthetic per-lane aggregate (core.score)

  [[nodiscard]] std::int64_t self_ns() const {
    const std::int64_t d = end_ns - start_ns - child_ns;
    return d > 0 ? d : 0;
  }
};

/// Propagation accounting of one traced pass.
struct PropagateTotals {
  double sim_days = 0;           // every propagated trajectory-day
  double weighted_sim_days = 0;  // first propagate call of each operation
  std::int64_t score_calls = 0;  // likelihood evaluations
  std::int64_t score_lane_ns = 0;
};

class Tracer {
 public:
  /// Start recording; clears previous spans and counters.
  void arm();
  void disarm();
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Open a span on the arming thread; returns its id, or -1 when the
  /// tracer is off or the caller is another thread.
  int open(const std::string& name);
  /// Close span `id` (no-op for -1); `rename` relabels it on close.
  void close(int id, const char* rename = nullptr);

  /// Mark the start of a new operation (window or ingested day): the next
  /// propagate call inside it is that operation's weighted pass.
  void begin_operation() noexcept { weighted_pending_ = true; }

  /// Score-decorator hook: one timed likelihood or bias call on any lane.
  static void add_score(std::int64_t ns, bool counts_as_call) noexcept;
  [[nodiscard]] static std::int64_t score_lane_ns() noexcept;
  [[nodiscard]] static std::int64_t score_calls() noexcept;

  /// Propagate-decorator hooks: returns the span id; `close_propagate`
  /// adds the aggregated score child and the sim-day counts.
  int open_propagate(double sim_days);
  void close_propagate(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const PropagateTotals& totals() const noexcept {
    return totals_;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool armed_ = false;
  std::thread::id owner_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  bool weighted_pending_ = false;
  PropagateTotals totals_;
  // Per open propagate span: score counters at open.
  struct PropagateOpen {
    int id;
    std::int64_t score_ns0;
    std::int64_t score_calls0;
    double sim_days;
    bool weighted;
  };
  std::vector<PropagateOpen> open_propagates_;
};

/// The process-wide tracer the decorators report to.
Tracer& tracer();

/// RAII span around a call into the library (no-op when disarmed).
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(id_, rename_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void rename_on_close(const char* name) noexcept { rename_ = name; }

 private:
  int id_;
  const char* rename_ = nullptr;
};

/// Register "traced:<name>" decorators for the given registry names (once
/// per process: the registries reject duplicate names).
void register_traced(const std::string& simulator,
                     const std::string& likelihood, const std::string& bias);

/// One row of the flat per-layer table.
struct LayerRow {
  std::string layer;
  std::int64_t calls = 0;
  double self_s = 0;
  double total_s = 0;
};

/// Aggregate spans by name: calls, self time and total time.
[[nodiscard]] std::vector<LayerRow> layer_table(const std::vector<Span>& spans);

/// Sum of top-level span durations (time covered by some span).
[[nodiscard]] double covered_seconds(const std::vector<Span>& spans);

/// A labelled span list: one traced pass.
struct TracedRun {
  std::string label;
  std::vector<Span> spans;
};

/// Chrome trace-event JSON ("X" complete events, microseconds), one
/// process per traced run; `stamp_json` is a JSON object stored as
/// metadata.
void write_chrome_trace(std::ostream& out, const std::vector<TracedRun>& runs,
                        const std::string& stamp_json);

}  // namespace perfbench
