#pragma once

// Liveness hook for the long-running calibration drivers.
//
// A supervised deployment needs to distinguish "still grinding through an
// expensive window" from "wedged": the drivers cannot know how long a
// window *should* take, but they do know when they cross a progress
// boundary. A ProgressReporter is the single hook the three long-running
// drivers beat at their natural cadence:
//
//   SequentialCalibrator   after every completed window
//   StreamingCalibrator    after every assimilated day
//   ScenarioSweep          per window of every cell (via the cell session)
//
// supervise::Supervisor wires the hook to a heartbeat pipe so a child that
// stops beating for longer than stall_timeout is killed and retried; any
// other monitoring (progress bars, watchdog timers) can ride the same hook.
// The default-constructed reporter is inert and costs one branch per beat,
// so un-supervised runs pay nothing.

#include <functional>
#include <utility>

namespace epismc::core {

struct ProgressReporter {
  /// Called at each progress boundary. Must be cheap, non-throwing in
  /// spirit (a throw would abort the window it interrupts), and -- when
  /// the driver runs its cells in parallel -- thread-safe.
  std::function<void()> on_beat;

  void beat() const {
    if (on_beat) on_beat();
  }
  [[nodiscard]] bool armed() const noexcept {
    return static_cast<bool>(on_beat);
  }

  /// Both hooks in sequence (compose a user progress bar with the
  /// supervisor heartbeat); inert parts collapse away.
  [[nodiscard]] static ProgressReporter chain(ProgressReporter a,
                                              ProgressReporter b) {
    if (!a.armed()) return b;
    if (!b.armed()) return a;
    return ProgressReporter{[a = std::move(a), b = std::move(b)]() {
      a.beat();
      b.beat();
    }};
  }
};

}  // namespace epismc::core
