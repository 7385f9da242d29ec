#pragma once

// Runtime ISA dispatch for the vectorized propagate/score kernels.
//
// One kernel source (kernels_body.inl) is compiled into four translation
// units -- scalar, SSE4.1, AVX2, AVX-512 -- following RayDemo's CoreSIMD
// pattern; at runtime a CPUID probe picks the best level the host supports.
// Two dispatch slots exist because the kernels split into two classes:
//
//  * philox_fill is a pure integer transform and produces the bit-identical
//    output at every level, so PhiloxEngine always routes through the best
//    compiled+supported table ("auto" slot). Golden hashes are unaffected.
//  * binomial_lanes / score_* change the draw-stream discipline (counter
//    -segmented sites) or last-ulp accumulation order, so they engage only
//    when a level is selected explicitly: EPISMC_SIMD=scalar|sse41|avx2|
//    avx512|auto, the --simd CLI flag, or simd::set_level. The default is
//    the scalar reference engine, keeping results machine-independent out
//    of the box (determinism first).
//
// Selecting a level the host cannot run falls back cleanly to the best
// supported level below it. Within the vector family the lane kernels are
// written so sse41/avx2/avx512 produce identical draws (the lane arithmetic
// is elementwise and every TU builds with -ffp-contract=off); only the
// legacy sequential scalar path differs, and that stays the reference.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace epismc::simd {

enum class SimdLevel : int {
  kScalar = 0,
  kSse41 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Per-ISA kernel entry points. One instance per compiled translation unit.
struct KernelTable {
  SimdLevel level = SimdLevel::kScalar;
  /// Blocks PhiloxEngine generates per refill through this table.
  unsigned philox_engine_blocks = 1;

  /// Write 2*n_blocks u64 outputs for Philox4x32-10 blocks
  /// [block0, block0 + n_blocks), packed exactly like PhiloxEngine::refill.
  /// Bit-identical at every level (pure integer rounds).
  void (*philox_fill)(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t block0, std::uint64_t* out,
                      std::size_t n_blocks) = nullptr;

  /// Draw count binomials, lane i ~ Binomial(n[i], p[i]), where lane i
  /// consumes draws starting at absolute engine position seg[i] of the
  /// (seed, stream) counter stream. Lane results are a pure function of
  /// (seed, stream, seg[i], n[i], p[i]) -- independent of lane grouping
  /// and identical across every table (the lane BINV and lane BTPE mirror
  /// the scalar samplers' arithmetic op for op on the uniforms a positioned
  /// scalar engine would produce).
  void (*binomial_lanes)(std::uint64_t seed, std::uint64_t stream,
                         const std::uint64_t* seg, const std::int64_t* n,
                         const double* p, std::size_t count,
                         std::int64_t* out) = nullptr;

  /// Fused log/lgamma-free scoring passes over ObservationCache constants.
  /// Vector accumulation order differs from the sequential reference in
  /// last ulps; same-level runs are bit-deterministic.
  double (*score_gaussian_sqrt)(const double* t0, const double* sim,
                                std::size_t len, double sigma) = nullptr;
  double (*score_nb_sqrt)(const double* t0, const double* sim,
                          std::size_t len, double dispersion_k) = nullptr;
  double (*score_poisson)(const double* t0, const double* t1,
                          const double* sim, std::size_t len,
                          double rate_floor) = nullptr;
};

/// Name <-> level mapping ("scalar", "sse41", "avx2", "avx512").
[[nodiscard]] const char* level_name(SimdLevel level) noexcept;

/// Parse a level name; also accepts "auto" (reported via `is_auto`).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] SimdLevel parse_level(const std::string& name, bool* is_auto = nullptr);

/// Levels this binary was compiled with (always contains kScalar).
[[nodiscard]] const std::vector<SimdLevel>& compiled_levels() noexcept;

/// Best level the host CPU supports (CPUID probe, independent of what was
/// compiled in).
[[nodiscard]] SimdLevel host_level() noexcept;

/// Best level that is both compiled in and host-supported.
[[nodiscard]] SimdLevel best_level() noexcept;

/// Pure fallback rule: highest level <= want that is compiled and
/// host-supported (exposed so the clamping logic is unit-testable for
/// levels the test host does not have).
[[nodiscard]] SimdLevel clamp_level(SimdLevel want,
                                    const std::vector<SimdLevel>& compiled,
                                    SimdLevel host) noexcept;

/// Select the active lane-kernel level (clamped to the host; returns what
/// actually took effect). Also pins the Philox auto slot to the same table
/// so EPISMC_SIMD=scalar means truly scalar execution.
SimdLevel set_level(SimdLevel want) noexcept;

/// set_level by name; "auto" selects best_level().
SimdLevel set_level(const std::string& name);

/// Table for the result-changing lane kernels (scalar unless overridden).
[[nodiscard]] const KernelTable& active() noexcept;
[[nodiscard]] SimdLevel active_level() noexcept;

/// Table used by PhiloxEngine batching (best level by default; the output
/// is bit-identical at every level).
[[nodiscard]] const KernelTable& philox_table() noexcept;

/// Table for one specific level (must be compiled in), for tests/benches.
[[nodiscard]] const KernelTable& table_for(SimdLevel level);

/// Re-read EPISMC_SIMD and apply it (startup behaviour; exposed so the
/// dispatcher test can drive the env override in-process). Returns the
/// level that took effect.
SimdLevel refresh_from_env();

namespace detail {
/// Snapshot of both dispatch slots (lane kernels + Philox batching), so a
/// scoped pin can restore the default split state (scalar lanes, best-level
/// Philox) exactly rather than collapsing both slots to one level.
struct DispatchState {
  SimdLevel lanes = SimdLevel::kScalar;
  SimdLevel philox = SimdLevel::kScalar;
};
[[nodiscard]] DispatchState get_state() noexcept;
void set_state(DispatchState state) noexcept;
}  // namespace detail

/// RAII level pin for tests and scalar-vs-vector bench baselines.
class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel level) : previous_(detail::get_state()) {
    set_level(level);
  }
  ~ScopedLevel() { detail::set_state(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  detail::DispatchState previous_;
};

}  // namespace epismc::simd
