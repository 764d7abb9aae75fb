// metrics/simd — batch power kernels with one-time runtime dispatch.
//
// Every hot path in the system (analysis passes, cluster policies, the day
// simulator, the serve daemon's request path) bottoms out in the same
// normalized-power interpolation. This layer provides that interpolation as
// branch-free batch kernels over uniform utilisation grids
// (metrics/uniform_grid.h), with explicit AVX2 (x86-64) and NEON (arm64)
// implementations selected once per process by kernels::active():
//
//   kScalarReference  plain scalar loops with no vector code, forcible with
//                     EPSERVE_FORCE_SCALAR=1. At the fleet's native 10-bin
//                     resolution the grid expression is the knot walk's own
//                     expression (PowerCurve::normalized_power), so
//                     forced-scalar output is byte-identical to the
//                     pre-kernel-layer code;
//   kGridScalar       the grid expression as a plain scalar loop — the
//                     portable fallback and the bitwise reference the vector
//                     variants are tested against;
//   kGridAvx2         AVX2 intrinsics, 4 lanes/vector, lane-wise bin
//                     loads. Compiled with -mavx2 in its own TU only
//                     (CMake EPSERVE_SIMD); never called unless CPUID
//                     reports AVX2.
//   kGridAvx512       AVX-512F/DQ intrinsics, 8 lanes/vector; tables of
//                     <=16 bins (the fleet's native 10-bin rows) are held
//                     in register pairs and looked up with vpermi2pd.
//                     Preferred over AVX2 when CPUID reports both
//                     avx512f and avx512dq.
//   kGridNeon         NEON intrinsics, 2 lanes/vector (arm64 baseline ISA).
//
// Bitwise policy (docs/KERNELS.md): all grid variants evaluate the exact
// scalar expression `(w0[idx] + (u - u0[idx]) * m[idx]) * inv_peak` with
// round-to-nearest IEEE ops and no FMA contraction, so kGridAvx2/kGridNeon
// match kGridScalar bit-for-bit, and all of them match the knot-walk
// reference wherever bin selection resolves to the same knot segment (always
// at native 10-bin resolution; within <=2 ULP for finer grids — see
// UniformGridTable).
#pragma once

#include <cstddef>
#include <cstdint>

namespace epserve::metrics::kernels {

enum class Variant : std::uint8_t {
  kScalarReference = 0,
  kGridScalar = 1,
  kGridAvx2 = 2,
  kGridNeon = 3,
  kGridAvx512 = 4,
};

/// Raw-column view of one curve's uniform grid (a UniformGridTable, or one
/// row of cluster::Fleet's grid columns). All arrays have last_bin + 1
/// entries; bin idx covers utilisation [idx/scale, (idx+1)/scale).
struct GridView {
  const double* u0 = nullptr;  // left-knot utilisation of the bin's segment
  const double* w0 = nullptr;  // watts at that knot
  const double* m = nullptr;   // segment slope (watts per unit utilisation)
  double inv_peak = 0.0;
  double scale = 0.0;              // bins over [0, 1]
  std::int32_t last_bin = 0;       // bins - 1
};

/// Whole-fleet grid at native resolution: per-server rows of kRowBins bins
/// (the ten SPECpower knot segments), index-aligned with the fleet. u0 is
/// the shared kRowU0 array — identical for every server, so it is not
/// replicated per row.
struct FleetGridView {
  static constexpr std::int32_t kRowBins = 10;
  const double* w0 = nullptr;        // [servers * kRowBins], row i at i*10
  const double* m = nullptr;         // [servers * kRowBins]
  const double* inv_peak = nullptr;  // [servers]
  std::size_t servers = 0;
};

/// Left-knot utilisations of the native grid's ten segments:
/// {0.0, 0.1, ..., 0.9}, bitwise equal to InterpolationTable::knot_u[0..9].
extern const double kRowU0[FleetGridView::kRowBins];

/// One selected kernel set. Function pointers, not virtuals: the table is
/// immutable after dispatch and the calls sit inside per-batch loops.
struct Kernels {
  Variant variant = Variant::kGridScalar;
  const char* name = "";  // wire/CLI name, e.g. "grid-avx2"

  /// out[k] = normalized power of `grid` at utils[k]. Precondition (same as
  /// PowerCurve::normalized_power_batch): every utilisation in [0, 1];
  /// violations raise ContractViolation. Checked per vector, not per
  /// point, in the SIMD variants.
  void (*grid_batch)(const GridView& grid, const double* utils, double* out,
                     std::size_t n) = nullptr;

  /// out[i] = normalized power of server i at utils[i], for all servers in
  /// the fleet view. Same precondition as grid_batch.
  void (*fleet_batch)(const FleetGridView& fleet, const double* utils,
                      double* out) = nullptr;

  /// out[k] = normalized power of server `i` at utils[k] — the day-sim /
  /// placement hot shape (one server's row, a batch of demand slots). Same
  /// precondition and bitwise contract as grid_batch on that row; variants
  /// specialise it because the row's 10-bin parameters and the shared kRowU0
  /// column have compile-time-known extents, unlike a general GridView.
  void (*row_batch)(const FleetGridView& fleet, std::size_t i,
                    const double* utils, double* out, std::size_t n) = nullptr;

  /// Blocked matrix form of row_batch, the placement/day-sim inner loop:
  /// for servers i0..i0+count-1, out[r*slots + d] = normalized power of
  /// server i0+r at utils[r*slots + d]. One call amortises all dispatch and
  /// setup cost across the whole block; same precondition and bitwise
  /// contract per row as row_batch.
  void (*row_matrix)(const FleetGridView& fleet, std::size_t i0,
                     std::size_t count, const double* utils, double* out,
                     std::size_t slots) = nullptr;

  /// out[k] = min(max(in[k], 0.0), 1.0) — the day-sim utilisation clamp.
  void (*clamp01)(const double* in, double* out, std::size_t n) = nullptr;

  /// acc[k] += x[k] * s, as separate round-to-nearest multiply and add (no
  /// FMA), matching the scalar accumulation loops bit-for-bit.
  void (*axpy)(double* acc, const double* x, double s, std::size_t n) = nullptr;
};

/// The process-wide kernel set, chosen on first call and cached:
/// EPSERVE_FORCE_SCALAR=1 (any value other than "0") forces
/// kScalarReference; otherwise the best ISA the CPU reports (AVX2 via CPUID
/// on x86-64, NEON on arm64), falling back to kGridScalar. Publishes the
/// `kernel.dispatch` telemetry gauge (the Variant value) when telemetry is
/// enabled at selection time. Thread-safe.
const Kernels& active();

/// What active() would select given the current environment and CPU,
/// re-evaluated on every call (active() itself never re-reads the env).
Variant detect();

/// Kernel set for an explicit variant, or nullptr when it was compiled out
/// (EPSERVE_SIMD=OFF / wrong architecture) or the CPU lacks the ISA.
/// kScalarReference and kGridScalar are always available.
const Kernels* get(Variant variant);

/// Replaces the active kernel set (test/bench seam — benches byte-compare
/// end-to-end runs across variants in one process). Fails (returns false,
/// active unchanged) when get(variant) is unavailable.
bool set_active_for_testing(Variant variant);

/// Wire/CLI name of a variant ("scalar-reference", "grid-scalar",
/// "grid-avx2", "grid-avx512", "grid-neon").
const char* variant_name(Variant variant);

}  // namespace epserve::metrics::kernels
