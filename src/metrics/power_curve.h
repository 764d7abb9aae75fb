// The per-server measurement sheet the paper's analyses consume: average
// power and throughput (ssj_ops) at each of the ten graduated load levels,
// plus active-idle power. This mirrors a published SPECpower_ssj2008 result.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "metrics/load_level.h"
#include "util/result.h"

namespace epserve::metrics {

/// One server's power/performance sheet across load levels.
///
/// Invariants (checked by validate()):
///  * all powers > 0; idle power <= power at 100% load;
///  * ops non-negative and non-decreasing with load; ops at 100% > 0.
class PowerCurve {
 public:
  PowerCurve() = default;

  /// watts[i] / ops[i] are the measurements at load level kLoadLevels[i].
  PowerCurve(std::array<double, kNumLoadLevels> watts,
             std::array<double, kNumLoadLevels> ops, double idle_watts);

  [[nodiscard]] double watts_at_level(std::size_t level) const {
    return watts_[level];
  }
  [[nodiscard]] double ops_at_level(std::size_t level) const {
    return ops_[level];
  }
  [[nodiscard]] double idle_watts() const { return idle_watts_; }
  [[nodiscard]] double peak_watts() const { return watts_.back(); }
  [[nodiscard]] double peak_ops() const { return ops_.back(); }

  /// Precomputed interpolation state for normalized_power: watts at the
  /// eleven knots (active idle at u=0, then the ten levels), one slope per
  /// segment, and the reciprocal of peak power. Building it costs a handful
  /// of flops; evaluating with it is branch-light and division-free, which
  /// is what makes the batched evaluation below worthwhile in per-interval
  /// energy loops.
  struct InterpolationTable {
    std::array<double, kNumLoadLevels + 1> knot_u{};      // 0.0, 0.1 ... 1.0
    std::array<double, kNumLoadLevels + 1> knot_watts{};  // idle, w(0.1)...
    std::array<double, kNumLoadLevels> slope{};           // per segment
    double inv_peak = 0.0;
  };
  [[nodiscard]] InterpolationTable interpolation_table() const;

  /// Power normalised to power at 100% load; `normalized_power(1.0) == 1`.
  /// Interpolates linearly between measured levels (and between idle and the
  /// 10% level below 10% utilisation), matching the paper's trapezoid
  /// treatment of the curve.
  [[nodiscard]] double normalized_power(double utilization) const;

  /// Batched normalized_power: `out[i] = normalized_power(utils[i])`,
  /// bit-identical to the scalar call (both evaluate the same
  /// InterpolationTable kernel), but the table is built once per batch
  /// instead of once per point. `out.size()` must equal `utils.size()`; every
  /// utilisation must be in [0, 1].
  void normalized_power_batch(std::span<const double> utils,
                              std::span<double> out) const;

  /// Evaluates the shared interpolation kernel against a caller-held table
  /// (the reference the grid kernels are tested against). Results are
  /// bitwise identical to normalized_power on the curve the table was built
  /// from. The utilisation must be in [0, 1].
  static double normalized_power_from_table(const InterpolationTable& table,
                                            double utilization);

  /// Idle power as a fraction of power at 100% load (the paper's "idle power
  /// percentage").
  [[nodiscard]] double idle_fraction() const {
    return idle_watts_ / peak_watts();
  }

  /// Checks all invariants; returns an explanatory error on violation.
  [[nodiscard]] epserve::Result<bool> validate() const;

  /// True if power is non-decreasing with load (expected physically; the
  /// generator enforces it, imported data might not satisfy it).
  [[nodiscard]] bool power_monotone() const;

 private:
  std::array<double, kNumLoadLevels> watts_{};
  std::array<double, kNumLoadLevels> ops_{};
  double idle_watts_ = 0.0;
};

}  // namespace epserve::metrics
