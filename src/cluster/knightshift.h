// KnightShift-style heterogeneous composite (paper refs [17]/[40], Wong &
// Annavaram: "scaling the energy proportionality wall through server-level
// heterogeneity"). A low-power "knight" node fronts a primary server:
// demand below the knight's capacity is served by the knight alone with the
// primary suspended; above it, the primary wakes and serves the rest. The
// composite's power-utilisation curve is far more proportional than the
// primary's own — EP beyond what single-server engineering reaches (the
// "wall").
#pragma once

#include <cstddef>

#include "cluster/fleet.h"
#include "dataset/record.h"
#include "metrics/power_curve.h"
#include "util/result.h"

namespace epserve::cluster {

struct KnightShiftConfig {
  /// Knight capacity as a fraction of the primary's peak ops (Wong's
  /// KnightShift prototype: ~15%).
  double knight_capacity_fraction = 0.15;
  /// Knight peak power as a fraction of the primary's peak power.
  double knight_power_fraction = 0.08;
  /// Knight idle power as a fraction of its own peak power.
  double knight_idle_fraction = 0.30;
  /// Residual power of the suspended primary (S3-like) as a fraction of the
  /// primary's peak power.
  double primary_suspend_fraction = 0.03;
};

/// The composite's measurement sheet at the eleven SPECpower points, where
/// utilisation is relative to the COMPOSITE peak throughput (primary peak +
/// knight peak). Fails on non-physical configuration.
///
/// The Fleet overload takes the primary by index and reads peak ops/watts
/// from the fleet columns; the shared-regime power lookups run as one batch
/// against the primary's grid row. The record overload is
/// a thin wrapper over a one-server Fleet::build, so an invalid primary
/// curve fails there ("server N: ..."); both produce identical curves.
epserve::Result<metrics::PowerCurve> knightshift_curve(
    const Fleet& fleet, std::size_t primary_index,
    const KnightShiftConfig& config = {});
epserve::Result<metrics::PowerCurve> knightshift_curve(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config = {});

/// EP of the composite vs the primary alone (convenience).
struct KnightShiftComparison {
  double primary_ep = 0.0;
  double composite_ep = 0.0;
  double primary_idle_fraction = 0.0;
  double composite_idle_fraction = 0.0;
};

/// Fleet overload: the primary's own EP / idle fraction come straight from
/// the fleet's derived columns instead of being recomputed per call.
epserve::Result<KnightShiftComparison> compare_knightshift(
    const Fleet& fleet, std::size_t primary_index,
    const KnightShiftConfig& config = {});
epserve::Result<KnightShiftComparison> compare_knightshift(
    const dataset::ServerRecord& primary, const KnightShiftConfig& config = {});

}  // namespace epserve::cluster
