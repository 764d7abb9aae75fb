// Ensemble autoscaling (paper ref [11], Tolia et al.: "delivering energy
// proportionality with non energy-proportional systems — optimizing the
// ensemble"). Placement policies keep every server powered (idle costs the
// idle floor); the autoscaler instead powers servers fully OFF outside the
// active set, making the *ensemble* proportional even when its members are
// not. With a wake penalty, thrash is rate-limited by hysteresis.
#pragma once

#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

struct AutoscalerConfig {
  /// Target utilisation for powered-on servers (the §V.C operating point).
  double target_utilization = 0.7;
  /// Energy cost of waking one server, in watt-hours (boot burst).
  double wake_penalty_wh = 15.0;
  /// Hysteresis: only power servers down when the active set exceeds the
  /// needed count by more than this many machines.
  int hysteresis_servers = 1;
};

/// One trace slot's scaling decision.
struct ScaleSlot {
  double demand = 0.0;
  int active_servers = 0;
  double power_watts = 0.0;   // active servers' power (off servers draw 0)
  double wakes = 0.0;         // servers woken entering this slot
};

struct AutoscaleResult {
  std::vector<ScaleSlot> slots;
  double energy_kwh = 0.0;      // including wake penalties
  double served_gops = 0.0;
  double avg_efficiency = 0.0;  // ops per joule
};

/// Runs the autoscaler over a demand trace against a prebuilt Fleet. Servers
/// are ordered by overall EE (best first; the fleet's cached
/// Fleet::OrderKey::kOverallScore order) and the active prefix serves the
/// demand, each active machine at min(1, demand_ops / active_capacity).
/// Power is accounted server-major through the fleet's grid rows: one
/// batched evaluation per server covers every slot it is active in. Fails on an empty trace, an out-of-range target, or a slot demand
/// outside [0, 1] (NaN included).
epserve::Result<AutoscaleResult> autoscale_over_day(
    const Fleet& fleet, const DemandTrace& trace,
    const AutoscalerConfig& config = {});

}  // namespace epserve::cluster
