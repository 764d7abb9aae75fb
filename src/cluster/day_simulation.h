// Diurnal placement simulation: drive a fleet through a demand trace under
// each placement policy and account the energy. This turns the paper's §V.C
// guidance into the quantity an operator actually pays for — kWh per day of
// served work — instead of a single-point efficiency number.
//
// Traces come from the registry in cluster/trace.h (diurnal, flash_crowd,
// weekly, scale_out); the optional IdleModel (cluster/idle_model.h) lets
// parked servers sleep below active idle and charges the wake cost when a
// burst recalls them. IdleModel::none() reproduces the pre-idle-model
// accounting bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "util/result.h"

namespace epserve::cluster {

/// Energy accounting for one policy over one trace repetition.
struct DayResult {
  std::string policy;
  double energy_kwh = 0.0;       // fleet energy over the trace
  double served_gops = 0.0;      // integral of served throughput (Gops)
  double avg_efficiency = 0.0;   // served ops per joule (ops/J)

  // Idle-model accounting (all zero under IdleModel::none()):
  double idle_energy_kwh = 0.0;  // residency energy charged to parked servers
  double wake_energy_kwh = 0.0;  // transition energy across all wakes
  double wake_lost_gops = 0.0;   // work lost to wake latency (deducted above)
  std::uint64_t wake_count = 0;  // parked->active transitions
};

/// Runs the trace under a policy against a prebuilt Fleet — the whole day is
/// one place_batch (a rank cut per slot) plus one evaluate_placement over
/// the fleet's grid rows, recorded under the `cluster/policy/<name>` root
/// telemetry span. No fleet-size x slots utilisation matrix is ever held.
/// Fails on an empty trace or demand outside [0, 1].
///
/// With a non-trivial IdleModel, a parked server (exact utilisation 0.0)
/// occupies the deepest state allowed by trace.idle_state_cap(slot): its
/// slot energy scales by the state's power_fraction, and a parked->active
/// transition charges the state's wake_energy_j and forfeits the server's
/// served work for the wake_latency_s head of the slot. The idle pass
/// rebuilds each slot's utilisations from the cuts through Placement::fill,
/// a block of servers at a time, in server index order.
epserve::Result<DayResult> simulate_day(const PlacementPolicy& policy,
                                        const Fleet& fleet,
                                        const DemandTrace& trace,
                                        const IdleModel& idle = IdleModel::none());

/// Convenience: all three built-in policies on the same fleet/trace. The
/// Fleet is shared across the three runs (built once by the caller).
epserve::Result<std::vector<DayResult>> compare_policies_over_day(
    const Fleet& fleet, const DemandTrace& trace,
    const IdleModel& idle = IdleModel::none());

}  // namespace epserve::cluster
