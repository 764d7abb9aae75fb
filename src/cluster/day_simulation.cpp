#include "cluster/day_simulation.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/telemetry.h"

namespace epserve::cluster {

Result<DayResult> simulate_day(const PlacementPolicy& policy,
                               const Fleet& fleet, const DemandTrace& trace,
                               const IdleModel& idle) {
  if (trace.demand.empty()) {
    return Error::invalid_argument("trace has no slots");
  }
  if (!(trace.slot_hours > 0.0)) {
    return Error::invalid_argument("slot length must be positive");
  }
  // The trivial model (IdleModel::none()) skips the idle pass entirely, so
  // that path stays bit-identical to the pre-idle-model accounting.
  const bool idle_aware = !idle.trivial();
  if (idle_aware) {
    if (auto valid = idle.validate(); !valid.ok()) return valid.error();
  }
  // Root scope: the policy's whole day reads as `cluster/policy/<name>`
  // whether it runs on the calling thread or a pool worker.
  const telemetry::Span policy_span("cluster/policy/", policy.name(),
                                    telemetry::Span::Scope::kRoot);
  const telemetry::Span span("simulate_day");
  telemetry::count("cluster.day.slots", trace.demand.size());
  DayResult result;
  result.policy = policy.name();
  // One placement and one batched evaluation for the whole trace: the
  // policy's cuts and the fleet's grid rows serve every (server, slot) pair.
  auto placed = checked_place_batch(policy, fleet, trace.demand);
  if (!placed.ok()) return placed.error();
  const Placement& placement = placed.value();
  for (const auto& assignment : evaluate_placement(fleet, placement)) {
    result.energy_kwh +=
        assignment.total_power_watts * trace.slot_hours / 1000.0;
    result.served_gops +=
        assignment.total_ops * trace.slot_hours * 3600.0 / 1e9;
  }
  if (idle_aware) {
    // Idle pass, server-index order per slot (deterministic): a parked
    // server (exact utilisation 0.0 — the evaluators charge it active idle
    // power) drops to the deepest state the trace's cap allows; the
    // parked->active transition charges the state's wake energy and
    // forfeits the wake_latency_s head of the slot's served work.
    // Each slot's utilisations are rebuilt from the placement's cuts a
    // block of servers at a time (Placement::fill), unclamped, as the
    // policy placed them.
    const double slot_seconds = trace.slot_hours * 3600.0;
    const auto idle_watts = fleet.idle_watts();
    const auto peak_ops = fleet.peak_ops();
    constexpr std::size_t kBlockServers = 1024;
    std::vector<double> block(kBlockServers);
    std::vector<int> parked_state(fleet.size(), -1);  // -1 = active
    for (std::size_t s = 0; s < placement.slots.size(); ++s) {
      const int cap = trace.idle_state_cap(s, idle.deepest());
      const IdleState& state = idle.states[static_cast<std::size_t>(cap)];
      for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
        const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
        placement.fill(fleet, i0, count, s, 1,
                       std::span<double>(block.data(), count));
        for (std::size_t i = i0; i < i0 + count; ++i) {
          const double u = block[i - i0];
          if (u == 0.0) {
            result.energy_kwh += idle_watts[i] *
                                 (state.power_fraction - 1.0) *
                                 trace.slot_hours / 1000.0;
            result.idle_energy_kwh += idle_watts[i] * state.power_fraction *
                                      trace.slot_hours / 1000.0;
            parked_state[i] = cap;
            continue;
          }
          if (parked_state[i] >= 0) {
            const IdleState& from =
                idle.states[static_cast<std::size_t>(parked_state[i])];
            result.wake_count += 1;
            result.wake_energy_kwh += from.wake_energy_j / 3.6e6;
            result.energy_kwh += from.wake_energy_j / 3.6e6;
            const double gap =
                std::min(from.wake_latency_s, slot_seconds) / slot_seconds;
            const double lost =
                u * peak_ops[i] * gap * trace.slot_hours * 3600.0 / 1e9;
            result.wake_lost_gops += lost;
            result.served_gops -= lost;
          }
          parked_state[i] = -1;
        }
      }
    }
    telemetry::count("cluster.day.wakes", result.wake_count);
  }
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency = joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

Result<std::vector<DayResult>> compare_policies_over_day(
    const Fleet& fleet, const DemandTrace& trace, const IdleModel& idle) {
  const PackToFullPolicy pack;
  const BalancedPolicy balanced;
  const OptimalRegionPolicy optimal;
  std::vector<DayResult> results;
  for (const PlacementPolicy* policy :
       std::initializer_list<const PlacementPolicy*>{&pack, &balanced,
                                                     &optimal}) {
    auto day = simulate_day(*policy, fleet, trace, idle);
    if (!day.ok()) return day.error();
    results.push_back(std::move(day).take());
  }
  return results;
}

}  // namespace epserve::cluster
