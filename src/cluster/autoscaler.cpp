#include "cluster/autoscaler.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/telemetry.h"

namespace epserve::cluster {

Result<AutoscaleResult> autoscale_over_day(const Fleet& fleet,
                                           const DemandTrace& trace,
                                           const AutoscalerConfig& config) {
  if (trace.demand.empty()) return Error::invalid_argument("trace is empty");
  if (!(trace.slot_hours > 0.0)) {
    return Error::invalid_argument("slot length must be positive");
  }
  if (!(config.target_utilization > 0.0 &&
        config.target_utilization <= 1.0)) {
    return Error::invalid_argument("target utilisation must be in (0, 1]");
  }
  if (config.wake_penalty_wh < 0.0 || config.hysteresis_servers < 0) {
    return Error::invalid_argument("penalty/hysteresis must be non-negative");
  }
  const telemetry::Span policy_span("cluster/policy/autoscaler",
                                    telemetry::Span::Scope::kRoot);
  const telemetry::Span span("autoscale_over_day");
  telemetry::count("cluster.autoscale.slots", trace.demand.size());

  const std::size_t n = fleet.size();
  const std::size_t num_slots = trace.demand.size();

  // Servers best-overall-EE first (the fleet's cached order); the active set
  // is always a prefix.
  const std::span<const std::size_t> order =
      fleet.order(Fleet::OrderKey::kOverallScore);

  // prefix[k] = capacity of the k best servers, summed in rank order — the
  // same additions (and therefore the same doubles) as growing the active
  // prefix one server at a time.
  const std::span<const double> ranked_peak_ops =
      fleet.ranked_peak_ops(Fleet::OrderKey::kOverallScore);
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    prefix[k + 1] = prefix[k] + ranked_peak_ops[k];
  }

  const double fleet_capacity = fleet.capacity_ops();

  // Pass 1 — per-slot scaling decisions (scalar, no curve evaluations):
  // validate demand, size the active prefix, apply hysteresis, record
  // utilisation and served ops.
  AutoscaleResult result;
  result.slots.resize(num_slots);
  std::vector<double> slot_utilization(num_slots, 0.0);
  std::vector<double> slot_served_ops(num_slots, 0.0);
  int active = 0;
  for (std::size_t s = 0; s < num_slots; ++s) {
    const double demand = trace.demand[s];
    if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
      return Error::invalid_argument("trace demand outside [0, 1]");
    }
    const double demand_ops = demand * fleet_capacity;

    // Smallest prefix whose capacity at the target utilisation covers the
    // demand (the whole fleet at full tilt as a last resort). prefix is
    // non-decreasing, so the predicate is partitioned over [0, n).
    const int needed = static_cast<int>(
        std::partition_point(prefix.begin(), prefix.end() - 1,
                             [&](double capacity) {
                               return capacity * config.target_utilization <
                                      demand_ops;
                             }) -
        prefix.begin());

    // Hysteresis: grow immediately, shrink only past the band.
    int next_active = active;
    if (needed > active) {
      next_active = needed;
    } else if (active - needed > config.hysteresis_servers) {
      next_active = needed;
    }
    const double wakes = std::max(0, next_active - active);
    active = std::max(next_active, demand_ops > 0.0 ? 1 : 0);

    // Spread the demand over the active prefix proportionally to capacity.
    const double active_capacity = prefix[static_cast<std::size_t>(active)];
    const double utilization =
        active_capacity > 0.0
            ? std::min(1.0, demand_ops / active_capacity)
            : 0.0;
    slot_utilization[s] = utilization;
    slot_served_ops[s] = std::min(demand_ops, active_capacity);

    ScaleSlot& slot = result.slots[s];
    slot.demand = demand;
    slot.active_servers = active;
    slot.wakes = wakes;
  }

  // Pass 2 — server-major power: for each prefix position j, one batched
  // table evaluation covers every slot whose active set includes order[j].
  // Slots are visited stable-sorted by active_servers, descending, so the
  // slots awake at position j are a prefix of that list that only shrinks
  // as j grows. Each slot still accumulates its contributions in ascending
  // j — the order the scalar per-slot loop added them — so slot powers match
  // bitwise.
  std::vector<std::size_t> by_active(num_slots);
  std::iota(by_active.begin(), by_active.end(), std::size_t{0});
  std::stable_sort(by_active.begin(), by_active.end(),
                   [&](std::size_t a, std::size_t b) {
                     return result.slots[a].active_servers >
                            result.slots[b].active_servers;
                   });
  std::vector<double> utils(num_slots);
  for (std::size_t k = 0; k < num_slots; ++k) {
    utils[k] = slot_utilization[by_active[k]];
  }
  std::vector<double> norm(num_slots);
  std::vector<double> power(num_slots, 0.0);
  const std::span<const double> peak_watts = fleet.peak_watts();
  std::size_t awake = num_slots;
  // Rows ahead of the walk are fetched early: order[] jumps around the
  // fleet, so the hardware prefetcher cannot follow it.
  constexpr std::size_t kPrefetchAhead = 16;
  for (std::size_t j = 0; j < n; ++j) {
    while (awake > 0 &&
           static_cast<std::size_t>(
               result.slots[by_active[awake - 1]].active_servers) <= j) {
      --awake;
    }
    if (awake == 0) break;
    if (j + kPrefetchAhead < n) {
      const auto ahead = fleet.grid_row(order[j + kPrefetchAhead]);
      __builtin_prefetch(ahead.w0);
      __builtin_prefetch(ahead.m);
    }
    fleet.normalized_power_batch(order[j],
                                 std::span<const double>(utils.data(), awake),
                                 std::span<double>(norm.data(), awake));
    const double watts = peak_watts[order[j]];
    for (std::size_t k = 0; k < awake; ++k) power[k] += norm[k] * watts;
  }
  for (std::size_t k = 0; k < num_slots; ++k) {
    result.slots[by_active[k]].power_watts = power[k];
  }

  // Pass 3 — energy/served accounting in slot order (the legacy per-slot
  // accumulation sequence).
  for (std::size_t s = 0; s < num_slots; ++s) {
    result.energy_kwh +=
        result.slots[s].power_watts * trace.slot_hours / 1000.0 +
        result.slots[s].wakes * config.wake_penalty_wh / 1000.0;
    result.served_gops += slot_served_ops[s] * trace.slot_hours * 3600.0 / 1e9;
  }
  const double joules = result.energy_kwh * 3.6e6;
  result.avg_efficiency =
      joules > 0.0 ? result.served_gops * 1e9 / joules : 0.0;
  return result;
}

}  // namespace epserve::cluster
