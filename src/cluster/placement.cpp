#include "cluster/placement.h"

#include <algorithm>

#include "metrics/simd/kernels.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// Greedy fill: walk servers in `order`, loading each up to its cap (ops),
/// until `remaining_ops` is exhausted. Adds to existing utilisations.
void greedy_fill(const Fleet& fleet, std::span<const std::size_t> order,
                 const std::vector<double>& cap_util,
                 std::vector<double>& util, double& remaining_ops) {
  const std::span<const double> peak_ops = fleet.peak_ops();
  for (const auto idx : order) {
    if (remaining_ops <= 0.0) break;
    const double headroom_util = cap_util[idx] - util[idx];
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * peak_ops[idx];
    const double take = std::min(headroom_ops, remaining_ops);
    util[idx] += take / peak_ops[idx];
    remaining_ops -= take;
  }
}

}  // namespace

std::vector<double> PlacementPolicy::place(const Fleet& fleet,
                                           double demand) const {
  auto placed = place_batch(fleet, std::span<const double>(&demand, 1));
  EPSERVE_ENSURES(placed.size() == 1);
  return std::move(placed.front());
}

std::vector<std::vector<double>> PackToFullPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  const auto order = fleet.order(Fleet::OrderKey::kEeAtFull);
  const std::vector<double> caps(fleet.size(), 1.0);
  std::vector<std::vector<double>> out;
  out.reserve(demands.size());
  for (const double demand : demands) {
    std::vector<double> util(fleet.size(), 0.0);
    double remaining = demand * fleet.capacity_ops();
    greedy_fill(fleet, order, caps, util, remaining);
    out.push_back(std::move(util));
  }
  return out;
}

std::vector<std::vector<double>> BalancedPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  std::vector<std::vector<double>> out;
  out.reserve(demands.size());
  for (const double demand : demands) {
    out.emplace_back(fleet.size(), demand);
  }
  return out;
}

std::vector<std::vector<double>> OptimalRegionPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  // Demand-independent state: region tops once per batch, and the fleet's
  // cached peak-EE order, which both greedy stages walk.
  const std::vector<double> region_top =
      fleet.optimal_region_tops(ee_threshold_);
  const auto order = fleet.order(Fleet::OrderKey::kPeakEe);
  const std::vector<double> caps(fleet.size(), 1.0);

  std::vector<std::vector<double>> out;
  out.reserve(demands.size());
  for (const double demand : demands) {
    std::vector<double> util(fleet.size(), 0.0);
    double remaining = demand * fleet.capacity_ops();

    // Stage 1: fill servers up to the top of their optimal region, best peak
    // EE first.
    greedy_fill(fleet, order, region_top, util, remaining);

    // Stage 2: demand exceeding the regions' capacity spills into full
    // packing.
    if (remaining > 0.0) {
      greedy_fill(fleet, order, caps, util, remaining);
    }
    out.push_back(std::move(util));
  }
  return out;
}

Result<Assignment> evaluate(const PlacementPolicy& policy, const Fleet& fleet,
                            double demand) {
  if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
    return Error::invalid_argument("demand must be in [0, 1]");
  }
  Assignment assignment;
  assignment.utilization = policy.place(fleet, demand);
  if (assignment.utilization.size() != fleet.size()) {
    return Error::failed_precondition("policy returned a misaligned vector");
  }
  const std::span<const double> peak_watts = fleet.peak_watts();
  const std::span<const double> peak_ops = fleet.peak_ops();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double u = assignment.utilization[i];
    if (u < -1e-9 || u > 1.0 + 1e-9) {
      return Error::failed_precondition("policy produced utilisation outside [0,1]");
    }
    const double clamped = std::clamp(u, 0.0, 1.0);
    assignment.total_power_watts +=
        fleet.normalized_power(i, clamped) * peak_watts[i];
    assignment.total_ops += clamped * peak_ops[i];
  }
  return assignment;
}

Result<std::vector<Assignment>> evaluate_batch(const PlacementPolicy& policy,
                                               const Fleet& fleet,
                                               std::span<const double> demands) {
  const telemetry::Span span("evaluate_batch");
  telemetry::count("fleet.batch_evals");
  telemetry::count("cluster.evaluate_batch.calls");
  telemetry::count("cluster.evaluations", fleet.size() * demands.size());
  for (const double demand : demands) {
    if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
      return Error::invalid_argument("demand must be in [0, 1]");
    }
  }
  std::vector<Assignment> out(demands.size());
  auto placed = policy.place_batch(fleet, demands);
  if (placed.size() != demands.size()) {
    return Error::failed_precondition("policy returned a misaligned batch");
  }
  for (std::size_t d = 0; d < demands.size(); ++d) {
    out[d].utilization = std::move(placed[d]);
    if (out[d].utilization.size() != fleet.size()) {
      return Error::failed_precondition("policy returned a misaligned vector");
    }
    for (const double u : out[d].utilization) {
      if (u < -1e-9 || u > 1.0 + 1e-9) {
        return Error::failed_precondition(
            "policy produced utilisation outside [0,1]");
      }
    }
  }
  // Server-major accounting: each server's grid row covers every demand
  // point. Each slot's sums still accumulate in server index
  // order, so totals match evaluate() bitwise — the axpy kernel is
  // element-wise (acc[d] += x[d] * s, no cross-lane reduction), so every
  // variant produces the scalar loop's bytes. Servers go through the power
  // kernel in blocks: one normalized_power_matrix call per block amortises
  // kernel dispatch over kBlockServers rows while the block's clamped/norm
  // matrices stay cache-resident.
  constexpr std::size_t kBlockServers = 256;
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  const std::span<const double> peak_watts_col = fleet.peak_watts();
  const std::span<const double> peak_ops_col = fleet.peak_ops();
  const std::size_t slots = demands.size();
  std::vector<double> clamped(kBlockServers * slots);
  std::vector<double> norm(kBlockServers * slots);
  std::vector<double> power_acc(slots, 0.0);
  std::vector<double> ops_acc(slots, 0.0);
  for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t d = 0; d < slots; ++d) {
        clamped[r * slots + d] =
            std::clamp(out[d].utilization[i0 + r], 0.0, 1.0);
      }
    }
    fleet.normalized_power_matrix(
        i0, count, std::span<const double>(clamped.data(), count * slots),
        std::span<double>(norm.data(), count * slots), slots);
    for (std::size_t r = 0; r < count; ++r) {
      kernel.axpy(power_acc.data(), norm.data() + r * slots,
                  peak_watts_col[i0 + r], slots);
      kernel.axpy(ops_acc.data(), clamped.data() + r * slots,
                  peak_ops_col[i0 + r], slots);
    }
  }
  for (std::size_t d = 0; d < demands.size(); ++d) {
    out[d].total_power_watts = power_acc[d];
    out[d].total_ops = ops_acc[d];
  }
  return out;
}

Result<metrics::PowerCurve> cluster_power_curve(const PlacementPolicy& policy,
                                                const Fleet& fleet) {
  std::array<double, metrics::kNumLoadLevels> watts{};
  std::array<double, metrics::kNumLoadLevels> ops{};
  auto assignments = evaluate_batch(policy, fleet, metrics::kLoadLevels);
  if (!assignments.ok()) return assignments.error();
  for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = assignments.value()[i].total_power_watts;
    ops[i] = assignments.value()[i].total_ops;
  }
  // Active idle: every machine idles.
  const double idle = fleet.total_idle_watts();
  // Policies can produce non-monotone aggregate power around the region
  // boundaries; clamp to the physical invariant before validating.
  for (std::size_t i = 1; i < metrics::kNumLoadLevels; ++i) {
    watts[i] = std::max(watts[i], watts[i - 1]);
    ops[i] = std::max(ops[i], ops[i - 1]);
  }
  metrics::PowerCurve curve(watts, ops, idle);
  if (auto valid = curve.validate(); !valid.ok()) return valid.error();
  return curve;
}

epserve::Result<std::unique_ptr<PlacementPolicy>> make_placement_policy(
    std::string_view name) {
  if (name == "pack-to-full") {
    return std::unique_ptr<PlacementPolicy>(new PackToFullPolicy());
  }
  if (name == "balanced") {
    return std::unique_ptr<PlacementPolicy>(new BalancedPolicy());
  }
  if (name == "optimal-region") {
    return std::unique_ptr<PlacementPolicy>(new OptimalRegionPolicy());
  }
  return Error::not_found(
      "unknown policy '" + std::string(name) +
      "' (expected pack-to-full, balanced, or optimal-region)");
}

}  // namespace epserve::cluster
