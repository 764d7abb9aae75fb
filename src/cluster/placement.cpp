#include "cluster/placement.h"

#include <algorithm>
#include <cstdint>

#include "metrics/simd/kernels.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace epserve::cluster {

namespace {

/// One greedy stage down a cached order, as the scatter fill ran it: the
/// server at rank r sits at `base(r)` with room up to `cap(r)`; ranks
/// without headroom are skipped, the others take min(headroom ops,
/// remaining) best-first until nothing remains. Returns the cut — every
/// rank below it took its whole headroom — and, when the walk stopped on a
/// rank, that rank's utilisation once it took what remained (`remaining`
/// is then 0). Every expression is the greedy's own, so each value and
/// each `remaining -= take` step is bitwise the scatter fill's.
template <typename Base, typename Cap>
SlotCut walk(std::span<const double> ranked_peak, Base base, Cap cap,
             double& remaining, std::uint64_t& walked) {
  SlotCut slot;
  std::size_t r = 0;
  for (; r < ranked_peak.size() && remaining > 0.0; ++r) {
    const double util = base(r);
    const double headroom_util = cap(r) - util;
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * ranked_peak[r];
    if (headroom_ops >= remaining) {  // takes what remains
      slot.partial = util + remaining / ranked_peak[r];
      remaining = 0.0;
      walked += r + 1;
      slot.cut = r;
      return slot;
    }
    remaining -= headroom_ops;
  }
  walked += r;
  slot.cut = r;
  return slot;
}

/// Server-major power accounting of a placement: each server's grid row
/// covers every slot. Each slot's sums accumulate in server index order,
/// so totals match a per-slot loop bitwise — the axpy kernel is
/// element-wise (acc[d] += x[d] * s, no cross-lane reduction), so every
/// variant produces the scalar loop's bytes. Servers go through the power
/// kernel in blocks: one normalized_power_matrix call per block amortises
/// kernel dispatch over kBlockServers rows while the block's clamped/norm
/// matrices stay cache-resident.
std::vector<Assignment> accumulate(const Fleet& fleet,
                                   const Placement& placement) {
  constexpr std::size_t kBlockServers = 256;
  const metrics::kernels::Kernels& kernel = metrics::kernels::active();
  const std::span<const double> peak_watts_col = fleet.peak_watts();
  const std::span<const double> peak_ops_col = fleet.peak_ops();
  const std::size_t slots = placement.slots.size();
  std::vector<double> clamped(kBlockServers * slots);
  std::vector<double> norm(kBlockServers * slots);
  std::vector<double> power_acc(slots, 0.0);
  std::vector<double> ops_acc(slots, 0.0);
  for (std::size_t i0 = 0; i0 < fleet.size(); i0 += kBlockServers) {
    const std::size_t count = std::min(kBlockServers, fleet.size() - i0);
    const std::span<double> block(clamped.data(), count * slots);
    placement.fill(fleet, i0, count, 0, slots, block);
    for (double& u : block) u = std::clamp(u, 0.0, 1.0);
    fleet.normalized_power_matrix(
        i0, count, block, std::span<double>(norm.data(), count * slots),
        slots);
    for (std::size_t r = 0; r < count; ++r) {
      kernel.axpy(power_acc.data(), norm.data() + r * slots,
                  peak_watts_col[i0 + r], slots);
      kernel.axpy(ops_acc.data(), clamped.data() + r * slots,
                  peak_ops_col[i0 + r], slots);
    }
  }
  std::vector<Assignment> out(slots);
  for (std::size_t d = 0; d < slots; ++d) {
    out[d].total_power_watts = power_acc[d];
    out[d].total_ops = ops_acc[d];
  }
  return out;
}

}  // namespace

void Placement::fill(const Fleet& fleet, std::size_t i0, std::size_t count,
                     std::size_t first, std::size_t num,
                     std::span<double> out) const {
  EPSERVE_EXPECTS(i0 + count <= fleet.size());
  EPSERVE_EXPECTS(first + num <= slots.size() && out.size() == count * num);
  const SlotCut* cuts = slots.data() + first;
  if (shape == Shape::kConstant) {
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t d = 0; d < num; ++d) out[r * num + d] = cuts[d].partial;
    }
    return;
  }
  const std::span<const std::size_t> ranks = fleet.rank(key);
  if (shape == Shape::kPack) {
    // A full server took its whole peak_ops: take / peak_ops is exactly 1.
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t rank = ranks[i0 + r];
      double* row = out.data() + r * num;
      for (std::size_t d = 0; d < num; ++d) {
        row[d] = rank < cuts[d].cut    ? 1.0
                 : rank == cuts[d].cut ? cuts[d].partial
                                       : 0.0;
      }
    }
    return;
  }
  const std::span<const double> stage1 = region->utilization;
  const std::span<const double> peak_ops = fleet.peak_ops();
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t i = i0 + r;
    const std::size_t rank = ranks[i];
    const double u1 = stage1[i];
    // Stage 2 tops a server up from u1 with the greedy's expression. u1 <= 1
    // (the rounded top * p never exceeds p), and a zero headroom adds 0.0,
    // so the greedy's headroom skip needs no branch here.
    const double full = u1 + ((1.0 - u1) * peak_ops[i]) / peak_ops[i];
    double* row = out.data() + r * num;
    for (std::size_t d = 0; d < num; ++d) {
      const SlotCut& c = cuts[d];
      row[d] = rank < c.cut    ? (c.spill ? full : u1)
               : rank == c.cut ? c.partial
                               : (c.spill ? u1 : 0.0);
    }
  }
}

std::vector<double> PlacementPolicy::place(const Fleet& fleet,
                                           double demand) const {
  const Placement placement =
      place_batch(fleet, std::span<const double>(&demand, 1));
  std::vector<double> util(fleet.size());
  placement.fill(fleet, 0, fleet.size(), 0, 1, util);
  return util;
}

Placement PackToFullPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  Placement placement;
  placement.shape = Placement::Shape::kPack;
  placement.key = Fleet::OrderKey::kEeAtFull;
  const std::span<const double> peak = fleet.ranked_peak_ops(placement.key);
  const telemetry::Span span("placement.cuts");
  std::uint64_t walked = 0;
  placement.slots.reserve(demands.size());
  for (const double demand : demands) {
    double remaining = demand * fleet.capacity_ops();
    placement.slots.push_back(walk(
        peak, [](std::size_t) { return 0.0; },
        [](std::size_t) { return 1.0; }, remaining, walked));
  }
  telemetry::count("placement.cut_ranks", walked);
  return placement;
}

Placement BalancedPolicy::place_batch(const Fleet& /*fleet*/,
                                      std::span<const double> demands) const {
  Placement placement;
  placement.shape = Placement::Shape::kConstant;
  placement.slots.reserve(demands.size());
  for (const double demand : demands) {
    placement.slots.push_back(SlotCut{0, demand, false});
  }
  return placement;
}

Placement OptimalRegionPolicy::place_batch(
    const Fleet& fleet, std::span<const double> demands) const {
  Placement placement;
  placement.shape = Placement::Shape::kRegion;
  placement.key = Fleet::OrderKey::kPeakEe;
  placement.region = &fleet.optimal_region_tops(ee_threshold_);
  const std::span<const double> peak = fleet.ranked_peak_ops(placement.key);
  const std::span<const double> top = placement.region->ranked_top;
  const telemetry::Span span("placement.cuts");
  std::uint64_t walked = 0;
  placement.slots.reserve(demands.size());
  for (const double demand : demands) {
    double remaining = demand * fleet.capacity_ops();
    // Stage 1: fill servers up to the top of their optimal region, best
    // peak EE first.
    SlotCut slot = walk(
        peak, [](std::size_t) { return 0.0; },
        [&](std::size_t r) { return top[r]; }, remaining, walked);
    // Stage 2: demand exceeding the regions' capacity (stage 1 walked every
    // rank) spills into full packing from each server's stage-1 value.
    if (remaining > 0.0) {
      slot = walk(
          peak,
          [&](std::size_t r) {
            return Fleet::RegionTops::loaded(top[r], peak[r]);
          },
          [](std::size_t) { return 1.0; }, remaining, walked);
      slot.spill = true;
    }
    placement.slots.push_back(slot);
  }
  telemetry::count("placement.cut_ranks", walked);
  return placement;
}

Result<Placement> checked_place_batch(const PlacementPolicy& policy,
                                      const Fleet& fleet,
                                      std::span<const double> demands) {
  for (const double demand : demands) {
    if (!(demand >= 0.0 && demand <= 1.0)) {  // NaN fails too
      return Error::invalid_argument("demand must be in [0, 1]");
    }
  }
  return policy.place_batch(fleet, demands);
}

std::vector<Assignment> evaluate_placement(const Fleet& fleet,
                                           const Placement& placement) {
  const telemetry::Span span("evaluate_batch");
  telemetry::count("fleet.batch_evals");
  telemetry::count("cluster.evaluate_batch.calls");
  telemetry::count("cluster.evaluations",
                   fleet.size() * placement.slots.size());
  return accumulate(fleet, placement);
}

Result<Assignment> evaluate(const PlacementPolicy& policy, const Fleet& fleet,
                            double demand) {
  auto placed =
      checked_place_batch(policy, fleet, std::span<const double>(&demand, 1));
  if (!placed.ok()) return placed.error();
  Assignment assignment = accumulate(fleet, placed.value()).front();
  assignment.utilization.resize(fleet.size());
  placed.value().fill(fleet, 0, fleet.size(), 0, 1, assignment.utilization);
  return assignment;
}

Result<std::vector<Assignment>> evaluate_batch(const PlacementPolicy& policy,
                                               const Fleet& fleet,
                                               std::span<const double> demands) {
  auto placed = checked_place_batch(policy, fleet, demands);
  if (!placed.ok()) return placed.error();
  return evaluate_placement(fleet, placed.value());
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
