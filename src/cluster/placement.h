// Energy-proportionality-aware workload placement (paper §V.C).
//
// A fleet of heterogeneous servers must serve an aggregate demand expressed
// as a fraction of total fleet capacity. A placement policy decides each
// server's utilisation; the fleet's power is the sum of per-server powers
// read off their measured curves. The paper's claim: for a fixed number of
// racks, EP-aware placement (keep machines inside their optimal working
// region, e.g. at 70% rather than packed full) maximises throughput per watt.
//
// The engine is batch-first over a cluster::Fleet. A policy's core entry
// point is place_batch(fleet, demands), and it returns no utilisation
// vectors: a greedy fill leaves each slot as a rank cut over one of the
// fleet's cached orders (Fleet::order), so place_batch returns one SlotCut
// per demand — pack-to-full's k full servers plus one partial, the
// optimal-region stage-1 prefix at the region tops (or, past the regions'
// capacity, every server at its top plus a stage-2 full-pack prefix and
// one partial), balanced's one constant. Demand-independent work happens
// once per fleet: the orders, their inverse ranks, peak_ops in rank order
// and the region tops are Fleet caches. Placement::fill is the one place a
// per-server utilisation is rebuilt from the cuts; evaluate_batch's power
// accounting, the day simulation's idle pass and place()/evaluate() (the
// serve daemon's `place` response, the power cap) all read it, so nothing
// holds fleet-size x slots utilisations. Every value is recomputed with the
// greedy fill's own expressions and every sum runs in server index order,
// so results are byte-identical to a greedy fill into per-server vectors
// (pinned by tests/golden/cluster_slots_*.txt). Every entry point takes
// `const Fleet&` only, so it never sees an empty fleet or an invalid curve.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.h"
#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

/// Fleet assignment: totals, plus one utilisation per server (aligned with
/// the fleet) when the caller asked for them — evaluate() fills
/// `utilization`, evaluate_batch() leaves it empty.
struct Assignment {
  std::vector<double> utilization;
  double total_power_watts = 0.0;
  double total_ops = 0.0;

  [[nodiscard]] double efficiency() const {
    return total_power_watts > 0.0 ? total_ops / total_power_watts : 0.0;
  }
};

/// One demand point of a placement: the rank cut a greedy fill leaves over
/// the placement's server order. Servers ranked below `cut` are loaded, the
/// server ranked `cut` (if cut < fleet size) runs at `partial`, the rest
/// are not loaded (see Placement for what each shape means by that).
struct SlotCut {
  std::size_t cut = 0;
  double partial = 0.0;
  /// Optimal-region only: demand overflowed the regions, so every server
  /// sits at its region top and the cut ranks the stage-2 full pack.
  bool spill = false;
};

/// A batch of placements, one SlotCut per demand point. Server i's
/// utilisation in slot d, with r = fleet.rank(key)[i] and c = slots[d]:
///   kConstant:  c.partial for every server (balanced; no order);
///   kPack:      r < c.cut: 1.0 (the greedy's take / peak_ops with
///               take == peak_ops); r == c.cut: c.partial; else 0.0;
///   kRegion:    r < c.cut: region->utilization[i]; r == c.cut: c.partial;
///               else 0.0 — or, when c.spill, r < c.cut: the stage-2 full
///               value u1 + ((1 - u1) * p) / p; r == c.cut: c.partial;
///               else u1 = region->utilization[i].
/// Valid while the fleet it was placed on lives (it points into the
/// fleet's caches).
struct Placement {
  enum class Shape { kConstant, kPack, kRegion };
  Shape shape = Shape::kConstant;
  Fleet::OrderKey key = Fleet::OrderKey::kEeAtFull;
  const Fleet::RegionTops* region = nullptr;  // kRegion only
  std::vector<SlotCut> slots;

  /// The one reconstruction of per-server utilisations: for servers
  /// i0..i0+count-1 and slots first..first+num-1, writes
  /// out[r * num + (d - first)], in server index order. `out` must hold
  /// count * num entries.
  void fill(const Fleet& fleet, std::size_t i0, std::size_t count,
            std::size_t first, std::size_t num, std::span<double> out) const;
};

/// Placement policy interface. Each demand is the requested fraction of the
/// fleet's aggregate peak throughput, in [0, 1].
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Batch-first core: one SlotCut (ops summing to demand * capacity) per
  /// demand point. The greedy policies walk the fleet's cached order under
  /// a `placement.cuts` span and count the ranks they walk in
  /// `placement.cut_ranks`.
  [[nodiscard]] virtual Placement place_batch(
      const Fleet& fleet, std::span<const double> demands) const = 0;

  /// Single-demand convenience: place_batch's cut materialised into one
  /// utilisation per server.
  [[nodiscard]] std::vector<double> place(const Fleet& fleet,
                                          double demand) const;
};

/// Packs servers to 100% one at a time, most-efficient-at-full-load first.
class PackToFullPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "pack-to-full"; }
  [[nodiscard]] Placement place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;
};

/// Spreads load uniformly: every server runs at the same utilisation.
class BalancedPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "balanced"; }
  [[nodiscard]] Placement place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;
};

/// §V.C policy: fill servers only up to the top of their optimal working
/// region (ordered by peak EE), packing beyond it only when demand cannot
/// otherwise be met.
class OptimalRegionPolicy final : public PlacementPolicy {
 public:
  explicit OptimalRegionPolicy(double ee_threshold = 0.95)
      : ee_threshold_(ee_threshold) {}
  [[nodiscard]] std::string name() const override { return "optimal-region"; }
  [[nodiscard]] Placement place_batch(
      const Fleet& fleet, std::span<const double> demands) const override;

 private:
  double ee_threshold_;
};

/// Evaluates a policy: computes utilisations, per-curve powers (linear
/// interpolation on the measured sheets; active idle at utilisation 0) and
/// the achieved throughput. Fails if demand is out of [0, 1] or NaN.
epserve::Result<Assignment> evaluate(const PlacementPolicy& policy,
                                     const Fleet& fleet, double demand);

/// Evaluates a policy at many demand points in one call: one place_batch for
/// the placement, then evaluate_placement. Per-slot totals are
/// bit-identical to calling evaluate() per demand; `utilization` is left
/// empty. Fails if any demand is out of [0, 1] or NaN.
epserve::Result<std::vector<Assignment>> evaluate_batch(
    const PlacementPolicy& policy, const Fleet& fleet,
    std::span<const double> demands);

/// evaluate_batch's first half, for callers that also read the placement
/// (the day simulation's idle pass): place_batch after rejecting any demand
/// outside [0, 1] (NaN included) with "demand must be in [0, 1]".
epserve::Result<Placement> checked_place_batch(
    const PlacementPolicy& policy, const Fleet& fleet,
    std::span<const double> demands);

/// evaluate_batch's second half, under its `evaluate_batch` span and
/// counters. Totals of a placement (utilisation clamped to [0, 1] per server):
/// server-major power accounting through the fleet's grid rows, one kernel
/// call per block of servers covering every slot, each slot summed in
/// server index order. `utilization` is left empty.
std::vector<Assignment> evaluate_placement(const Fleet& fleet,
                                           const Placement& placement);

/// Policy lookup by wire/CLI name ("pack-to-full", "balanced",
/// "optimal-region"): the one place a policy string becomes a policy object
/// (used by the serve daemon's place/powercap requests). kNotFound lists
/// the valid names on a miss.
epserve::Result<std::unique_ptr<PlacementPolicy>> make_placement_policy(
    std::string_view name);

/// Aggregate fleet power at a fleet-wide demand under a policy — evaluated
/// at the eleven SPECpower points this library uses everywhere — exposed as
/// a PowerCurve so cluster-wide EP (Eq.1) applies directly.
epserve::Result<metrics::PowerCurve> cluster_power_curve(
    const PlacementPolicy& policy, const Fleet& fleet);

}  // namespace epserve::cluster
