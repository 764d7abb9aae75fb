// Optimal working regions (paper §V.C): the utilisation band where a server
// runs at high energy efficiency. The paper recommends keeping servers with
// interior peak EE around their 70%-100% band instead of packing them full,
// and grouping heterogeneous servers into logical clusters whose overlapping
// best regions drive placement.
#pragma once

#include <cstddef>
#include <vector>

#include "dataset/record.h"
#include "util/result.h"

namespace epserve::cluster {

class Fleet;

/// A closed utilisation band [lo, hi].
struct Region {
  double lo = 0.0;
  double hi = 1.0;

  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] double width() const { return empty() ? 0.0 : hi - lo; }
  [[nodiscard]] bool contains(double u) const { return u >= lo && u <= hi; }
};

/// Intersection of two regions (empty when disjoint).
Region intersect(const Region& a, const Region& b);

/// The utilisation band over which the server's EE (normalised to its peak
/// per-level EE) stays at or above `threshold`. Piecewise-linear EE between
/// measured levels; 0 at utilisation 0. Default threshold 0.95: "within 5%
/// of this machine's best efficiency".
Region optimal_region(const metrics::PowerCurve& curve,
                      double threshold = 0.95);

/// optimal_region() with the curve's peak per-level EE supplied by the
/// caller (e.g. Fleet's peak_ee_value column) instead of recomputed; equal
/// to the two-argument form when `peak` is metrics::peak_ee(curve).value.
Region optimal_region(const metrics::PowerCurve& curve, double peak,
                      double threshold);

/// A logical cluster: servers grouped by EP bucket whose shared (overlapped)
/// optimal region is non-empty (paper §V.C's grouping procedure).
struct LogicalCluster {
  double ep_bucket_lo = 0.0;  // [lo, lo + bucket width)
  std::vector<std::size_t> members;  // fleet row indices, ascending
  Region shared_region;  // intersection of member optimal regions
};

/// Groups servers into EP buckets of `bucket_width` and computes each
/// bucket's shared optimal region. Buckets ascend by EP. Each server's EP is
/// read off the fleet's derived column instead of re-integrating the curve
/// per call, and its curve through fleet.curve(i), so both build() and
/// Builder fleets group alike.
std::vector<LogicalCluster> build_logical_clusters(
    const Fleet& fleet, double bucket_width = 0.1, double ee_threshold = 0.95);

}  // namespace epserve::cluster
