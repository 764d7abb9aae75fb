// Property sweep over placement policies: conservation and bounds must hold
// for every (fleet slice, policy, demand) combination drawn from the
// generated population.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/placement.h"
#include "dataset/generator.h"
#include "metrics/proportionality.h"

namespace epserve::cluster {
namespace {

const std::vector<dataset::ServerRecord>& population() {
  static const std::vector<dataset::ServerRecord> records = [] {
    auto result = dataset::generate_population();
    EXPECT_TRUE(result.ok());
    return std::move(result).take();
  }();
  return records;
}

std::vector<dataset::ServerRecord> fleet_slice(std::size_t start,
                                               std::size_t size) {
  const auto& records = population();
  std::vector<dataset::ServerRecord> fleet;
  for (std::size_t i = 0; i < size; ++i) {
    fleet.push_back(records[(start + i * 37) % records.size()]);
  }
  return fleet;
}

const PlacementPolicy& policy_by_name(const std::string& name) {
  static const PackToFullPolicy pack;
  static const BalancedPolicy balanced;
  static const OptimalRegionPolicy optimal;
  if (name == "pack") return pack;
  if (name == "balanced") return balanced;
  return optimal;
}

// (policy, fleet start offset, demand)
using PlacementCase = std::tuple<std::string, int, double>;

class PlacementSweep : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(PlacementSweep, ConservationAndBounds) {
  const auto& [policy_name, offset, demand] = GetParam();
  const auto fleet = fleet_slice(static_cast<std::size_t>(offset), 16);
  const auto& policy = policy_by_name(policy_name);

  const auto assignment = evaluate(policy, Fleet::build(fleet).value(), demand);
  ASSERT_TRUE(assignment.ok()) << assignment.error().message;

  // Utilisations within [0, 1].
  ASSERT_EQ(assignment.value().utilization.size(), fleet.size());
  for (const double u : assignment.value().utilization) {
    EXPECT_GE(u, -1e-12);
    EXPECT_LE(u, 1.0 + 1e-12);
  }

  // Work conservation: served ops equal demand * capacity.
  double capacity = 0.0;
  for (const auto& s : fleet) capacity += s.curve.peak_ops();
  EXPECT_NEAR(assignment.value().total_ops, demand * capacity,
              capacity * 1e-9);

  // Power bracketing: between all-idle and all-peak.
  double idle_floor = 0.0;
  double peak_ceiling = 0.0;
  for (const auto& s : fleet) {
    idle_floor += s.curve.idle_watts();
    peak_ceiling += s.curve.peak_watts();
  }
  EXPECT_GE(assignment.value().total_power_watts, idle_floor - 1e-6);
  EXPECT_LE(assignment.value().total_power_watts, peak_ceiling + 1e-6);

  // Power monotone in demand (same policy, same fleet).
  if (demand <= 0.85) {
    const auto higher = evaluate(policy, Fleet::build(fleet).value(), demand + 0.1);
    ASSERT_TRUE(higher.ok());
    EXPECT_GE(higher.value().total_power_watts,
              assignment.value().total_power_watts - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlacementSweep,
    ::testing::Combine(::testing::Values("pack", "balanced", "optimal"),
                       ::testing::Values(0, 101, 293),
                       ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95)),
    [](const ::testing::TestParamInfo<PlacementCase>& info) {
      return std::get<0>(info.param) + "_o" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

TEST(PlacementAggregates, ClusterCurveEpWithinRange) {
  const auto fleet = fleet_slice(50, 12);
  for (const auto* name : {"pack", "balanced", "optimal"}) {
    const auto curve = cluster_power_curve(policy_by_name(name), Fleet::build(fleet).value());
    ASSERT_TRUE(curve.ok()) << name << ": " << curve.error().message;
    const double ep = metrics::energy_proportionality(curve.value());
    EXPECT_GT(ep, 0.0) << name;
    EXPECT_LT(ep, 2.0) << name;
  }
}

TEST(PlacementAggregates, BalancedClusterEpMatchesMeanServerBehaviour) {
  // Under balanced placement every server runs at the aggregate load, so the
  // cluster curve is the power-weighted average of the member curves and its
  // EP sits within the members' EP range.
  const auto fleet = fleet_slice(200, 8);
  double lo = 2.0, hi = 0.0;
  for (const auto& s : fleet) {
    const double ep = metrics::energy_proportionality(s.curve);
    lo = std::min(lo, ep);
    hi = std::max(hi, ep);
  }
  const auto curve = cluster_power_curve(policy_by_name("balanced"), Fleet::build(fleet).value());
  ASSERT_TRUE(curve.ok());
  const double cluster_ep = metrics::energy_proportionality(curve.value());
  EXPECT_GE(cluster_ep, lo - 0.02);
  EXPECT_LE(cluster_ep, hi + 0.02);
}

}  // namespace
}  // namespace epserve::cluster
