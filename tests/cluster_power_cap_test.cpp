#include "cluster/power_cap.h"

#include <gtest/gtest.h>

#include "metrics/curve_models.h"

namespace epserve::cluster {
namespace {

dataset::ServerRecord make_server(int id, double ep, double idle, double tau) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = id;
  r.curve = metrics::to_power_curve(model.value(), 300.0, 2e6);
  return r;
}

std::vector<dataset::ServerRecord> fleet() {
  std::vector<dataset::ServerRecord> out;
  out.push_back(make_server(1, 0.95, 0.20, 0.7));
  out.push_back(make_server(2, 0.85, 0.28, 0.8));
  out.push_back(make_server(3, 0.60, 0.40, 0.5));
  out.push_back(make_server(4, 0.35, 0.65, 0.5));
  return out;
}

TEST(PowerCap, GenerousCapAllowsFullLoad) {
  const PackToFullPolicy policy;
  const auto result = max_throughput_under_cap(policy, Fleet::build(fleet()).value(), 1e9);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().max_demand, 1.0);
  EXPECT_NEAR(result.value().max_throughput, 8e6, 1.0);
}

TEST(PowerCap, TightCapLimitsDemand) {
  const BalancedPolicy policy;
  // Fleet peak is 1200 W; cap at 70% of it.
  const auto result = max_throughput_under_cap(policy, Fleet::build(fleet()).value(), 840.0);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().max_demand, 1.0);
  EXPECT_GT(result.value().max_demand, 0.0);
  EXPECT_LE(result.value().power_at_max, 840.0 + 1e-6);
}

TEST(PowerCap, BisectionConvergesToTheBoundary) {
  const BalancedPolicy policy;
  const auto result = max_throughput_under_cap(policy, Fleet::build(fleet()).value(), 900.0, 1e-6);
  ASSERT_TRUE(result.ok());
  // Power just above the found demand must exceed the cap.
  const auto above =
      evaluate(policy, Fleet::build(fleet()).value(), std::min(1.0, result.value().max_demand + 1e-3));
  ASSERT_TRUE(above.ok());
  EXPECT_GT(above.value().total_power_watts, 900.0 - 1.0);
}

TEST(PowerCap, EpAwarePlacementDoesMoreWorkUnderTheSameCap) {
  // §V.C headline: under a fixed power supply, filling servers only to the
  // top of their efficient band does at least as much work as packing them
  // into their expensive top region. (Balanced spreading is not a universal
  // loser here: a very flat legacy curve has a tiny marginal watt per op, so
  // the comparison is made against pack-to-full.)
  const OptimalRegionPolicy optimal;
  const PackToFullPolicy pack;
  const double cap = 800.0;
  const auto a = max_throughput_under_cap(optimal, Fleet::build(fleet()).value(), cap);
  const auto b = max_throughput_under_cap(pack, Fleet::build(fleet()).value(), cap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a.value().max_throughput, b.value().max_throughput * 0.999);
}

TEST(PowerCap, ImpossibleCapFails) {
  const PackToFullPolicy policy;
  // Fleet idle power alone is several hundred watts.
  const auto result = max_throughput_under_cap(policy, Fleet::build(fleet()).value(), 10.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Error::Code::kFailedPrecondition);
}

TEST(PowerCap, RejectsBadArguments) {
  const PackToFullPolicy policy;
  EXPECT_FALSE(max_throughput_under_cap(policy, Fleet::build(fleet()).value(), -5.0).ok());
  EXPECT_FALSE(max_throughput_under_cap(policy, Fleet::build(fleet()).value(), 800.0, 0.0).ok());
}

}  // namespace
}  // namespace epserve::cluster
