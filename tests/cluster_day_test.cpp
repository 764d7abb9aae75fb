#include "cluster/day_simulation.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "dataset/generator.h"
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
  out.push_back(make_server(2, 0.90, 0.25, 0.8));
  out.push_back(make_server(3, 0.60, 0.40, 0.5));
  out.push_back(make_server(4, 0.30, 0.70, 0.5));
  return out;
}

TEST(DemandTrace, DiurnalShapeIs24SlotsWithinBounds) {
  const auto trace = make_trace("diurnal").value();
  ASSERT_EQ(trace.demand.size(), 24u);
  for (const double d : trace.demand) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DemandTrace, TroughAtNightPeakInEvening) {
  const auto trace = make_trace({"diurnal", 0.25, 0.45}).value();
  const double night = trace.demand[4];
  const double evening = trace.demand[20];
  EXPECT_LT(night, evening);
  EXPECT_NEAR(night, 0.25, 0.08);          // near the base at the trough
  EXPECT_GT(evening, 0.55);                // near base + amplitude
}

TEST(SimulateDay, AccountsEnergyAndWork) {
  const auto f = fleet();
  const OptimalRegionPolicy policy;
  const auto day = simulate_day(policy, Fleet::build(f).value(),
                                make_trace("diurnal").value());
  ASSERT_TRUE(day.ok()) << day.error().message;
  EXPECT_GT(day.value().energy_kwh, 0.0);
  EXPECT_GT(day.value().served_gops, 0.0);
  EXPECT_GT(day.value().avg_efficiency, 0.0);
  EXPECT_EQ(day.value().policy, "optimal-region");
}

TEST(SimulateDay, ZeroDemandTraceStillBurnsIdleEnergy) {
  const auto f = fleet();
  DemandTrace trace;
  trace.demand.assign(24, 0.0);
  const BalancedPolicy policy;
  const auto day = simulate_day(policy, Fleet::build(f).value(), trace);
  ASSERT_TRUE(day.ok());
  double idle_watts = 0.0;
  for (const auto& s : f) idle_watts += s.curve.idle_watts();
  EXPECT_NEAR(day.value().energy_kwh, idle_watts * 24.0 / 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(day.value().served_gops, 0.0);
}

TEST(SimulateDay, RejectsEmptyTraceAndBadSlot) {
  const auto f = fleet();
  const BalancedPolicy policy;
  DemandTrace empty;
  EXPECT_FALSE(simulate_day(policy, Fleet::build(f).value(), empty).ok());
  DemandTrace bad;
  bad.demand = {0.5};
  bad.slot_hours = 0.0;
  EXPECT_FALSE(simulate_day(policy, Fleet::build(f).value(), bad).ok());
}

TEST(SimulateDay, RejectsNanDemandSlot) {
  const auto f = fleet();
  const PackToFullPolicy policy;
  auto trace = make_trace("diurnal").value();
  trace.demand[7] = std::numeric_limits<double>::quiet_NaN();
  const auto day = simulate_day(policy, Fleet::build(f).value(), trace);
  ASSERT_FALSE(day.ok());
  EXPECT_EQ(day.error().message, "demand must be in [0, 1]");
}

TEST(CompareOverDay, ReturnsAllThreePolicies) {
  const auto results = compare_policies_over_day(
      Fleet::build(fleet()).value(), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 3u);
  EXPECT_EQ(results.value()[0].policy, "pack-to-full");
  EXPECT_EQ(results.value()[1].policy, "balanced");
  EXPECT_EQ(results.value()[2].policy, "optimal-region");
}

TEST(CompareOverDay, AllPoliciesServeTheSameWork) {
  const auto results = compare_policies_over_day(
      Fleet::build(fleet()).value(), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  const double reference = results.value()[0].served_gops;
  for (const auto& day : results.value()) {
    EXPECT_NEAR(day.served_gops, reference, reference * 1e-9) << day.policy;
  }
}

TEST(CompareOverDay, OptimalRegionUsesLeastEnergyOnModernFleet) {
  // On an interior-peak-dominated fleet under a diurnal trace, the §V.C
  // policy should pay the smallest daily energy bill for the same work.
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> modern;
  for (const auto& r : population.value()) {
    if (r.hw_year >= 2012 && r.nodes == 1 && modern.size() < 24) {
      modern.push_back(r);
    }
  }
  const auto results = compare_policies_over_day(
      Fleet::build(modern).value(), make_trace("diurnal").value());
  ASSERT_TRUE(results.ok());
  const auto& pack = results.value()[0];
  const auto& balanced = results.value()[1];
  const auto& optimal = results.value()[2];
  EXPECT_LE(optimal.energy_kwh, pack.energy_kwh * 1.005);
  EXPECT_LT(optimal.energy_kwh, balanced.energy_kwh);
}

}  // namespace
}  // namespace epserve::cluster
