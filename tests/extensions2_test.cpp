#include <gtest/gtest.h>

#include "cluster/operating_guide.h"
#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "metrics/proportionality.h"
#include "power/chassis.h"
#include "stats/bootstrap.h"
#include "stats/correlation.h"
#include "util/contracts.h"

namespace epserve {
namespace {

// --- MultiNodeChassis (Fig.13 mechanism) ---------------------------------------

power::ServerPowerModel::Config node_config() {
  power::ServerPowerModel::Config c;
  c.cpu.tdp_watts = 85.0;
  c.cpu.cores = 8;
  c.cpu.min_freq_ghz = 1.2;
  c.cpu.max_freq_ghz = 2.4;
  c.sockets = 2;
  c.dram.dimm_capacity_gb = 8.0;
  c.dram.dimm_count = 8;
  c.storage = {power::StorageDevice{power::StorageKind::kSsd}};
  return c;
}

TEST(Chassis, CreateAndBasicPower) {
  auto chassis = power::make_chassis(node_config(), 4);
  ASSERT_TRUE(chassis.ok()) << chassis.error().message;
  EXPECT_EQ(chassis.value().nodes(), 4);
  EXPECT_GT(chassis.value().wall_power(1.0, 2.4),
            chassis.value().wall_power(0.0, 1.2));
}

TEST(Chassis, MeasureProducesValidMonotoneCurve) {
  auto chassis = power::make_chassis(node_config(), 8);
  ASSERT_TRUE(chassis.ok());
  const auto curve = chassis.value().measure(1e6);
  EXPECT_TRUE(curve.validate().ok());
  EXPECT_TRUE(curve.power_monotone());
  EXPECT_NEAR(curve.peak_ops(), 8e6, 1.0);
}

TEST(Chassis, EpRisesWithNodeCount) {
  // The paper's Fig.13 economies of scale, reproduced mechanistically:
  // shared fans/PSU/management amortise, the idle fraction falls, EP rises.
  double prev_ep = 0.0;
  for (const int nodes : {1, 2, 4, 8, 16}) {
    auto chassis = power::make_chassis(node_config(), nodes);
    ASSERT_TRUE(chassis.ok());
    const double ep =
        metrics::energy_proportionality(chassis.value().measure(1e6));
    EXPECT_GT(ep, prev_ep) << nodes << " nodes";
    prev_ep = ep;
  }
}

TEST(Chassis, IdleFractionFallsWithNodeCount) {
  auto small = power::make_chassis(node_config(), 2);
  auto large = power::make_chassis(node_config(), 16);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(small.value().measure(1e6).idle_fraction(),
            large.value().measure(1e6).idle_fraction());
}

TEST(Chassis, RejectsBadConfig) {
  power::MultiNodeChassis::Config config;
  config.node = node_config();
  config.nodes = 0;
  EXPECT_FALSE(power::MultiNodeChassis::create(config).ok());
  config.nodes = 2;
  config.chassis_base_watts = -1.0;
  EXPECT_FALSE(power::MultiNodeChassis::create(config).ok());
}

// --- Bootstrap -------------------------------------------------------------------

TEST(Bootstrap, IntervalCoversPointEstimate) {
  Rng rng(17);
  std::vector<double> x(300), y(300);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    y[i] = 2.0 * x[i] + rng.normal(0.0, 0.2);
  }
  const auto interval = stats::bootstrap_paired(
      x, y,
      [](std::span<const double> a, std::span<const double> b) {
        return stats::pearson(a, b);
      },
      rng, 400);
  EXPECT_GE(interval.point, interval.lo);
  EXPECT_LE(interval.point, interval.hi);
  EXPECT_GT(interval.point, 0.8);
  EXPECT_LT(interval.hi - interval.lo, 0.2);
}

TEST(Bootstrap, WiderConfidenceWiderInterval) {
  Rng rng(19);
  std::vector<double> x(150), y(150);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = x[i] + rng.normal(0.0, 1.0);
  }
  const auto stat = [](std::span<const double> a, std::span<const double> b) {
    return stats::pearson(a, b);
  };
  Rng rng_a(23), rng_b(23);
  const auto narrow = stats::bootstrap_paired(x, y, stat, rng_a, 400, 0.80);
  const auto wide = stats::bootstrap_paired(x, y, stat, rng_b, 400, 0.99);
  EXPECT_GT(wide.hi - wide.lo, narrow.hi - narrow.lo);
}

TEST(Bootstrap, RejectsDegenerateInput) {
  Rng rng(29);
  const std::vector<double> x = {1.0, 2.0};
  const auto stat = [](std::span<const double>, std::span<const double>) {
    return 0.0;
  };
  EXPECT_THROW(static_cast<void>(
                   stats::bootstrap_paired(x, x, stat, rng, 5)),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(
                   stats::bootstrap_paired(x, x, stat, rng, 100, 1.5)),
               ContractViolation);
}

// --- Operating guide (§V.C) ---------------------------------------------------------

std::vector<dataset::ServerRecord> guide_fleet() {
  const auto make = [](int id, double ep, double idle, double tau) {
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    EXPECT_TRUE(model.ok());
    dataset::ServerRecord r;
    r.id = id;
    r.curve = metrics::to_power_curve(model.value(), 300.0, 2e6);
    return r;
  };
  return {make(1, 0.92, 0.22, 0.7), make(2, 0.90, 0.24, 0.7),
          make(3, 0.65, 0.38, 0.5), make(4, 0.62, 0.40, 0.5),
          make(5, 0.30, 0.70, 0.5)};
}

TEST(OperatingGuide, CoversFleetInAscendingBuckets) {
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value());
  ASSERT_TRUE(guide.ok());
  std::size_t covered = 0;
  double prev = -1.0;
  for (const auto& entry : guide.value().entries) {
    covered += entry.servers;
    EXPECT_GT(entry.ep_bucket_lo, prev);
    prev = entry.ep_bucket_lo;
  }
  EXPECT_EQ(covered, guide_fleet().size());
}

TEST(OperatingGuide, InteriorPeakClustersGetInteriorTargets) {
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value());
  ASSERT_TRUE(guide.ok());
  // The high-EP bucket (0.9..1.0) holds the two interior-peak machines;
  // its target must sit below full load — the paper's "keep them at ~70%".
  const auto& top = guide.value().entries.back();
  EXPECT_GE(top.ep_bucket_lo, 0.9 - 1e-9);
  EXPECT_LT(top.target_utilization, 1.0);
  EXPECT_GT(top.target_utilization, 0.5);
  // Operating at the target keeps the cluster near its best efficiency.
  EXPECT_GT(top.efficiency_at_target, 0.9);
}

TEST(OperatingGuide, LinearClustersTargetFullLoad) {
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value());
  ASSERT_TRUE(guide.ok());
  const auto& bottom = guide.value().entries.front();  // the legacy machine
  EXPECT_NEAR(bottom.target_utilization, 1.0, 1e-9);
}

TEST(OperatingGuide, EfficientCapacityIsAMeaningfulFraction) {
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value());
  ASSERT_TRUE(guide.ok());
  EXPECT_GT(guide.value().efficient_capacity_fraction, 0.5);
  EXPECT_LE(guide.value().efficient_capacity_fraction, 1.0);
}

TEST(OperatingGuide, RendersTable) {
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value());
  ASSERT_TRUE(guide.ok());
  const std::string text = cluster::render_guide(guide.value());
  EXPECT_NE(text.find("EP bucket"), std::string::npos);
  EXPECT_NE(text.find("efficient capacity"), std::string::npos);
}

TEST(OperatingGuide, RejectsBadArguments) {
  EXPECT_FALSE(
      cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value(), 0.0).ok());
  EXPECT_FALSE(
      cluster::build_operating_guide(cluster::Fleet::build(guide_fleet()).value(), 0.95, 0.0).ok());
}

TEST(OperatingGuide, WorksOnGeneratedPopulation) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> fleet(population.value().begin(),
                                           population.value().begin() + 40);
  const auto guide = cluster::build_operating_guide(cluster::Fleet::build(fleet).value());
  ASSERT_TRUE(guide.ok());
  EXPECT_FALSE(guide.value().entries.empty());
}

}  // namespace
}  // namespace epserve
