#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "dataset/generator.h"
#include "dataset/io.h"
#include "dataset/validation.h"
#include "metrics/model_fit.h"
#include "metrics/proportionality.h"
#include "specpower/simulator.h"
#include "util/rng.h"

namespace epserve {
namespace {

// --- Two-segment model fitting -------------------------------------------------

TEST(ModelFit, RecoversExactTwoSegmentCurves) {
  for (const auto& [ep, idle, tau] :
       {std::tuple{0.4, 0.55, 0.5}, std::tuple{0.8, 0.3, 0.7},
        std::tuple{1.0, 0.12, 0.8}}) {
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    ASSERT_TRUE(model.ok());
    const auto curve = metrics::to_power_curve(model.value(), 250.0, 1e6);
    const auto fit = metrics::fit_two_segment(curve);
    EXPECT_LT(fit.rmse, 1e-9);
    EXPECT_NEAR(fit.model.tau, tau, 1e-9);
    EXPECT_NEAR(fit.model.s1, model.value().s1, 1e-9);
    EXPECT_NEAR(fit.model.s2, model.value().s2, 1e-9);
  }
}

TEST(ModelFit, FitsGeneratedPopulationWithSmallResidual) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  double worst = 0.0;
  for (std::size_t i = 0; i < population.value().size(); i += 23) {
    const auto fit = metrics::fit_two_segment(population.value()[i].curve);
    worst = std::max(worst, fit.rmse);
    // The fitted model's EP tracks the measured EP closely.
    EXPECT_NEAR(fit.model.ep(),
                metrics::energy_proportionality(population.value()[i].curve),
                0.05);
  }
  EXPECT_LT(worst, 0.03);  // population curves are near-piecewise-linear
}

TEST(ModelFit, FittedModelIsAlwaysMonotone) {
  // Even on curves that are not two-segment at all.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    double w = rng.uniform(30.0, 80.0);
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      w += rng.uniform(1.0, 30.0);
      watts[i] = w;
      ops[i] = 1e6 * metrics::kLoadLevels[i];
    }
    const metrics::PowerCurve curve(watts, ops, watts[0] * 0.8);
    const auto fit = metrics::fit_two_segment(curve);
    EXPECT_TRUE(fit.model.monotone());
    EXPECT_LT(fit.rmse, 0.25);
  }
}

TEST(ModelFit, AnchorsIdleAndPeak) {
  auto model = metrics::TwoSegmentPowerModel::solve(0.7, 0.35, 0.6);
  ASSERT_TRUE(model.ok());
  const auto curve = metrics::to_power_curve(model.value(), 300.0, 1e6);
  const auto fit = metrics::fit_two_segment(curve);
  EXPECT_NEAR(fit.model.power(0.0), curve.idle_fraction(), 1e-9);
  EXPECT_NEAR(fit.model.power(1.0), 1.0, 1e-9);
}

// --- Population validation -------------------------------------------------------

TEST(Validation, GeneratedPopulationIsClean) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  const auto report = dataset::validate_population(population.value());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().message);
}

TEST(Validation, CatchesStructuralProblems) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> records(population.value().begin(),
                                             population.value().begin() + 4);
  records[1].id = records[0].id;            // duplicate id
  records[2].cpu_codename = "Mystery Lake"; // unknown codename
  records[3].memory_gb = -8.0;              // negative memory
  const auto report = dataset::validate_population(records);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.issues.size(), 3u);
}

TEST(Validation, CatchesImplausibleYearsAndTopology) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  std::vector<dataset::ServerRecord> records(population.value().begin(),
                                             population.value().begin() + 3);
  records[0].hw_year = 1995;
  records[1].nodes = 0;
  records[2].pub_year = records[2].hw_year - 3;  // published long before hw
  const auto report = dataset::validate_population(records);
  EXPECT_GE(report.issues.size(), 3u);
}

TEST(Validation, CoreCountOverflowIsNamedNotComputed) {
  // nodes * chips * cores_per_chip = 1e10 * cores_per_chip overflows int.
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  auto doc = dataset::to_csv_document({population.value().front()});
  const auto column = [&](const std::string& name) {
    const auto it = std::find(doc.header.begin(), doc.header.end(), name);
    EXPECT_NE(it, doc.header.end()) << name;
    return static_cast<std::size_t>(it - doc.header.begin());
  };
  doc.rows[0][column("nodes")] = "100000";
  doc.rows[0][column("chips")] = "100000";
  const auto loaded = dataset::from_csv_document(doc);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().front().total_cores(),
            std::int64_t{10'000'000'000} *
                loaded.value().front().cores_per_chip);

  const auto report = dataset::validate_population(loaded.value());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues.front().message.rfind("core count overflows", 0),
            0u)
      << report.issues.front().message;
}

TEST(Validation, EmptyPopulationIsAnIssue) {
  const auto report = dataset::validate_population({});
  EXPECT_FALSE(report.ok());
}

// --- Simulator latency accounting ---------------------------------------------------

TEST(SimulatorLatency, SojournRisesWithLoad) {
  power::ServerPowerModel::Config config;
  config.cpu.tdp_watts = 85.0;
  config.cpu.cores = 6;
  config.sockets = 2;
  config.dram.dimm_count = 8;
  config.storage = {power::StorageDevice{power::StorageKind::kSsd}};
  auto server = power::ServerPowerModel::create(config);
  ASSERT_TRUE(server.ok());
  specpower::ThroughputModel::Params tparams;
  tparams.total_cores = 12;
  auto throughput = specpower::ThroughputModel::create(tparams);
  ASSERT_TRUE(throughput.ok());
  const power::PerformanceGovernor governor;
  specpower::SimConfig sim_config;
  sim_config.interval_seconds = 10.0;
  sim_config.calibration_seconds = 10.0;
  const specpower::SpecPowerSimulator sim(server.value(), throughput.value(),
                                          governor, sim_config);
  auto run = sim.run(4.0);
  ASSERT_TRUE(run.ok());
  const auto& levels = run.value().levels;
  // Queueing delay grows with offered load: the 90% level's sojourn exceeds
  // the 10% level's (which is essentially pure service time).
  EXPECT_GT(levels[8].avg_sojourn_seconds,
            levels[0].avg_sojourn_seconds * 1.2);
  for (const auto& level : levels) {
    EXPECT_GT(level.avg_sojourn_seconds, 0.0);
  }
}

}  // namespace
}  // namespace epserve
