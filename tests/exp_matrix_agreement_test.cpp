// exp::run_experiment and cluster::run_policy_trace_matrix answer the same
// question — which policy wins each trace — for the sweep report and for
// `epserve_cli day --matrix`. On the same population, every policy, every
// trace and the same idle model, the two must agree bit for bit: each
// cell's DayResult, its eligibility, and each trace's winner.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "cluster/fleet.h"
#include "cluster/matrix.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "exp/runner.h"
#include "exp/spec.h"

namespace {

using namespace epserve;

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void expect_bitwise_equal(const cluster::DayResult& a,
                          const cluster::DayResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.policy, b.policy) << where;
  EXPECT_EQ(bits(a.energy_kwh), bits(b.energy_kwh)) << where;
  EXPECT_EQ(bits(a.served_gops), bits(b.served_gops)) << where;
  EXPECT_EQ(bits(a.avg_efficiency), bits(b.avg_efficiency)) << where;
  EXPECT_EQ(bits(a.idle_energy_kwh), bits(b.idle_energy_kwh)) << where;
  EXPECT_EQ(bits(a.wake_energy_kwh), bits(b.wake_energy_kwh)) << where;
  EXPECT_EQ(bits(a.wake_lost_gops), bits(b.wake_lost_gops)) << where;
  EXPECT_EQ(a.wake_count, b.wake_count) << where;
}

TEST(ExpMatrixAgreement, SweepAndMatrixAgreeBitForBit) {
  dataset::ScaledConfig config;
  config.servers = 300;
  config.seed = 11;
  config.threads = 1;

  exp::Spec spec;
  spec.name = "agreement";
  spec.fleet_sizes = {config.servers};
  spec.seeds = {config.seed};
  spec.gen_threads = {config.threads};
  spec.policies = cluster::day_policies();
  for (const auto& info : cluster::trace_catalog()) {
    spec.traces.emplace_back(info.name);
  }
  spec.idle_models = {"acpi"};
  auto sweep = exp::run_experiment(spec);
  ASSERT_TRUE(sweep.ok()) << sweep.error().message;

  // The matrix gets its fleet from a monolithic build of the same
  // ScaledConfig — not the runner's streamed path.
  auto records = dataset::generate_scaled_population(config);
  ASSERT_TRUE(records.ok()) << records.error().message;
  auto fleet = cluster::Fleet::build(records.value());
  ASSERT_TRUE(fleet.ok()) << fleet.error().message;
  ASSERT_EQ(fleet.value().digest(), sweep.value().fleets.at(0).digest);
  cluster::MatrixOptions options;
  options.idle = cluster::IdleModel::acpi();
  auto matrix = cluster::run_policy_trace_matrix(fleet.value(), options);
  ASSERT_TRUE(matrix.ok()) << matrix.error().message;

  // One fleet and one idle model: both documents are trace-major with the
  // policy innermost, in the same order.
  const auto& cells = sweep.value().cells;
  ASSERT_EQ(matrix.value().traces, spec.traces);
  ASSERT_EQ(matrix.value().policies, spec.policies);
  ASSERT_EQ(cells.size(), matrix.value().cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const cluster::MatrixCell& expected = matrix.value().cells[i];
    const std::string where = expected.trace + " / " + expected.policy;
    EXPECT_EQ(cells[i].cell.trace, expected.trace) << where;
    EXPECT_EQ(cells[i].cell.policy, expected.policy) << where;
    EXPECT_EQ(cells[i].eligible, expected.eligible) << where;
    expect_bitwise_equal(cells[i].day, expected.result, where);
  }
  const auto& winners = sweep.value().winners;
  ASSERT_EQ(winners.size(), matrix.value().winners.size());
  for (std::size_t t = 0; t < winners.size(); ++t) {
    const cluster::TraceVerdict& expected = matrix.value().winners[t];
    EXPECT_EQ(winners[t].trace, expected.trace);
    EXPECT_EQ(winners[t].policy, expected.policy) << expected.trace;
    EXPECT_EQ(bits(winners[t].avg_efficiency), bits(expected.avg_efficiency))
        << expected.trace;
  }
  // The autoscaler is ineligible on the latency-critical trace in both.
  bool saw_ineligible = false;
  for (const auto& cell : cells) saw_ineligible |= !cell.eligible;
  EXPECT_TRUE(saw_ineligible);
}

}  // namespace
