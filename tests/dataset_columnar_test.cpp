// Contract of the columnar engine (docs/COLUMNAR.md): every GroupIndex built
// over a ColumnarSnapshot key column partitions the rows into groups in
// ascending key order with members in ascending record order, across
// population sizes, and the batched power kernel is bit-identical to the
// scalar one. Runs under the `columnar` ctest label, i.e. also under
// -DEPSERVE_SANITIZE=thread.
#include "dataset/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "cluster/day_simulation.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "dataset/repository.h"
#include "metrics/derived.h"
#include "metrics/power_curve.h"
#include "power/uarch.h"

namespace epserve::dataset {
namespace {

const std::vector<ServerRecord>& base_population() {
  static const std::vector<ServerRecord> population = [] {
    auto result = generate_population();
    EXPECT_TRUE(result.ok());
    return std::move(result).take();
  }();
  return population;
}

/// Seeded populations of three sizes: a 100-record prefix, the full 477, and
/// a 5000-record tiling (same key distribution, much larger groups).
ResultRepository repo_of_size(std::size_t n) {
  const auto& base = base_population();
  std::vector<ServerRecord> records;
  records.reserve(n);
  while (records.size() < n) {
    const std::size_t take = std::min(base.size(), n - records.size());
    records.insert(records.end(), base.begin(),
                   base.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return ResultRepository(std::move(records));
}

/// The grouping contract of a GroupIndex over a snapshot key column: group
/// keys strictly ascending, members strictly ascending within a group, every
/// member's key column (and the record field it was built from) equal to its
/// group key, and the groups partitioning exactly the in-scope rows.
void expect_grouping_contract(
    const GroupIndex& groups, std::span<const std::int32_t> column,
    const std::vector<bool>& in_scope,
    const std::function<std::int32_t(std::size_t)>& record_key) {
  std::vector<int> seen(column.size(), 0);
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    SCOPED_TRACE(::testing::Message() << "group " << g);
    const std::int32_t key = groups.key(g);
    if (g > 0) EXPECT_LT(groups.key(g - 1), key);
    const auto members = groups.members(g);
    EXPECT_FALSE(members.empty());
    for (std::size_t j = 0; j < members.size(); ++j) {
      const std::uint32_t i = members[j];
      ASSERT_LT(i, column.size());
      if (j > 0) EXPECT_LT(members[j - 1], i);
      EXPECT_EQ(column[i], key);
      EXPECT_EQ(record_key(i), key);
      ++seen[i];
    }
    EXPECT_EQ(groups.find(key), std::optional<std::size_t>(g));
    total += members.size();
  }
  EXPECT_EQ(groups.total_members(), total);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], in_scope[i] ? 1 : 0) << "row " << i;
  }
  EXPECT_FALSE(groups.find(-12345).has_value());
}

class GroupingContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupingContract, PartitionsRowsInKeyOrderOnEveryKey) {
  const ResultRepository repo = repo_of_size(GetParam());
  const ColumnarSnapshot snap = ColumnarSnapshot::build(repo);
  ASSERT_EQ(snap.size(), repo.size());
  const auto& records = repo.records();
  const std::vector<bool> all_rows(snap.size(), true);

  expect_grouping_contract(GroupIndex::over(snap.hw_year()), snap.hw_year(),
                           all_rows,
                           [&](std::size_t i) { return records[i].hw_year; });
  expect_grouping_contract(GroupIndex::over(snap.pub_year()), snap.pub_year(),
                           all_rows,
                           [&](std::size_t i) { return records[i].pub_year; });
  expect_grouping_contract(
      GroupIndex::over(snap.family_id()), snap.family_id(), all_rows,
      [&](std::size_t i) {
        return static_cast<std::int32_t>(
            power::find_uarch(records[i].cpu_codename)->family);
      });
  // Codename ids are ranks in the sorted codename list, so ascending-id
  // group order is lexicographic codename order.
  const auto& names = snap.codenames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  expect_grouping_contract(
      GroupIndex::over(snap.codename_id()), snap.codename_id(), all_rows,
      [&](std::size_t i) {
        const auto it = std::lower_bound(names.begin(), names.end(),
                                         records[i].cpu_codename);
        EXPECT_EQ(*it, records[i].cpu_codename);
        return static_cast<std::int32_t>(it - names.begin());
      });
  expect_grouping_contract(GroupIndex::over(snap.nodes()), snap.nodes(),
                           all_rows,
                           [&](std::size_t i) { return records[i].nodes; });
  expect_grouping_contract(
      GroupIndex::over(snap.mpc_centi()), snap.mpc_centi(), all_rows,
      [&](std::size_t i) {
        return ResultRepository::mpc_centi_key(records[i]);
      });

  std::vector<std::uint8_t> mask(snap.size());
  std::vector<bool> single_node(snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    single_node[i] = records[i].nodes == 1;
    mask[i] = single_node[i] ? 1 : 0;
  }
  expect_grouping_contract(GroupIndex::over_masked(snap.chips(), mask),
                           snap.chips(), single_node,
                           [&](std::size_t i) { return records[i].chips; });
}

INSTANTIATE_TEST_SUITE_P(Populations, GroupingContract,
                         ::testing::Values(std::size_t{100}, std::size_t{477},
                                           std::size_t{5000}));

TEST(ColumnarSnapshot, DerivedColumnsAreBitwiseCopiesOfTheBundle) {
  const ResultRepository repo = repo_of_size(477);
  std::vector<metrics::DerivedCurveMetrics> derived;
  derived.reserve(repo.size());
  for (const auto& r : repo.records()) {
    derived.push_back(metrics::derive_curve_metrics(r.curve));
  }
  const ColumnarSnapshot snap = ColumnarSnapshot::build(repo, derived);
  ASSERT_EQ(snap.size(), derived.size());
  for (std::size_t i = 0; i < derived.size(); ++i) {
    EXPECT_EQ(snap.ep()[i], derived[i].ep);
    EXPECT_EQ(snap.overall_score()[i], derived[i].overall_score);
    EXPECT_EQ(snap.idle_fraction()[i], derived[i].idle_fraction);
    EXPECT_EQ(snap.peak_ee_value()[i], derived[i].peak_ee.value);
    EXPECT_EQ(snap.peak_ee_utilization()[i], derived[i].peak_ee_utilization);
  }
}

TEST(NormalizedPowerBatch, BitIdenticalToScalarAcrossTheWholeGrid) {
  const ResultRepository repo = repo_of_size(477);
  std::vector<double> utils;
  for (int i = 0; i <= 1000; ++i) utils.push_back(static_cast<double>(i) / 1000.0);
  for (const double level : metrics::kLoadLevels) utils.push_back(level);
  std::vector<double> batch(utils.size());
  for (const auto& record : repo.records()) {
    record.curve.normalized_power_batch(utils, batch);
    for (std::size_t i = 0; i < utils.size(); ++i) {
      EXPECT_EQ(batch[i], record.curve.normalized_power(utils[i]))
          << record.id << " at u=" << utils[i];
    }
  }
}

TEST(EvaluateBatch, BitIdenticalToPerSlotEvaluate) {
  const auto& base = base_population();
  const std::vector<ServerRecord> fleet(base.begin(), base.begin() + 32);
  const cluster::OptimalRegionPolicy policy;
  const auto trace = cluster::make_trace("diurnal").value();
  const cluster::Fleet built = cluster::Fleet::build(fleet).take();
  auto batched = cluster::evaluate_batch(policy, built, trace.demand);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched.value().size(), trace.demand.size());
  // evaluate_batch keeps no utilisations: the batch's placement, rebuilt
  // slot by slot through Placement::fill, must equal evaluate()'s vector.
  const cluster::Placement placement = policy.place_batch(built, trace.demand);
  ASSERT_EQ(placement.slots.size(), trace.demand.size());
  std::vector<double> slot_util(built.size());
  for (std::size_t d = 0; d < trace.demand.size(); ++d) {
    auto single = cluster::evaluate(policy, cluster::Fleet::build(fleet).value(), trace.demand[d]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched.value()[d].total_power_watts,
              single.value().total_power_watts);
    EXPECT_EQ(batched.value()[d].total_ops, single.value().total_ops);
    EXPECT_TRUE(batched.value()[d].utilization.empty());
    placement.fill(built, 0, built.size(), d, 1, slot_util);
    EXPECT_EQ(slot_util, single.value().utilization);
  }
}

TEST(EvaluateBatch, RejectsWithTheSameErrorsAsEvaluate) {
  const auto& base = base_population();
  const std::vector<ServerRecord> fleet(base.begin(), base.begin() + 4);
  const cluster::BalancedPolicy policy;
  const std::vector<double> bad{0.5, 1.5};
  auto result = cluster::evaluate_batch(policy, cluster::Fleet::build(fleet).value(), bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message, "demand must be in [0, 1]");
}

TEST(ColumnarConcurrency, SnapshotAndIndexesBuildOnceUnderContention) {
  const ResultRepository repo = repo_of_size(477);
  const analysis::AnalysisContext ctx(repo);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      (void)ctx.columnar();
      (void)ctx.groups_by_year(YearKey::kHardwareAvailability);
      (void)ctx.groups_by_year(YearKey::kPublished);
      (void)ctx.groups_by_family();
      (void)ctx.groups_by_codename();
      (void)ctx.groups_by_nodes();
      (void)ctx.groups_single_node_by_chips();
      (void)ctx.groups_by_mpc();
    });
  }
  for (auto& worker : workers) worker.join();
  const auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.columnar_builds, 1);
  EXPECT_EQ(stats.group_index_builds, 7);
}

}  // namespace
}  // namespace epserve::dataset
