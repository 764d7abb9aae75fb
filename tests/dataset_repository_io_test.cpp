#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include "dataset/columnar.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "dataset/io.h"
#include "dataset/repository.h"
#include "metrics/proportionality.h"

namespace epserve::dataset {
namespace {

std::vector<ServerRecord> small_population() {
  auto result = generate_population();
  EXPECT_TRUE(result.ok());
  return std::move(result).take();
}

const ResultRepository& repo() {
  static const ResultRepository instance{small_population()};
  return instance;
}

const ColumnarSnapshot& snap() {
  static const ColumnarSnapshot instance = ColumnarSnapshot::build(repo());
  return instance;
}

TEST(Repository, AllReturnsEverything) {
  EXPECT_EQ(repo().all().size(), repo().size());
}

TEST(Repository, WhereFilters) {
  const auto multi =
      repo().where([](const ServerRecord& r) { return r.is_multi_node(); });
  EXPECT_EQ(multi.size(), 74u);
  for (const auto* r : multi) EXPECT_GT(r->nodes, 1);
}

TEST(Repository, ByYearKeysDiffer) {
  const auto by_hw = GroupIndex::over(snap().hw_year());
  const auto by_pub = GroupIndex::over(snap().pub_year());
  // Published-year grouping must not contain pre-2007 keys.
  EXPECT_TRUE(by_hw.find(2004).has_value());
  EXPECT_FALSE(by_pub.find(2004).has_value());
}

TEST(Repository, ByFamilyCoversAllRecords) {
  const auto groups = GroupIndex::over(snap().family_id());
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    EXPECT_GE(groups.key(g), 0);  // every codename resolves to a family
    total += groups.members(g).size();
  }
  EXPECT_EQ(total, repo().size());
}

TEST(Repository, ByCodenameGroupsAreDisjointAndComplete) {
  const auto groups = GroupIndex::over(snap().codename_id());
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto name = snap().codename_of(groups.key(g));
    for (const std::uint32_t i : groups.members(g)) {
      EXPECT_EQ(repo().records()[i].cpu_codename, name);
    }
    total += groups.members(g).size();
  }
  EXPECT_EQ(total, repo().size());
}

TEST(Repository, SandyBridgeEnHas22Servers) {
  // Paper §III.B: "the 22 servers of Sandy Bridge EN microarchitecture".
  const auto& names = snap().codenames();
  const auto id = std::find(names.begin(), names.end(), "Sandy Bridge EN");
  ASSERT_NE(id, names.end());
  const auto groups = GroupIndex::over(snap().codename_id());
  const auto g = groups.find(static_cast<std::int32_t>(id - names.begin()));
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(groups.members(*g).size(), 22u);
}

TEST(Repository, MetricExtraction) {
  const auto eps = ResultRepository::ep_values(repo().all());
  EXPECT_EQ(eps.size(), repo().size());
  for (const double ep : eps) {
    EXPECT_GE(ep, 0.0);
    EXPECT_LT(ep, 2.0);
  }
}

TEST(Repository, TopDecileSizeAndOrdering) {
  const auto top =
      repo().top_decile_by(ResultRepository::ep_values(repo().all()));
  EXPECT_EQ(top.size(), 48u);  // ceil(477 * 0.1)
  const double boundary = metrics::energy_proportionality(top.back()->curve);
  // Everyone outside the decile must not exceed the boundary value.
  std::size_t outside_higher = 0;
  for (const auto& r : repo().records()) {
    if (metrics::energy_proportionality(r.curve) > boundary + 1e-12) {
      ++outside_higher;
    }
  }
  EXPECT_LE(outside_higher, top.size());
}

// --- IO round trip ----------------------------------------------------------

TEST(Io, CsvRoundTripPreservesEverything) {
  const auto& original = repo().records();
  const auto doc = to_csv_document(original);
  EXPECT_EQ(doc.rows.size(), original.size());
  const auto back = from_csv_document(doc);
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back.value().size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original[i];
    const auto& b = back.value()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.vendor, b.vendor);
    EXPECT_EQ(a.cpu_codename, b.cpu_codename);
    EXPECT_EQ(a.hw_year, b.hw_year);
    EXPECT_EQ(a.pub_year, b.pub_year);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.chips, b.chips);
    EXPECT_NEAR(metrics::energy_proportionality(a.curve),
                metrics::energy_proportionality(b.curve), 1e-5);
  }
}

TEST(Io, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "epserve_population.csv";
  ASSERT_TRUE(save_population(path.string(), repo().records()).ok());
  const auto loaded = load_population(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().size(), repo().size());
  std::filesystem::remove(path);
}

TEST(Io, RejectsWrongColumnCount) {
  CsvDocument doc;
  doc.header = {"id", "vendor"};
  EXPECT_FALSE(from_csv_document(doc).ok());
}

TEST(Io, RejectsCorruptNumericField) {
  auto doc = to_csv_document({repo().records().front()});
  doc.rows[0][9] = "not-a-year";
  EXPECT_FALSE(from_csv_document(doc).ok());
}

TEST(Io, RejectsInvalidCurve) {
  auto doc = to_csv_document({repo().records().front()});
  doc.rows[0][11] = "0";  // idle watts = 0 fails curve validation
  EXPECT_FALSE(from_csv_document(doc).ok());
}

TEST(Record, DerivedAccessors) {
  ServerRecord r;
  r.nodes = 2;
  r.chips = 2;
  r.cores_per_chip = 8;
  r.memory_gb = 64.0;
  EXPECT_EQ(r.total_cores(), 32);
  EXPECT_DOUBLE_EQ(r.memory_per_core(), 2.0);
  EXPECT_TRUE(r.is_multi_node());
  r.hw_year = 2012;
  r.pub_year = 2014;
  EXPECT_TRUE(r.year_mismatch());
}

TEST(Record, FormFactorNames) {
  EXPECT_EQ(form_factor_name(FormFactor::kTower), "Tower");
  EXPECT_EQ(form_factor_name(FormFactor::kMultiNode), "MultiNode");
}

}  // namespace
}  // namespace epserve::dataset
