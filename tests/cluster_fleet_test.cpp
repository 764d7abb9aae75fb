// cluster::Fleet contract tests: the shared fleet handle must be a pure
// cache — every column equals the per-record metric function bitwise, every
// policy/simulation result routed through the Fleet equals the pre-refactor
// record-at-a-time arithmetic bitwise (reimplemented here as the scalar
// reference), at fleet sizes 1/100/5000, for build() and streamed Builder
// fleets alike, and from 1 or 8 threads sharing one built Fleet (run under
// -DEPSERVE_SANITIZE=thread via `ctest -L parallel`). The lazily cached
// server orders must equal a fresh per-call sort, ties included, and be
// built exactly once however many threads race to first use them. Every
// Fleet evaluation entry point must equal PowerCurve::normalized_power
// bitwise under every kernel variant, forced scalar included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/knightshift.h"
#include "cluster/operating_guide.h"
#include "cluster/placement.h"
#include "cluster/power_cap.h"
#include "cluster/working_region.h"
#include "metrics/curve_models.h"
#include "metrics/efficiency.h"
#include "metrics/load_level.h"
#include "metrics/proportionality.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace epserve::cluster {
namespace {

/// Deterministic heterogeneous fleet: EP/idle/tau/peak parameters cycle with
/// the index, so any size yields a mix of modern interior-peak and legacy
/// pack-friendly machines.
std::vector<dataset::ServerRecord> make_fleet(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    // Keep EP inside the model's feasible band [(1-idle)*tau, (1-idle)*(1+tau)].
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, tau);
    EXPECT_TRUE(model.ok()) << model.error().message;
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = metrics::to_power_curve(model.value(),
                                      250.0 + 10.0 * static_cast<double>(i % 9),
                                      1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

// --- Scalar reference: the pre-Fleet placement/evaluation arithmetic -------

std::vector<std::size_t> reference_order(
    const std::vector<dataset::ServerRecord>& fleet,
    const std::function<double(const dataset::ServerRecord&)>& score) {
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double sa = score(fleet[a]);
    const double sb = score(fleet[b]);
    if (sa != sb) return sa > sb;
    return fleet[a].id < fleet[b].id;
  });
  return order;
}

void reference_fill(const std::vector<dataset::ServerRecord>& fleet,
                    const std::vector<std::size_t>& order,
                    const std::vector<double>& cap_util,
                    std::vector<double>& util, double& remaining_ops) {
  for (const auto idx : order) {
    if (remaining_ops <= 0.0) break;
    const double headroom_util = cap_util[idx] - util[idx];
    if (headroom_util <= 0.0) continue;
    const double headroom_ops = headroom_util * fleet[idx].curve.peak_ops();
    const double take = std::min(headroom_ops, remaining_ops);
    util[idx] += take / fleet[idx].curve.peak_ops();
    remaining_ops -= take;
  }
}

double reference_capacity(const std::vector<dataset::ServerRecord>& fleet) {
  double capacity = 0.0;
  for (const auto& s : fleet) capacity += s.curve.peak_ops();
  return capacity;
}

std::vector<double> reference_place(
    const std::vector<dataset::ServerRecord>& fleet, const std::string& policy,
    double demand) {
  std::vector<double> util(fleet.size(), 0.0);
  if (policy == "balanced") {
    return std::vector<double>(fleet.size(), demand);
  }
  double remaining = demand * reference_capacity(fleet);
  if (policy == "pack-to-full") {
    const auto order = reference_order(fleet, [](const auto& r) {
      return metrics::ee_at_level(r.curve, metrics::kNumLoadLevels - 1);
    });
    const std::vector<double> caps(fleet.size(), 1.0);
    reference_fill(fleet, order, caps, util, remaining);
    return util;
  }
  // optimal-region, threshold 0.95.
  std::vector<double> region_top(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Region region = optimal_region(fleet[i].curve, 0.95);
    region_top[i] = region.empty() ? 1.0 : region.hi;
  }
  const auto order = reference_order(fleet, [](const auto& r) {
    return metrics::peak_ee(r.curve).value;
  });
  reference_fill(fleet, order, region_top, util, remaining);
  if (remaining > 0.0) {
    const std::vector<double> caps(fleet.size(), 1.0);
    reference_fill(fleet, order, caps, util, remaining);
  }
  return util;
}

Assignment reference_evaluate(const std::vector<dataset::ServerRecord>& fleet,
                              const std::string& policy, double demand) {
  Assignment assignment;
  assignment.utilization = reference_place(fleet, policy, demand);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double clamped = std::clamp(assignment.utilization[i], 0.0, 1.0);
    assignment.total_power_watts +=
        fleet[i].curve.normalized_power(clamped) * fleet[i].curve.peak_watts();
    assignment.total_ops += clamped * fleet[i].curve.peak_ops();
  }
  return assignment;
}

const PlacementPolicy& policy_by_name(const std::string& name) {
  static const PackToFullPolicy pack;
  static const BalancedPolicy balanced;
  static const OptimalRegionPolicy optimal;
  if (name == "pack-to-full") return pack;
  if (name == "balanced") return balanced;
  return optimal;
}

// --- Fleet construction ----------------------------------------------------

TEST(FleetBuild, ColumnsAreBitwiseCopiesOfPerRecordMetrics) {
  const auto records = make_fleet(100);
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const Fleet& fleet = built.value();
  ASSERT_EQ(fleet.size(), records.size());

  double capacity = 0.0;
  double idle = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& curve = records[i].curve;
    EXPECT_EQ(fleet.peak_ops()[i], curve.peak_ops());
    EXPECT_EQ(fleet.peak_watts()[i], curve.peak_watts());
    EXPECT_EQ(fleet.idle_watts()[i], curve.idle_watts());
    EXPECT_EQ(fleet.ep()[i], metrics::energy_proportionality(curve));
    EXPECT_EQ(fleet.overall_score()[i], metrics::overall_score(curve));
    EXPECT_EQ(fleet.idle_fraction()[i], curve.idle_fraction());
    EXPECT_EQ(fleet.peak_ee_value()[i], metrics::peak_ee(curve).value);
    EXPECT_EQ(fleet.peak_ee_utilization()[i],
              metrics::peak_ee_utilization(curve));
    EXPECT_EQ(fleet.ee_at_full()[i],
              metrics::ee_at_level(curve, metrics::kNumLoadLevels - 1));
    capacity += curve.peak_ops();
    idle += curve.idle_watts();
  }
  EXPECT_EQ(fleet.capacity_ops(), capacity);
  EXPECT_EQ(fleet.total_idle_watts(), idle);
}

TEST(FleetBuild, NormalizedPowerMatchesCurveBitwise) {
  const auto records = make_fleet(20);
  const Fleet fleet = Fleet::build(records).take();
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (const double u : {0.0, 0.03, 0.1, 0.37, 0.5, 0.71, 0.99, 1.0}) {
      EXPECT_EQ(fleet.normalized_power(i, u),
                records[i].curve.normalized_power(u));
    }
  }
}

TEST(FleetBuild, RejectsEmptyFleet) {
  const std::vector<dataset::ServerRecord> empty;
  const auto built = Fleet::build(empty);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().message, "fleet is empty");
}

TEST(FleetBuild, RejectsInvalidCurveNamingTheServer) {
  auto records = make_fleet(3);
  records[1].curve = metrics::PowerCurve{};  // all-zero: fails validate()
  const auto built = Fleet::build(records);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.error().message.find("server 2: "), std::string::npos)
      << built.error().message;
}

/// Every curve-validation failure mode must surface through Fleet::build
/// with the offending server named and the kFailedPrecondition code intact —
/// the serve daemon forwards this exact message to admin clients, so the
/// context is part of the contract (tests/serve_integration_test.cpp checks
/// the wire side; this pins the build side for each failure mode).
TEST(FleetBuild, NamesTheServerForEveryCurveFailureMode) {
  struct FailureCase {
    const char* name;
    std::function<void(metrics::PowerCurve&)> corrupt;
    const char* fragment;
  };
  const auto rebuild = [](const metrics::PowerCurve& curve, double idle,
                          const std::function<void(
                              std::array<double, metrics::kNumLoadLevels>&,
                              std::array<double, metrics::kNumLoadLevels>&)>&
                              mutate) {
    std::array<double, metrics::kNumLoadLevels> watts{};
    std::array<double, metrics::kNumLoadLevels> ops{};
    for (std::size_t i = 0; i < metrics::kNumLoadLevels; ++i) {
      watts[i] = curve.watts_at_level(i);
      ops[i] = curve.ops_at_level(i);
    }
    mutate(watts, ops);
    return metrics::PowerCurve(watts, ops, idle);
  };
  const FailureCase cases[] = {
      {"non-positive idle",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, 0.0, [](auto&, auto&) {});
       },
       "idle power must be > 0"},
      {"non-finite power",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(), [](auto& watts, auto&) {
           watts[4] = std::numeric_limits<double>::infinity();
         });
       },
       "power at level 4 must be finite"},
      {"negative ops",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(),
                         [](auto&, auto& ops) { ops[0] = -1.0; });
       },
       "ops at level 0 must be finite and >= 0"},
      {"decreasing ops",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, curve.idle_watts(), [](auto&, auto& ops) {
           std::swap(ops[2], ops[7]);
         });
       },
       "ops must be non-decreasing"},
      {"idle above peak",
       [&rebuild](metrics::PowerCurve& curve) {
         curve = rebuild(curve, 2.0 * curve.peak_watts(),
                         [](auto&, auto&) {});
       },
       "idle power exceeds peak power"},
  };
  for (const FailureCase& failure : cases) {
    auto records = make_fleet(4);
    failure.corrupt(records[2].curve);
    const auto built = Fleet::build(records);
    ASSERT_FALSE(built.ok()) << failure.name;
    EXPECT_EQ(built.error().code, Error::Code::kFailedPrecondition)
        << failure.name;
    EXPECT_NE(built.error().message.find("server 3: "), std::string::npos)
        << failure.name << ": " << built.error().message;
    EXPECT_NE(built.error().message.find(failure.fragment), std::string::npos)
        << failure.name << ": " << built.error().message;
  }
}

TEST(FleetBuild, OptimalRegionTopsMatchPerRecordRegions) {
  const auto records = make_fleet(50);
  const Fleet fleet = Fleet::build(records).take();
  const auto& tops = fleet.optimal_region_tops(0.95);
  const auto rank = fleet.rank(Fleet::OrderKey::kPeakEe);
  ASSERT_EQ(tops.ranked_top.size(), records.size());
  ASSERT_EQ(tops.utilization.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Region region = optimal_region(records[i].curve, 0.95);
    const double top = region.empty() ? 1.0 : region.hi;
    EXPECT_EQ(tops.ranked_top[rank[i]], top);
    // The stage-1 greedy's value for a server loaded to its top.
    const double p = records[i].curve.peak_ops();
    EXPECT_EQ(tops.utilization[i], 0.0 + (top * p) / p);
  }
  EXPECT_EQ(&fleet.optimal_region_tops(0.95), &tops);  // served from cache
  EXPECT_NE(&fleet.optimal_region_tops(0.9), &tops);   // one per threshold
}

// --- Equivalence with the scalar reference at 1 / 100 / 5000 servers -------

class FleetEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetEquivalence, EvaluateIsByteIdenticalToScalarReference) {
  const auto records = make_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
    // 0.9 / 0.95 / 0.99 overflow the optimal regions: stage-2 cuts.
    for (const double demand : {0.0, 0.05, 0.3, 0.7, 0.9, 0.95, 0.99, 1.0}) {
      const auto via_fleet =
          evaluate(policy_by_name(name), built.value(), demand);
      ASSERT_TRUE(via_fleet.ok()) << via_fleet.error().message;
      const Assignment ref = reference_evaluate(records, name, demand);
      ASSERT_EQ(via_fleet.value().utilization.size(), ref.utilization.size());
      for (std::size_t i = 0; i < ref.utilization.size(); ++i) {
        ASSERT_EQ(via_fleet.value().utilization[i], ref.utilization[i])
            << name << " demand " << demand << " server " << i;
      }
      EXPECT_EQ(via_fleet.value().total_power_watts, ref.total_power_watts);
      EXPECT_EQ(via_fleet.value().total_ops, ref.total_ops);
    }
  }
}

TEST_P(FleetEquivalence, StreamedBuilderMatchesValidatedBuild) {
  const auto records = make_fleet(GetParam());
  const auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;

  // The same records streamed through a Builder in 37-row chunks: the fleet
  // owns its curve column instead of viewing `records`.
  constexpr std::size_t kChunk = 37;
  Fleet::Builder builder;
  const std::span<const dataset::ServerRecord> all(records);
  for (std::size_t at = 0; at < all.size(); at += kChunk) {
    const auto appended =
        builder.append(all.subspan(at, std::min(kChunk, all.size() - at)));
    ASSERT_TRUE(appended.ok()) << appended.error().message;
  }
  const auto streamed = builder.finish();
  ASSERT_TRUE(streamed.ok()) << streamed.error().message;
  EXPECT_EQ(streamed.value().digest(), built.value().digest());
  const auto trace = make_trace("diurnal").value();

  const auto day_built = compare_policies_over_day(built.value(), trace);
  const auto day_streamed = compare_policies_over_day(streamed.value(), trace);
  ASSERT_TRUE(day_built.ok());
  ASSERT_TRUE(day_streamed.ok());
  ASSERT_EQ(day_built.value().size(), day_streamed.value().size());
  for (std::size_t i = 0; i < day_built.value().size(); ++i) {
    EXPECT_EQ(day_built.value()[i].policy, day_streamed.value()[i].policy);
    EXPECT_EQ(day_built.value()[i].energy_kwh,
              day_streamed.value()[i].energy_kwh);
    EXPECT_EQ(day_built.value()[i].served_gops,
              day_streamed.value()[i].served_gops);
    EXPECT_EQ(day_built.value()[i].avg_efficiency,
              day_streamed.value()[i].avg_efficiency);
  }

  const auto scaled_built = autoscale_over_day(built.value(), trace);
  const auto scaled_streamed = autoscale_over_day(streamed.value(), trace);
  ASSERT_TRUE(scaled_built.ok());
  ASSERT_TRUE(scaled_streamed.ok());
  EXPECT_EQ(scaled_built.value().energy_kwh,
            scaled_streamed.value().energy_kwh);
  EXPECT_EQ(scaled_built.value().served_gops,
            scaled_streamed.value().served_gops);
  ASSERT_EQ(scaled_built.value().slots.size(),
            scaled_streamed.value().slots.size());
  for (std::size_t s = 0; s < scaled_built.value().slots.size(); ++s) {
    EXPECT_EQ(scaled_built.value().slots[s].power_watts,
              scaled_streamed.value().slots[s].power_watts);
    EXPECT_EQ(scaled_built.value().slots[s].active_servers,
              scaled_streamed.value().slots[s].active_servers);
  }

  // Logical clusters and the guide read curves through Fleet::curve(), so
  // they run on a Builder fleet too.
  const auto guide_built = build_operating_guide(built.value());
  const auto guide_streamed = build_operating_guide(streamed.value());
  ASSERT_TRUE(guide_built.ok());
  ASSERT_TRUE(guide_streamed.ok());
  EXPECT_EQ(render_guide(guide_built.value()),
            render_guide(guide_streamed.value()));
  EXPECT_EQ(guide_built.value().efficient_capacity_fraction,
            guide_streamed.value().efficient_capacity_fraction);

  const OptimalRegionPolicy optimal;
  const auto cap_built = max_throughput_under_cap(optimal, built.value(), 1e9);
  const auto cap_streamed =
      max_throughput_under_cap(optimal, streamed.value(), 1e9);
  ASSERT_TRUE(cap_built.ok());
  ASSERT_TRUE(cap_streamed.ok());
  EXPECT_EQ(cap_built.value().max_demand, cap_streamed.value().max_demand);
  EXPECT_EQ(cap_built.value().max_throughput,
            cap_streamed.value().max_throughput);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

// --- Every kernel variant vs PowerCurve::normalized_power -----------------
//
// The Fleet keeps no per-server interpolation table: every evaluation path
// reads the grid rows. This pins all four entry points bitwise to the
// curve's own knot walk under kScalarReference (EPSERVE_FORCE_SCALAR=1) and
// every variant this build and CPU can run.

/// The eleven knots, both neighbours of every k/10 inside [0, 1], and 1000
/// seeded uniform draws.
std::vector<double> probe_utilizations() {
  std::vector<double> points;
  for (int k = 0; k <= 10; ++k) {
    const double knot = k == 0 ? 0.0 : metrics::kLoadLevels[k - 1];
    points.push_back(knot);
    if (k > 0) points.push_back(std::nextafter(knot, 0.0));
    if (k < 10) points.push_back(std::nextafter(knot, 1.0));
  }
  points.push_back(1.0);
  Rng rng(0xF1EE7);
  for (int k = 0; k < 1000; ++k) points.push_back(rng.uniform());
  return points;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

class FleetKernelVariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetKernelVariants, EveryPathBitwiseEqualsTheCurve) {
  const auto records = make_fleet(GetParam());
  const Fleet fleet = Fleet::build(records).take();
  const std::size_t n = fleet.size();
  const std::vector<double> points = probe_utilizations();
  const std::size_t slots = points.size();
  std::vector<std::uint64_t> expected(n * slots);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < slots; ++p) {
      expected[i * slots + p] =
          bits_of(records[i].curve.normalized_power(points[p]));
    }
  }

  // normalized_power(i, u) is the inline grid expression, whatever the
  // active variant.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < slots; ++p) {
      ASSERT_EQ(bits_of(fleet.normalized_power(i, points[p])),
                expected[i * slots + p])
          << "normalized_power server " << i << " u " << points[p];
    }
  }

  const metrics::kernels::Variant original =
      metrics::kernels::active().variant;
  for (const auto variant : {metrics::kernels::Variant::kScalarReference,
                             metrics::kernels::Variant::kGridScalar,
                             metrics::kernels::Variant::kGridAvx2,
                             metrics::kernels::Variant::kGridAvx512,
                             metrics::kernels::Variant::kGridNeon}) {
    if (!metrics::kernels::set_active_for_testing(variant)) continue;
    const char* name = metrics::kernels::variant_name(variant);
    std::vector<double> out(slots);
    for (std::size_t i = 0; i < n; ++i) {
      fleet.normalized_power_batch(i, points, out);
      for (std::size_t p = 0; p < slots; ++p) {
        ASSERT_EQ(bits_of(out[p]), expected[i * slots + p])
            << name << " batch server " << i << " u " << points[p];
      }
    }

    // Matrix: blocks of up to 256 servers, every point in every row.
    constexpr std::size_t kBlock = 256;
    std::vector<double> utils;
    std::vector<double> block_out;
    for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
      const std::size_t count = std::min(kBlock, n - i0);
      utils.clear();
      for (std::size_t r = 0; r < count; ++r) {
        utils.insert(utils.end(), points.begin(), points.end());
      }
      block_out.assign(utils.size(), 0.0);
      fleet.normalized_power_matrix(i0, count, utils, block_out, slots);
      for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t p = 0; p < slots; ++p) {
          ASSERT_EQ(bits_of(block_out[r * slots + p]),
                    expected[(i0 + r) * slots + p])
              << name << " matrix server " << i0 + r << " u " << points[p];
        }
      }
    }

    // Per server: round p gives server i the point (p + i) % slots, so every
    // (server, point) pair is visited once.
    std::vector<double> per_utils(n);
    std::vector<double> per_out(n);
    for (std::size_t p = 0; p < slots; ++p) {
      for (std::size_t i = 0; i < n; ++i) per_utils[i] = points[(p + i) % slots];
      fleet.normalized_power_per_server(per_utils, per_out);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits_of(per_out[i]), expected[i * slots + (p + i) % slots])
            << name << " per_server server " << i << " u " << per_utils[i];
      }
    }
  }
  ASSERT_TRUE(metrics::kernels::set_active_for_testing(original));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetKernelVariants,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

// --- Cached server orders at 1 / 100 / 5000 servers ------------------------

/// make_fleet(size) with every third record copied over its successor (same
/// curve, same id): equal (score, id) pairs the comparator cannot order.
std::vector<dataset::ServerRecord> make_fleet_with_duplicates(
    std::size_t size) {
  auto records = make_fleet(size);
  for (std::size_t i = 0; i + 1 < records.size(); i += 3) {
    records[i + 1] = records[i];
  }
  return records;
}

class FleetOrder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetOrder, MatchesPerCallSortIncludingTies) {
  const auto records = make_fleet_with_duplicates(GetParam());
  auto built = Fleet::build(records);
  ASSERT_TRUE(built.ok()) << built.error().message;
  Fleet fleet = std::move(built).take();
  using Score = std::function<double(const dataset::ServerRecord&)>;
  const std::pair<Fleet::OrderKey, Score> keys[] = {
      {Fleet::OrderKey::kEeAtFull,
       [](const auto& r) {
         return metrics::ee_at_level(r.curve, metrics::kNumLoadLevels - 1);
       }},
      {Fleet::OrderKey::kPeakEe,
       [](const auto& r) { return metrics::peak_ee(r.curve).value; }},
      {Fleet::OrderKey::kOverallScore,
       [](const auto& r) { return metrics::overall_score(r.curve); }},
  };
  std::vector<const std::size_t*> storage;
  for (const auto& [key, score] : keys) {
    const auto expected = reference_order(records, score);
    const auto cached = fleet.order(key);
    storage.push_back(cached.data());
    ASSERT_EQ(std::vector<std::size_t>(cached.begin(), cached.end()),
              expected);
    if (GetParam() > 1) {
      // The fleet really holds ties the id cannot break.
      std::size_t ties = 0;
      for (std::size_t k = 1; k < expected.size(); ++k) {
        const auto& a = records[expected[k - 1]];
        const auto& b = records[expected[k]];
        if (score(a) == score(b) && a.id == b.id) ++ties;
      }
      EXPECT_GT(ties, 0u);
    }
    EXPECT_EQ(fleet.order(key).data(), cached.data());  // served from cache
  }
  // The cache travels with a move: no re-sort, same storage.
  const Fleet moved = std::move(fleet);
  for (std::size_t k = 0; k < std::size(keys); ++k) {
    EXPECT_EQ(moved.order(keys[k].first).data(), storage[k]);
  }
}

TEST_P(FleetOrder, RankInvertsOrderAndPermutesPeakOps) {
  const auto records = make_fleet_with_duplicates(GetParam());
  const Fleet fleet = Fleet::build(records).take();
  for (const auto key : {Fleet::OrderKey::kEeAtFull, Fleet::OrderKey::kPeakEe,
                         Fleet::OrderKey::kOverallScore}) {
    const auto order = fleet.order(key);
    const auto rank = fleet.rank(key);
    const auto ranked = fleet.ranked_peak_ops(key);
    ASSERT_EQ(rank.size(), fleet.size());
    ASSERT_EQ(ranked.size(), fleet.size());
    for (std::size_t r = 0; r < fleet.size(); ++r) {
      ASSERT_EQ(rank[order[r]], r);
      ASSERT_EQ(bits_of(ranked[r]), bits_of(fleet.peak_ops()[order[r]]));
    }
  }
}

/// The cut placements rebuilt through Placement::fill equal the greedy
/// scatter fill over the same order, ties included, at every demand shape:
/// zero, partial prefixes, the optimal-region stage-2 spill and full load.
TEST_P(FleetOrder, CutPlacementsMatchTheGreedyIncludingTies) {
  const auto records = make_fleet_with_duplicates(GetParam());
  const Fleet fleet = Fleet::build(records).take();
  for (const char* name : {"pack-to-full", "balanced", "optimal-region"}) {
    for (const double demand : {0.0, 0.02, 0.5, 0.9, 0.97, 1.0}) {
      const auto ref = reference_place(records, name, demand);
      const auto placed = policy_by_name(name).place(fleet, demand);
      ASSERT_EQ(placed.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(bits_of(placed[i]), bits_of(ref[i]))
            << name << " demand " << demand << " server " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetOrder,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

// --- Autoscaler slot power against its definition --------------------------

class AutoscalerOracle : public ::testing::TestWithParam<std::size_t> {};

/// Slot power is, by definition, the sum over prefix positions j <
/// active_servers, in ascending j, of normalized_power(order[j], u_s) *
/// peak_watts, where u_s spreads the slot's demand over the active prefix.
/// flash_crowd and weekly at hysteresis 0 and 3 give active counts that
/// fall as well as rise and repeat across slots.
TEST_P(AutoscalerOracle, SlotPowersMatchTheDefinition) {
  const auto records = make_fleet(GetParam());
  const Fleet fleet = Fleet::build(records).take();
  const auto order = reference_order(records, [](const auto& r) {
    return metrics::overall_score(r.curve);
  });
  std::vector<double> prefix(records.size() + 1, 0.0);
  for (std::size_t k = 0; k < records.size(); ++k) {
    prefix[k + 1] = prefix[k] + records[order[k]].curve.peak_ops();
  }
  for (const char* name : {"flash_crowd", "weekly"}) {
    const auto trace = make_trace(name).value();
    for (const int hysteresis : {0, 3}) {
      AutoscalerConfig config;
      config.hysteresis_servers = hysteresis;
      const auto result = autoscale_over_day(fleet, trace, config);
      ASSERT_TRUE(result.ok()) << result.error().message;
      const auto& slots = result.value().slots;
      ASSERT_EQ(slots.size(), trace.demand.size());
      bool fell = false;
      std::vector<int> counts;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        const auto active = static_cast<std::size_t>(slots[s].active_servers);
        ASSERT_LE(active, records.size());
        const double demand_ops = trace.demand[s] * fleet.capacity_ops();
        const double u = prefix[active] > 0.0
                             ? std::min(1.0, demand_ops / prefix[active])
                             : 0.0;
        double power = 0.0;
        for (std::size_t j = 0; j < active; ++j) {
          const auto& curve = records[order[j]].curve;
          power += curve.normalized_power(u) * curve.peak_watts();
        }
        EXPECT_EQ(slots[s].power_watts, power)
            << name << " hysteresis " << hysteresis << " slot " << s;
        if (s > 0) {
          fell |= slots[s].active_servers < slots[s - 1].active_servers;
        }
        if (active > 0) counts.push_back(slots[s].active_servers);
      }
      if (GetParam() > 1) {
        std::sort(counts.begin(), counts.end());
        const bool tied =
            std::adjacent_find(counts.begin(), counts.end()) != counts.end();
        EXPECT_TRUE(fell) << name << " hysteresis " << hysteresis;
        EXPECT_TRUE(tied) << name << " hysteresis " << hysteresis;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AutoscalerOracle,
                         ::testing::Values(std::size_t{1}, std::size_t{100},
                                           std::size_t{5000}));

// --- Concurrency: 8 threads share one built Fleet ---------------------------

TEST(FleetConcurrency, EightThreadsSeeOneBuildAndIdenticalResults) {
  const auto records = make_fleet(100);
  const auto trace = make_trace("diurnal").value();

  // Single-threaded baseline through its own fleet.
  const auto baseline =
      compare_policies_over_day(Fleet::build(records).value(), trace);
  ASSERT_TRUE(baseline.ok());

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    const auto built = Fleet::build(records);
    ASSERT_TRUE(built.ok()) << built.error().message;
    const Fleet& shared = built.value();
    constexpr int kThreads = 8;
    std::vector<std::vector<DayResult>> per_thread(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto day = compare_policies_over_day(shared, trace);
        ASSERT_TRUE(day.ok());
        per_thread[static_cast<std::size_t>(t)] = std::move(day).take();
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& result : per_thread) {
      ASSERT_EQ(result.size(), baseline.value().size());
      for (std::size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i].energy_kwh, baseline.value()[i].energy_kwh);
        EXPECT_EQ(result[i].served_gops, baseline.value()[i].served_gops);
      }
    }
  }
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  const auto* builds = snap.find_counter("fleet.builds");
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(builds->value, 1u);
  telemetry::reset();
}

/// The three policies that walk a cached order, run together.
struct OrderedDay {
  DayResult pack;
  DayResult optimal;
  AutoscaleResult scaled;
};

std::optional<OrderedDay> run_ordered_day(const Fleet& fleet,
                                          const DemandTrace& trace) {
  const PackToFullPolicy pack;
  const OptimalRegionPolicy optimal;
  auto pack_day = simulate_day(pack, fleet, trace);
  auto optimal_day = simulate_day(optimal, fleet, trace);
  auto scaled = autoscale_over_day(fleet, trace);
  if (!pack_day.ok() || !optimal_day.ok() || !scaled.ok()) return std::nullopt;
  return OrderedDay{std::move(pack_day).take(), std::move(optimal_day).take(),
                    std::move(scaled).take()};
}

TEST(FleetConcurrency, EightThreadsBuildEachOrderOnce) {
  const auto records = make_fleet(500);
  const auto trace = make_trace("diurnal").value();
  const auto baseline = run_ordered_day(Fleet::build(records).value(), trace);
  ASSERT_TRUE(baseline.has_value());

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    const auto built = Fleet::build(records);
    ASSERT_TRUE(built.ok()) << built.error().message;
    const Fleet& shared = built.value();  // no order built yet
    constexpr int kThreads = 8;
    std::vector<std::optional<OrderedDay>> per_thread(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();  // race to first use of every order
        per_thread[static_cast<std::size_t>(t)] =
            run_ordered_day(shared, trace);
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& run : per_thread) {
      ASSERT_TRUE(run.has_value());
      EXPECT_EQ(run->pack.energy_kwh, baseline->pack.energy_kwh);
      EXPECT_EQ(run->pack.served_gops, baseline->pack.served_gops);
      EXPECT_EQ(run->optimal.energy_kwh, baseline->optimal.energy_kwh);
      EXPECT_EQ(run->optimal.served_gops, baseline->optimal.served_gops);
      EXPECT_EQ(run->scaled.energy_kwh, baseline->scaled.energy_kwh);
      EXPECT_EQ(run->scaled.served_gops, baseline->scaled.served_gops);
      ASSERT_EQ(run->scaled.slots.size(), baseline->scaled.slots.size());
      for (std::size_t s = 0; s < run->scaled.slots.size(); ++s) {
        EXPECT_EQ(run->scaled.slots[s].power_watts,
                  baseline->scaled.slots[s].power_watts);
      }
    }
  }
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  const auto* order_builds = snap.find_counter("fleet.order_builds");
  ASSERT_NE(order_builds, nullptr);
  EXPECT_EQ(order_builds->value, 3u);
  const auto* order_span = snap.find_span("fleet.order");
  ASSERT_NE(order_span, nullptr);
  EXPECT_EQ(order_span->count, 3u);
  telemetry::reset();
}

TEST(PlacementTelemetry, CutWalksAreSpannedAndCounted) {
  const auto records = make_fleet(100);
  const Fleet fleet = Fleet::build(records).take();
  const std::array<double, 2> demands{0.5, 1.0};
  telemetry::reset();
  telemetry::set_enabled(true);
  const Placement placed = PackToFullPolicy().place_batch(fleet, demands);
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  const auto* span = snap.find_span("placement.cuts");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  // A walk covers every rank it loads: the full prefix plus the partial.
  std::uint64_t walked = 0;
  for (const SlotCut& slot : placed.slots) {
    walked += std::min<std::uint64_t>(slot.cut + 1, fleet.size());
  }
  const auto* ranks = snap.find_counter("placement.cut_ranks");
  ASSERT_NE(ranks, nullptr);
  EXPECT_EQ(ranks->value, walked);
  telemetry::reset();
}

TEST(FleetConcurrency, EightThreadsBuildRegionTopsOnce) {
  const auto records = make_fleet(500);
  const Fleet reference = Fleet::build(records).take();
  const auto& expected = reference.optimal_region_tops(0.95);

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    const Fleet shared = Fleet::build(records).take();  // no cache built yet
    constexpr int kThreads = 8;
    std::vector<const Fleet::RegionTops*> seen(kThreads, nullptr);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();  // race to first use of the region tops
        seen[static_cast<std::size_t>(t)] = &shared.optimal_region_tops(0.95);
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto* tops : seen) {
      ASSERT_EQ(tops, seen.front());
      ASSERT_EQ(tops->ranked_top.size(), expected.ranked_top.size());
      for (std::size_t k = 0; k < expected.ranked_top.size(); ++k) {
        ASSERT_EQ(bits_of(tops->ranked_top[k]),
                  bits_of(expected.ranked_top[k]));
        ASSERT_EQ(bits_of(tops->utilization[k]),
                  bits_of(expected.utilization[k]));
      }
    }
  }
  const auto snap = telemetry::snapshot();
  telemetry::set_enabled(false);
  const auto* builds = snap.find_counter("fleet.region_tops_builds");
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(builds->value, 1u);
  const auto* span = snap.find_span("fleet.region_tops");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
  // The tops are ranked by the peak-EE order, built once alongside.
  const auto* order_builds = snap.find_counter("fleet.order_builds");
  ASSERT_NE(order_builds, nullptr);
  EXPECT_EQ(order_builds->value, 1u);
  telemetry::reset();
}

}  // namespace
}  // namespace epserve::cluster
