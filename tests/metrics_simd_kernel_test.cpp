// metrics/simd contract tests (docs/KERNELS.md):
//
//  * UniformGridTable at the default fine resolution matches the knot-walk
//    reference bitwise at every knot and within <= 2 ULP everywhere (10k
//    random utilisations);
//  * at native resolution (1 bin/segment — what cluster::Fleet stores) the
//    grid is bitwise identical to the knot walk at EVERY utilisation;
//  * every compiled-in vector variant (AVX2/NEON) is bitwise identical to
//    the scalar grid loop on all four kernels, including unaligned sizes
//    that exercise the scalar tails;
//  * dispatch honours EPSERVE_FORCE_SCALAR and the set_active_for_testing
//    seam, and Fleet routes kScalarReference through the pinned PowerCurve
//    path;
//  * the whole stack is data-race-free when many threads share one Fleet
//    (run under -DEPSERVE_SANITIZE=thread via `ctest -L parallel`; the simd
//    label also re-runs this binary with EPSERVE_FORCE_SCALAR=1).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "metrics/curve_models.h"
#include "metrics/load_level.h"
#include "metrics/power_curve.h"
#include "metrics/simd/kernels.h"
#include "metrics/uniform_grid.h"
#include "util/contracts.h"

namespace epserve::metrics {
namespace {

namespace kernels = epserve::metrics::kernels;

/// Restores the dispatched kernel set on scope exit, so tests that pin a
/// variant cannot leak it into later tests.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active().variant) {}
  ~KernelGuard() { kernels::set_active_for_testing(saved_); }

 private:
  kernels::Variant saved_;
};

PowerCurve make_curve(double ep, double idle, double tau, double peak_watts,
                      double peak_ops) {
  auto model = TwoSegmentPowerModel::solve(ep, idle, tau);
  EXPECT_TRUE(model.ok()) << model.error().message;
  return to_power_curve(model.value(), peak_watts, peak_ops);
}

PowerCurve make_default_curve() {
  return make_curve(0.72, 0.31, 0.6, 311.0, 1.25e6);
}

std::vector<dataset::ServerRecord> make_fleet_records(std::size_t size) {
  std::vector<dataset::ServerRecord> fleet;
  fleet.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double idle = 0.20 + 0.05 * static_cast<double>(i % 7);
    const double tau = 0.5 + 0.1 * static_cast<double>(i % 4);
    const double ep =
        (1.0 - idle) * (tau + 0.25 + 0.1 * static_cast<double>(i % 6));
    dataset::ServerRecord r;
    r.id = static_cast<int>(i) + 1;
    r.curve = make_curve(ep, idle, tau,
                         250.0 + 10.0 * static_cast<double>(i % 9),
                         1e6 + 1e5 * static_cast<double>(i % 11));
    fleet.push_back(std::move(r));
  }
  return fleet;
}

/// Distance in representable doubles (0 = bitwise equal). Both finite.
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits >= 0 ? static_cast<std::uint64_t>(bits) + (1ULL << 63)
                     : (1ULL << 63) - static_cast<std::uint64_t>(-bits);
  };
  const std::uint64_t ua = ordered(a);
  const std::uint64_t ub = ordered(b);
  return ua > ub ? ua - ub : ub - ua;
}

std::vector<double> random_utils(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> utils(n);
  for (auto& u : utils) u = dist(rng);
  // Make sure every segment boundary and both endpoints are represented.
  for (std::size_t k = 0; k <= 10 && k < n; ++k) {
    utils[k] = static_cast<double>(k) / 10.0;
  }
  return utils;
}

// --- UniformGridTable vs the knot-walk reference ---------------------------

TEST(UniformGridTable, MatchesReferenceBitwiseAtKnots) {
  const PowerCurve curve = make_default_curve();
  const auto table = curve.interpolation_table();
  const auto grid = UniformGridTable::resample(table);
  ASSERT_EQ(grid.bins(), 10 * UniformGridTable::kDefaultBinsPerSegment);
  for (const double knot : table.knot_u) {
    EXPECT_EQ(grid.evaluate(knot),
              PowerCurve::normalized_power_from_table(table, knot))
        << "knot " << knot;
  }
}

TEST(UniformGridTable, WithinTwoUlpOfReferenceEverywhere) {
  const PowerCurve curve = make_default_curve();
  const auto table = curve.interpolation_table();
  const auto grid = UniformGridTable::resample(table);
  const auto utils = random_utils(10000, 42);
  std::uint64_t worst = 0;
  for (const double u : utils) {
    const double reference = PowerCurve::normalized_power_from_table(table, u);
    worst = std::max(worst, ulp_distance(grid.evaluate(u), reference));
  }
  // The documented policy: bin selection can disagree with the knot walk only
  // within a few ULP of a knot, where the two segment lines agree to 2 ULP.
  EXPECT_LE(worst, 2u);
}

TEST(UniformGridTable, NativeResolutionIsBitwiseEverywhere) {
  const PowerCurve curve = make_default_curve();
  const auto table = curve.interpolation_table();
  // 1 bin/segment: the bin index computation IS the knot walk's own u * 10.
  const auto grid = UniformGridTable::resample(table, 1);
  ASSERT_EQ(grid.bins(), 10u);
  const auto utils = random_utils(10000, 7);
  for (const double u : utils) {
    ASSERT_EQ(grid.evaluate(u),
              PowerCurve::normalized_power_from_table(table, u))
        << "u = " << u;
  }
  // Utilisations a few ULP either side of every knot — the adversarial band.
  for (const double knot : table.knot_u) {
    double lo = knot;
    double hi = knot;
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1.0);
      for (const double u : {lo, hi}) {
        ASSERT_EQ(grid.evaluate(u),
                  PowerCurve::normalized_power_from_table(table, u))
            << "u near knot " << knot;
      }
    }
  }
}

TEST(UniformGridTable, BatchMatchesScalarEvaluate) {
  const PowerCurve curve = make_default_curve();
  const auto grid = UniformGridTable::from_curve(curve);
  const auto utils = random_utils(1003, 99);  // odd size: exercises tails
  std::vector<double> out(utils.size());
  grid.evaluate_batch(utils, out);
  for (std::size_t k = 0; k < utils.size(); ++k) {
    ASSERT_EQ(out[k], grid.evaluate(utils[k])) << "k = " << k;
  }
}

TEST(UniformGridTable, RejectsOutOfRangeUtilization) {
  const auto grid = UniformGridTable::from_curve(make_default_curve());
  EXPECT_THROW((void)grid.evaluate(-0.001), ContractViolation);
  EXPECT_THROW((void)grid.evaluate(1.001), ContractViolation);
  EXPECT_THROW((void)grid.evaluate(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  const std::vector<double> bad = {0.5, 0.2, 1.5, 0.1};
  std::vector<double> out(bad.size());
  EXPECT_THROW(grid.evaluate_batch(bad, out), ContractViolation);
}

// --- Vector variants vs the scalar grid loop -------------------------------

std::vector<kernels::Variant> compiled_vector_variants() {
  std::vector<kernels::Variant> variants;
  for (const auto v : {kernels::Variant::kGridAvx2,
                       kernels::Variant::kGridAvx512,
                       kernels::Variant::kGridNeon}) {
    if (kernels::get(v) != nullptr) variants.push_back(v);
  }
  return variants;
}

TEST(SimdKernels, VectorGridBatchBitwiseEqualsScalar) {
  const auto grid = UniformGridTable::from_curve(make_default_curve());
  const auto view = grid.view();
  const kernels::Kernels* scalar =
      kernels::get(kernels::Variant::kGridScalar);
  ASSERT_NE(scalar, nullptr);
  for (const auto variant : compiled_vector_variants()) {
    const kernels::Kernels* vec = kernels::get(variant);
    // Sizes straddling the vector width, so both the SIMD body and the
    // scalar tail run.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{5}, std::size_t{64},
                                std::size_t{1003}}) {
      const auto utils = random_utils(n, static_cast<std::uint32_t>(n));
      std::vector<double> expected(n);
      std::vector<double> actual(n);
      scalar->grid_batch(view, utils.data(), expected.data(), n);
      vec->grid_batch(view, utils.data(), actual.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(actual[k], expected[k])
            << vec->name << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimdKernels, VectorFleetBatchBitwiseEqualsScalar) {
  const auto records = make_fleet_records(1003);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  const auto utils = random_utils(view.servers, 11);
  std::vector<double> expected(view.servers);
  std::vector<double> actual(view.servers);
  kernels::get(kernels::Variant::kGridScalar)
      ->fleet_batch(view, utils.data(), expected.data());
  for (const auto variant : compiled_vector_variants()) {
    const kernels::Kernels* vec = kernels::get(variant);
    vec->fleet_batch(view, utils.data(), actual.data());
    for (std::size_t i = 0; i < view.servers; ++i) {
      ASSERT_EQ(actual[i], expected[i]) << vec->name << " server " << i;
    }
  }
}

TEST(SimdKernels, VectorRowKernelsBitwiseEqualScalar) {
  const auto records = make_fleet_records(37);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  const kernels::Kernels* scalar =
      kernels::get(kernels::Variant::kGridScalar);
  // Slot counts straddling the vector widths and the 2x-unrolled main loop.
  for (const std::size_t slots :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{24},
        std::size_t{27}}) {
    const auto utils = random_utils(view.servers * slots, 17);
    std::vector<double> expected(utils.size());
    std::vector<double> actual(utils.size());
    scalar->row_matrix(view, 0, view.servers, utils.data(), expected.data(),
                       slots);
    for (const auto variant : compiled_vector_variants()) {
      const kernels::Kernels* vec = kernels::get(variant);
      // Whole matrix in one call...
      vec->row_matrix(view, 0, view.servers, utils.data(), actual.data(),
                      slots);
      for (std::size_t at = 0; at < utils.size(); ++at) {
        ASSERT_EQ(actual[at], expected[at])
            << vec->name << " slots=" << slots << " at=" << at;
      }
      // ...and row by row, including a nonzero block offset.
      std::vector<double> row_out(slots);
      for (std::size_t i = 0; i < view.servers; ++i) {
        vec->row_batch(view, i, utils.data() + i * slots, row_out.data(),
                       slots);
        for (std::size_t d = 0; d < slots; ++d) {
          ASSERT_EQ(row_out[d], expected[i * slots + d])
              << vec->name << " slots=" << slots << " server=" << i;
        }
      }
      const std::size_t tail = view.servers / 2;
      vec->row_matrix(view, tail, view.servers - tail,
                      utils.data() + tail * slots, actual.data(), slots);
      for (std::size_t at = 0; at < (view.servers - tail) * slots; ++at) {
        ASSERT_EQ(actual[at], expected[tail * slots + at])
            << vec->name << " slots=" << slots << " offset block at=" << at;
      }
    }
  }
}

TEST(SimdKernels, RowKernelsRejectOutOfRange) {
  const auto records = make_fleet_records(5);
  auto fleet = cluster::Fleet::build(records);
  ASSERT_TRUE(fleet.ok());
  const auto view = fleet.value().grid_view();
  std::vector<kernels::Variant> variants = {kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    const kernels::Kernels* k = kernels::get(variant);
    // Violations in the vector body and in the scalar tail.
    for (const std::size_t bad_at : {std::size_t{2}, std::size_t{8}}) {
      std::vector<double> utils(9, 0.5);
      utils[bad_at] = 1.5;
      std::vector<double> out(utils.size());
      EXPECT_THROW(
          k->row_batch(view, 1, utils.data(), out.data(), utils.size()),
          ContractViolation)
          << k->name << " bad_at=" << bad_at;
      EXPECT_THROW(k->row_matrix(view, 0, 3, utils.data(), out.data(), 3),
                   ContractViolation)
          << k->name << " matrix bad_at=" << bad_at;
    }
  }
}

TEST(SimdKernels, VectorClampAndAxpyBitwiseEqualScalar) {
  const kernels::Kernels* scalar =
      kernels::get(kernels::Variant::kGridScalar);
  std::vector<double> in = {-0.5, -0.0, 0.0,  0.25, 1.0,
                            1.5,  -1e9, 1e-9, 0.999999};
  in.push_back(std::numeric_limits<double>::quiet_NaN());
  in.push_back(std::numeric_limits<double>::infinity());
  in.push_back(-std::numeric_limits<double>::infinity());
  const std::size_t n = in.size();
  for (const auto variant : compiled_vector_variants()) {
    const kernels::Kernels* vec = kernels::get(variant);
    std::vector<double> expected(n);
    std::vector<double> actual(n);
    scalar->clamp01(in.data(), expected.data(), n);
    vec->clamp01(in.data(), actual.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto ebits = std::bit_cast<std::uint64_t>(expected[k]);
      const auto abits = std::bit_cast<std::uint64_t>(actual[k]);
      ASSERT_EQ(abits, ebits) << vec->name << " clamp01 k=" << k;
    }
    const auto x = random_utils(n, 5);
    std::vector<double> acc_expected(n, 0.125);
    std::vector<double> acc_actual(n, 0.125);
    scalar->axpy(acc_expected.data(), x.data(), 217.375, n);
    vec->axpy(acc_actual.data(), x.data(), 217.375, n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(acc_actual[k], acc_expected[k]) << vec->name << " axpy k=" << k;
    }
  }
}

TEST(SimdKernels, VectorVariantsRejectOutOfRange) {
  const auto grid = UniformGridTable::from_curve(make_default_curve());
  for (const auto variant : compiled_vector_variants()) {
    const kernels::Kernels* vec = kernels::get(variant);
    std::vector<double> bad = {0.1, 0.2, 0.3, 1.5};  // one full vector
    std::vector<double> out(bad.size());
    EXPECT_THROW(vec->grid_batch(grid.view(), bad.data(), out.data(),
                                 bad.size()),
                 ContractViolation)
        << vec->name;
  }
}

// --- Dispatch --------------------------------------------------------------

TEST(KernelDispatch, DetectHonorsForceScalarEnvironment) {
  const char* before = std::getenv("EPSERVE_FORCE_SCALAR");
  const std::string saved = before != nullptr ? before : "";
  ::setenv("EPSERVE_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(kernels::detect(), kernels::Variant::kScalarReference);
  ::setenv("EPSERVE_FORCE_SCALAR", "0", 1);
  EXPECT_NE(kernels::detect(), kernels::Variant::kScalarReference);
  if (before != nullptr) {
    ::setenv("EPSERVE_FORCE_SCALAR", saved.c_str(), 1);
  } else {
    ::unsetenv("EPSERVE_FORCE_SCALAR");
  }
}

// Run both with and without EPSERVE_FORCE_SCALAR=1 by the simd ctest label:
// active() must agree with whatever the environment says.
TEST(KernelDispatch, ActiveRespectsForceScalar) {
  const char* force = std::getenv("EPSERVE_FORCE_SCALAR");
  const bool forced = force != nullptr && std::string(force) != "0" &&
                      std::string(force) != "";
  // Another test may have pinned a variant; active() still answers, and
  // detect() reflects the environment.
  if (forced) {
    EXPECT_EQ(kernels::detect(), kernels::Variant::kScalarReference);
  } else {
    EXPECT_NE(kernels::detect(), kernels::Variant::kScalarReference);
  }
  EXPECT_NE(kernels::active().name, nullptr);
}

TEST(KernelDispatch, SetActiveForTestingRoundTrips) {
  KernelGuard guard;
  ASSERT_TRUE(
      kernels::set_active_for_testing(kernels::Variant::kScalarReference));
  EXPECT_EQ(kernels::active().variant, kernels::Variant::kScalarReference);
  ASSERT_TRUE(kernels::set_active_for_testing(kernels::Variant::kGridScalar));
  EXPECT_EQ(kernels::active().variant, kernels::Variant::kGridScalar);
}

TEST(KernelDispatch, VariantNamesAreStable) {
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kScalarReference),
               "scalar-reference");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridScalar),
               "grid-scalar");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridAvx2),
               "grid-avx2");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridAvx512),
               "grid-avx512");
  EXPECT_STREQ(kernels::variant_name(kernels::Variant::kGridNeon),
               "grid-neon");
}

// --- Fleet integration -----------------------------------------------------

TEST(FleetKernels, EveryVariantMatchesPowerCurveReference) {
  const auto records = make_fleet_records(257);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  const auto utils = random_utils(fleet.size(), 23);

  std::vector<double> reference(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    reference[i] = records[i].curve.normalized_power(utils[i]);
  }

  KernelGuard guard;
  std::vector<kernels::Variant> variants = {
      kernels::Variant::kScalarReference, kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    ASSERT_TRUE(kernels::set_active_for_testing(variant));
    std::vector<double> out(fleet.size());
    fleet.normalized_power_per_server(utils, out);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      ASSERT_EQ(out[i], reference[i])
          << kernels::variant_name(variant) << " server " << i;
    }
    // Per-server batch API, one server against many utilisations.
    const auto point_utils = random_utils(97, 31);
    std::vector<double> batch(point_utils.size());
    fleet.normalized_power_batch(5, point_utils, batch);
    for (std::size_t k = 0; k < point_utils.size(); ++k) {
      ASSERT_EQ(batch[k], records[5].curve.normalized_power(point_utils[k]))
          << kernels::variant_name(variant) << " k=" << k;
    }
    // Blocked matrix API: every (server, slot) cell equals the per-server
    // batch result, including a block that does not start at server 0.
    constexpr std::size_t kSlots = 11;
    constexpr std::size_t kFirst = 3;
    const std::size_t count = fleet.size() - kFirst;
    const auto matrix_utils = random_utils(count * kSlots, 41);
    std::vector<double> matrix(count * kSlots);
    fleet.normalized_power_matrix(kFirst, count, matrix_utils, matrix, kSlots);
    std::vector<double> row(kSlots);
    for (std::size_t r = 0; r < count; ++r) {
      fleet.normalized_power_batch(
          kFirst + r,
          std::span<const double>(matrix_utils.data() + r * kSlots, kSlots),
          row);
      for (std::size_t d = 0; d < kSlots; ++d) {
        ASSERT_EQ(matrix[r * kSlots + d], row[d])
            << kernels::variant_name(variant) << " row " << r << " slot " << d;
      }
    }
  }
}

TEST(FleetKernels, EvaluateBatchIdenticalAcrossVariants) {
  const auto records = make_fleet_records(400);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  const std::vector<double> demands = {0.0, 0.15, 0.33, 0.5, 0.72, 0.9, 1.0};
  const cluster::OptimalRegionPolicy policy;

  KernelGuard guard;
  ASSERT_TRUE(kernels::set_active_for_testing(
      kernels::Variant::kScalarReference));
  auto reference = cluster::evaluate_batch(policy, fleet, demands);
  ASSERT_TRUE(reference.ok());

  std::vector<kernels::Variant> variants = {kernels::Variant::kGridScalar};
  for (const auto v : compiled_vector_variants()) variants.push_back(v);
  for (const auto variant : variants) {
    ASSERT_TRUE(kernels::set_active_for_testing(variant));
    auto result = cluster::evaluate_batch(policy, fleet, demands);
    ASSERT_TRUE(result.ok());
    for (std::size_t d = 0; d < demands.size(); ++d) {
      ASSERT_EQ(result.value()[d].total_power_watts,
                reference.value()[d].total_power_watts)
          << kernels::variant_name(variant) << " demand " << demands[d];
      ASSERT_EQ(result.value()[d].total_ops, reference.value()[d].total_ops)
          << kernels::variant_name(variant) << " demand " << demands[d];
    }
  }
}

TEST(FleetKernels, SharedFleetIsRaceFreeAcrossThreads) {
  const auto records = make_fleet_records(512);
  auto built = cluster::Fleet::build(records);
  ASSERT_TRUE(built.ok());
  const cluster::Fleet& fleet = built.value();
  constexpr int kThreads = 8;
  std::vector<std::vector<double>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&fleet, &results, t] {
        const auto utils =
            random_utils(fleet.size(), static_cast<std::uint32_t>(100 + t));
        std::vector<double> out(fleet.size());
        for (int round = 0; round < 16; ++round) {
          fleet.normalized_power_per_server(utils, out);
        }
        results[static_cast<std::size_t>(t)] = std::move(out);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto utils =
        random_utils(fleet.size(), static_cast<std::uint32_t>(100 + t));
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i],
                fleet.normalized_power(i, utils[i]))
          << "thread " << t << " server " << i;
    }
  }
}

}  // namespace
}  // namespace epserve::metrics
