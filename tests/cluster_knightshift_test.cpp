#include "cluster/knightshift.h"

#include <gtest/gtest.h>

#include "dataset/generator.h"
#include "metrics/curve_models.h"
#include "metrics/proportionality.h"

namespace epserve::cluster {
namespace {

dataset::ServerRecord make_primary(double ep, double idle) {
  auto model = metrics::TwoSegmentPowerModel::solve(ep, idle, 0.5);
  EXPECT_TRUE(model.ok());
  dataset::ServerRecord r;
  r.id = 1;
  r.curve = metrics::to_power_curve(model.value(), 400.0, 2e6);
  return r;
}

TEST(KnightShift, CompositeCurveIsValidAndMonotone) {
  const auto primary = make_primary(0.5, 0.5);
  const auto curve = knightshift_curve(primary);
  ASSERT_TRUE(curve.ok()) << curve.error().message;
  EXPECT_TRUE(curve.value().validate().ok());
  EXPECT_TRUE(curve.value().power_monotone());
}

TEST(KnightShift, LiftsEpOfBadlyProportionalPrimaries) {
  // The refs' headline: a ~2009-class primary (EP ~0.5, idle ~50%) jumps
  // dramatically when fronted by a knight.
  const auto primary = make_primary(0.5, 0.5);
  const auto cmp = compare_knightshift(primary);
  ASSERT_TRUE(cmp.ok());
  EXPECT_GT(cmp.value().composite_ep, cmp.value().primary_ep + 0.12);
  EXPECT_LT(cmp.value().composite_idle_fraction,
            cmp.value().primary_idle_fraction / 3.0);
}

TEST(KnightShift, SmallerGainOnAlreadyProportionalPrimaries) {
  const auto legacy = make_primary(0.45, 0.55);
  const auto modern = make_primary(0.90, 0.10);
  const auto legacy_cmp = compare_knightshift(legacy);
  const auto modern_cmp = compare_knightshift(modern);
  ASSERT_TRUE(legacy_cmp.ok());
  ASSERT_TRUE(modern_cmp.ok());
  const double legacy_gain =
      legacy_cmp.value().composite_ep - legacy_cmp.value().primary_ep;
  const double modern_gain =
      modern_cmp.value().composite_ep - modern_cmp.value().primary_ep;
  EXPECT_GT(legacy_gain, modern_gain);
}

TEST(KnightShift, BiggerKnightExtendsTheLowPowerRegime) {
  const auto primary = make_primary(0.5, 0.5);
  KnightShiftConfig small;
  small.knight_capacity_fraction = 0.10;
  KnightShiftConfig large;
  large.knight_capacity_fraction = 0.30;
  const auto a = knightshift_curve(primary, small);
  const auto b = knightshift_curve(primary, large);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // With the bigger knight, the 20%-load point is still knight-only: less
  // power than the small-knight composite that already woke the primary.
  EXPECT_LT(b.value().watts_at_level(1), a.value().watts_at_level(1));
}

TEST(KnightShift, PeakThroughputGrowsByTheKnight) {
  const auto primary = make_primary(0.6, 0.4);
  KnightShiftConfig config;
  config.knight_capacity_fraction = 0.15;
  const auto curve = knightshift_curve(primary, config);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(curve.value().peak_ops(), 2e6 * 1.15, 1.0);
}

TEST(KnightShift, WorksAcrossTheGeneratedPopulation) {
  auto population = dataset::generate_population();
  ASSERT_TRUE(population.ok());
  for (std::size_t i = 0; i < population.value().size(); i += 37) {
    const auto cmp = compare_knightshift(population.value()[i]);
    ASSERT_TRUE(cmp.ok());
    EXPECT_GT(cmp.value().composite_ep, cmp.value().primary_ep - 1e-9);
  }
}

TEST(KnightShift, RejectsBadConfigs) {
  const auto primary = make_primary(0.5, 0.5);
  KnightShiftConfig bad;
  bad.knight_capacity_fraction = 0.0;
  EXPECT_FALSE(knightshift_curve(primary, bad).ok());
  bad = {};
  bad.knight_power_fraction = 1.0;
  EXPECT_FALSE(knightshift_curve(primary, bad).ok());
  bad = {};
  bad.primary_suspend_fraction = -0.1;
  EXPECT_FALSE(knightshift_curve(primary, bad).ok());

  // An invalid primary curve is rejected by the one-server Fleet::build the
  // record overloads go through, naming the server.
  dataset::ServerRecord broken = primary;
  broken.id = 7;
  broken.curve = metrics::PowerCurve{};  // all-zero: fails validate()
  const auto curve = knightshift_curve(broken);
  ASSERT_FALSE(curve.ok());
  EXPECT_EQ(curve.error().message.rfind("server 7: ", 0), 0u)
      << curve.error().message;
  const auto cmp = compare_knightshift(broken);
  ASSERT_FALSE(cmp.ok());
  EXPECT_EQ(cmp.error().message, curve.error().message);
}

}  // namespace
}  // namespace epserve::cluster
