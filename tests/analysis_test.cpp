#include <gtest/gtest.h>

#include "analysis/async_analysis.h"
#include "analysis/context.h"
#include "analysis/envelope.h"
#include "analysis/idle_analysis.h"
#include "analysis/memory_analysis.h"
#include "analysis/peak_shift.h"
#include "analysis/rekeying.h"
#include "analysis/report.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "dataset/generator.h"
#include "metrics/efficiency.h"
#include "metrics/proportionality.h"
#include "util/contracts.h"

namespace epserve::analysis {
namespace {

const dataset::ResultRepository& repo() {
  static const dataset::ResultRepository instance = [] {
    auto result = dataset::generate_population();
    EXPECT_TRUE(result.ok());
    return dataset::ResultRepository(std::move(result).take());
  }();
  return instance;
}

/// The shared analysis context over repo().
const AnalysisContext& ctx() {
  static const AnalysisContext instance(repo());
  return instance;
}

// --- Trends -------------------------------------------------------------------

TEST(Trends, CoversAllYears2004To2016) {
  const auto rows = year_trends(ctx());
  ASSERT_EQ(rows.size(), 13u);
  EXPECT_EQ(rows.front().year, 2004);
  EXPECT_EQ(rows.back().year, 2016);
}

TEST(Trends, CountsSumToPopulation) {
  std::size_t total = 0;
  for (const auto& row : year_trends(ctx())) total += row.count;
  EXPECT_EQ(total, repo().size());
}

TEST(Trends, EpJumpsMatchPaperDirection) {
  const auto rows = year_trends(ctx());
  EXPECT_GT(ep_jump(rows, 2008, 2009).value(), 0.35);  // paper +48.65%
  EXPECT_GT(ep_jump(rows, 2011, 2012).value(), 0.18);  // paper +24.24%
  // Non-tock transitions move much less.
  EXPECT_LT(ep_jump(rows, 2009, 2010).value(), 0.20);
}

TEST(Trends, PublishedYearKeyHasNoPre2007Rows) {
  const auto rows = year_trends(ctx(), dataset::YearKey::kPublished);
  EXPECT_GE(rows.front().year, 2007);
}

TEST(Trends, EpJumpRejectsMissingYears) {
  const auto rows = year_trends(ctx());
  const auto missing_from = ep_jump(rows, 1999, 2009);
  ASSERT_FALSE(missing_from.ok());
  EXPECT_EQ(missing_from.error().code, Error::Code::kNotFound);
  EXPECT_NE(missing_from.error().message.find("1999"), std::string::npos);
  const auto missing_to = ep_jump(rows, 2009, 2000);
  ASSERT_FALSE(missing_to.ok());
  EXPECT_EQ(missing_to.error().code, Error::Code::kNotFound);
  EXPECT_NE(missing_to.error().message.find("2000"), std::string::npos);
}

TEST(Trends, PeakEeSummaryAtLeastOverallScore) {
  // Peak per-level EE always >= the overall (mixed-load) score.
  for (const auto& row : year_trends(ctx())) {
    EXPECT_GE(row.peak_ee.mean, row.score.mean);
  }
}

// --- Envelope (Fig.9/11) --------------------------------------------------------

TEST(Envelope, ExtremesAreThePinnedExemplars) {
  const auto env = power_envelope(repo());
  EXPECT_NEAR(env.min_ep, 0.18, 0.01);
  EXPECT_NEAR(env.max_ep, 1.05, 0.01);
  ASSERT_NE(env.min_ep_server, nullptr);
  ASSERT_NE(env.max_ep_server, nullptr);
  EXPECT_EQ(env.min_ep_server->hw_year, 2008);
  EXPECT_EQ(env.max_ep_server->hw_year, 2012);
}

TEST(Envelope, AllCurvesInsidePowerEnvelope) {
  const auto env = power_envelope(repo());
  for (const auto& r : repo().records()) {
    const auto points = normalized_power_points(r);
    for (std::size_t i = 0; i < kEnvelopePoints; ++i) {
      EXPECT_GE(points[i], env.lower[i] - 1e-12);
      EXPECT_LE(points[i], env.upper[i] + 1e-12);
    }
  }
}

TEST(Envelope, ExtremeServersTraceTheEnvelopeEdges) {
  // The paper: the lowest-EP server's curve is the upper edge, the
  // highest-EP server's the lower edge — "except the starting part before
  // 10% utilization". In the synthetic population the identification is
  // approximate at high load (interior-peak curves converge there), so the
  // upper edge is checked everywhere and the lower edge through 60% load.
  const auto env = power_envelope(repo());
  const auto upper = normalized_power_points(*env.min_ep_server);
  const auto lower = normalized_power_points(*env.max_ep_server);
  for (std::size_t i = 1; i < kEnvelopePoints; ++i) {
    EXPECT_NEAR(upper[i], env.upper[i], 0.05) << "point " << i;
  }
  for (std::size_t i = 2; i <= 6; ++i) {  // utilisation 20%..60%
    EXPECT_NEAR(lower[i], env.lower[i], 0.06) << "point " << i;
  }
}

TEST(Envelope, PowerEnvelopeEndsAtUnity) {
  const auto env = power_envelope(repo());
  EXPECT_NEAR(env.lower.back(), 1.0, 1e-9);
  EXPECT_NEAR(env.upper.back(), 1.0, 1e-9);
}

TEST(Envelope, EeEnvelopeUpperExceedsOneForHighEpServers) {
  // Fig.11: the almond's upper edge rises above 1.0 before full load.
  const auto env = ee_envelope(repo());
  bool above_one = false;
  for (std::size_t i = 0; i + 1 < metrics::kNumLoadLevels; ++i) {
    if (env.upper[i] > 1.0) above_one = true;
  }
  EXPECT_TRUE(above_one);
  EXPECT_NEAR(env.upper.back(), 1.0, 1e-9);
  EXPECT_NEAR(env.lower.back(), 1.0, 1e-9);
}

TEST(Envelope, HighEpServersReachHighEeZonesEarly) {
  // Fig.12: EP > 1 servers reach 0.8x of full-load EE before 30% and 1.0x
  // before 40% utilisation.
  for (const auto& r : repo().records()) {
    if (metrics::energy_proportionality(r.curve) >= 1.0) {
      EXPECT_LT(metrics::utilization_reaching_normalized_ee(r.curve, 0.8), 0.3);
      EXPECT_LT(metrics::utilization_reaching_normalized_ee(r.curve, 1.0), 0.4);
    }
  }
}

TEST(Envelope, SameEpDifferentCrossingBehaviour) {
  // Fig.10: a 2011 EP=0.75 curve crosses the ideal line; a 2016 EP=0.75
  // curve does not.
  const dataset::ServerRecord* crossing_2011 = nullptr;
  const dataset::ServerRecord* flat_2016 = nullptr;
  for (const auto& r : repo().records()) {
    const double ep = metrics::energy_proportionality(r.curve);
    if (std::abs(ep - 0.75) > 0.005) continue;
    if (r.hw_year == 2011 && crossing_2011 == nullptr) crossing_2011 = &r;
    if (r.hw_year == 2016 &&
        metrics::peak_ee_utilization(r.curve) == 1.0 && flat_2016 == nullptr) {
      flat_2016 = &r;
    }
  }
  ASSERT_NE(crossing_2011, nullptr);
  ASSERT_NE(flat_2016, nullptr);
  EXPECT_FALSE(metrics::ideal_intersections(crossing_2011->curve).empty());
  EXPECT_TRUE(metrics::ideal_intersections(flat_2016->curve).empty());
}

// --- Microarchitecture (Fig.6-8) -------------------------------------------------

TEST(Uarch, FamilyCountsSumToPopulation) {
  std::size_t total = 0;
  for (const auto& row : family_counts(ctx())) total += row.count;
  EXPECT_EQ(total, repo().size());
}

TEST(Uarch, SandyBridgePlusIvyCounts152) {
  // Paper Fig.6: the Sandy Bridge bar (which folds in Ivy Bridge) holds 152
  // servers; Netburst holds 3.
  std::size_t snb = 0, netburst = 0;
  for (const auto& row : family_counts(ctx())) {
    if (row.family == power::UarchFamily::kSandyBridge ||
        row.family == power::UarchFamily::kIvyBridge) {
      snb += row.count;
    }
    if (row.family == power::UarchFamily::kNetburst) netburst += row.count;
  }
  EXPECT_EQ(snb, 152u);
  EXPECT_EQ(netburst, 3u);
}

TEST(Uarch, SandyBridgeEnTopsCodenameRanking) {
  const auto ranking = codename_ep_ranking(ctx());
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front().codename, "Sandy Bridge EN");
  EXPECT_NEAR(ranking.front().mean_ep, 0.90, 0.04);  // paper Fig.7: 0.90
}

TEST(Uarch, IvyBridgeBelowSandyBridgeDespiteFinerProcess) {
  // Paper §III.B: 22nm Ivy Bridge has LOWER EP than 32nm Sandy Bridge.
  double ivy = 0.0, sandy = 0.0;
  for (const auto& row : codename_ep_ranking(ctx())) {
    if (row.codename == "Ivy Bridge") ivy = row.mean_ep;
    if (row.codename == "Sandy Bridge") sandy = row.mean_ep;
  }
  ASSERT_GT(ivy, 0.0);
  ASSERT_GT(sandy, 0.0);
  EXPECT_LT(ivy, sandy);
}

TEST(Uarch, YearlyMixShowsIvyBridgeTakeoverIn2013) {
  const auto mix = yearly_codename_mix(repo());
  ASSERT_TRUE(mix.contains(2013));
  std::size_t ivy = 0, total = 0;
  for (const auto& [name, count] : mix.at(2013)) {
    total += count;
    if (name.rfind("Ivy Bridge", 0) == 0) ivy += count;
  }
  EXPECT_EQ(ivy, total);  // 2013 is entirely Ivy-Bridge-based in the plan
}

TEST(Uarch, CompositionExplainsThe2013Dip) {
  // The mix-predicted EP for 2013 must itself be below the 2012 level:
  // the dip is a composition effect, not a per-codename regression.
  const auto rows = composition_decomposition(ctx(), 2012, 2014);
  ASSERT_EQ(rows.size(), 3u);
  const auto& y2012 = rows[0];
  const auto& y2013 = rows[1];
  EXPECT_LT(y2013.composition_predicted_ep, y2012.composition_predicted_ep);
  // And the composition prediction tracks the actual 2013 mean closely.
  EXPECT_NEAR(y2013.composition_predicted_ep, y2013.actual_mean_ep, 0.05);
}

// --- Peak shift (Fig.16) -----------------------------------------------------------

TEST(PeakShiftAnalysis, TotalSpots478) {
  EXPECT_EQ(total_spots(repo()), 478u);
}

TEST(PeakShiftAnalysis, GlobalSharesMatchPaper) {
  const auto shares = global_spot_shares(repo());
  EXPECT_NEAR(shares.at(1.0), 0.6925, 0.02);
  EXPECT_NEAR(shares.at(0.7), 0.1381, 0.02);
  EXPECT_NEAR(shares.at(0.8), 0.1172, 0.02);
}

TEST(PeakShiftAnalysis, IntervalContrast) {
  EXPECT_NEAR(share_peaking_at_full_load(ctx(), 2004, 2012), 0.7571, 0.03);
  EXPECT_NEAR(share_peaking_at_full_load(ctx(), 2013, 2016), 0.2321, 0.04);
}

TEST(PeakShiftAnalysis, PerYearRowsConsistent) {
  for (const auto& row : peak_spot_by_year(repo())) {
    std::size_t spot_total = 0;
    for (const auto& [spot, count] : row.spots) spot_total += count;
    EXPECT_GE(spot_total, row.servers);      // ties add spots
    EXPECT_LE(spot_total, row.servers + 1);  // only one dual-peak machine
  }
}

// --- Asynchronisation (§IV.B) --------------------------------------------------------

TEST(Async, TopEpDecileDominatedBy2012) {
  const auto result = async_top_decile(ctx());
  // Paper: 91.7% of the top-EP decile is 2012 hardware.
  EXPECT_GT(result.top_ep_year_shares.at(2012), 0.60);
  // ... far above 2012's population share (27.4%).
  EXPECT_GT(result.top_ep_year_shares.at(2012),
            2.0 * result.population_year_shares.at(2012));
}

TEST(Async, TopEeDecileDominatedByRecentYears) {
  const auto result = async_top_decile(ctx());
  const auto share = [&](int year) {
    const auto it = result.top_ee_year_shares.find(year);
    return it == result.top_ee_year_shares.end() ? 0.0 : it->second;
  };
  // Paper: all 2015/2016 machines are in the top-EE decile; 2012's share of
  // the top-EE decile (16.7%) is *below* its population share.
  EXPECT_GT(share(2015) + share(2016), 0.5);
  EXPECT_LT(share(2012), result.population_year_shares.at(2012));
}

TEST(Async, SmallOverlapBetweenTopEpAndTopEe) {
  const auto result = async_top_decile(ctx());
  // Paper: 14.6%.
  EXPECT_LT(result.overlap, 0.35);
}

// --- Scale (Fig.13-15) -----------------------------------------------------------------

TEST(Scale, NodeRowsCoverAllCounts) {
  const auto rows = ep_ee_by_nodes(ctx());
  ASSERT_EQ(rows.size(), 5u);  // 1, 2, 4, 8, 16
  EXPECT_EQ(rows[0].key, 1);
  EXPECT_EQ(rows[4].key, 16);
}

TEST(Scale, MedianEpGrowsWithNodes) {
  const auto rows = ep_ee_by_nodes(ctx());
  // multi-node rows: indices 1..4 for 2/4/8/16 nodes.
  EXPECT_LT(rows[1].ep.median, rows[2].ep.median);
  EXPECT_LT(rows[2].ep.median, rows[4].ep.median);
}

TEST(Scale, AverageEpDipsAtEightNodes) {
  const auto rows = ep_ee_by_nodes(ctx());
  EXPECT_LT(rows[3].ep.mean, rows[2].ep.mean);  // 8 nodes below 4 nodes
  EXPECT_GT(rows[4].ep.mean, rows[3].ep.mean);  // recovers at 16
}

TEST(Scale, TwoChipRowLeadsSingleNodeServers) {
  const auto rows = ep_ee_by_chips(ctx());
  ASSERT_EQ(rows.size(), 4u);
  const auto& one = rows[0];
  const auto& two = rows[1];
  const auto& four = rows[2];
  const auto& eight = rows[3];
  EXPECT_GT(two.ep.mean, one.ep.mean);
  EXPECT_GT(two.ep.mean, four.ep.mean);
  EXPECT_GT(four.ep.mean, eight.ep.mean);
  EXPECT_GT(two.score.mean, one.score.mean);
  EXPECT_GT(two.score.mean, four.score.mean);
  EXPECT_GT(four.score.mean, eight.score.mean);
}

TEST(Scale, TwoChipVsAllGainsPositive) {
  const auto cmp = two_chip_vs_all(ctx());
  // Paper Fig.15: +2.94% EP, +4.13% EE on yearly averages.
  EXPECT_GT(cmp.avg_ep_gain, 0.0);
  EXPECT_LT(cmp.avg_ep_gain, 0.10);
  EXPECT_GT(cmp.avg_ee_gain, 0.0);
  EXPECT_FALSE(cmp.years.empty());
}

// --- Memory (Table I / Fig.17) ------------------------------------------------------------

TEST(Memory, TableIFilterKeepsSevenBuckets) {
  const auto rows = mpc_distribution(ctx(), 11);
  EXPECT_EQ(rows.size(), 7u);  // the paper's Table I: ratios with > 10 counts
  std::size_t covered = 0;
  for (const auto& row : rows) covered += row.count;
  EXPECT_EQ(covered, 430u);
}

TEST(Memory, SweetSpotsMatchPaper) {
  EXPECT_DOUBLE_EQ(best_mpc_for_ep(ctx()), 1.5);
  EXPECT_DOUBLE_EQ(best_mpc_for_ee(ctx()), 1.78);
}

// --- Idle analysis (Eq.2) -------------------------------------------------------------------

TEST(Idle, HeadlineNumbersNearPaper) {
  const auto result = analyze_idle_power(ctx());
  EXPECT_LT(result.ep_idle_correlation, -0.85);
  EXPECT_GT(result.ep_score_correlation, 0.55);
  EXPECT_NEAR(result.eq2.alpha, 1.2969, 0.25);
  EXPECT_GT(result.eq2.r_squared, 0.75);
  EXPECT_GT(result.predicted_ep_at_5pct_idle, 1.0);
  EXPECT_GT(result.theoretical_max_ep, 1.05);
}

TEST(Idle, IdleFractionFellFasterBefore2012) {
  // Paper §III.D: the idle percentage dropped more 2006-2012 than 2012-2016.
  const double drop_early = mean_idle_fraction(repo(), 2006, 2007) -
                            mean_idle_fraction(repo(), 2011, 2012);
  const double drop_late = mean_idle_fraction(repo(), 2011, 2012) -
                           mean_idle_fraction(repo(), 2015, 2016);
  EXPECT_GT(drop_early, drop_late);
}

// --- Re-keying (§I) ----------------------------------------------------------------------------

TEST(Rekeying, MismatchShareMatchesPaper) {
  const auto result = rekeying_analysis(ctx());
  EXPECT_EQ(result.mismatched_results, 74u);
  EXPECT_NEAR(result.mismatched_share, 0.155, 0.003);
}

TEST(Rekeying, DeltasAreNonTrivial) {
  // The paper's point: re-keying moves the per-year stats by whole percents.
  const auto result = rekeying_analysis(ctx());
  EXPECT_LT(result.min_avg_ep_delta, 0.0);
  EXPECT_GT(result.max_avg_ep_delta, 0.005);
  EXPECT_GT(result.max_avg_ee_delta, 0.01);
}

// --- Full report -------------------------------------------------------------------------------

TEST(Report, BuildsAndRenders) {
  const auto report = build_full_report(repo());
  EXPECT_EQ(report.population, 477u);
  const std::string text = render_report(report);
  EXPECT_NE(text.find("Population overview"), std::string::npos);
  EXPECT_NE(text.find("Eq.2"), std::string::npos);
  EXPECT_NE(text.find("Sandy Bridge EN"), std::string::npos);
  EXPECT_GT(text.size(), 2000u);
}

}  // namespace
}  // namespace epserve::analysis
