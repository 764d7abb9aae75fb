// Pass registry + shared AnalysisContext: registry shape, selection rules,
// field-for-field equivalence of the pass-built report against each analysis
// called directly on a separate, cold context, subset runs/renders, and the
// exactly-once memoization guarantee. The analyses' own outputs are pinned
// by the committed dumps (tests/analysis_golden_test.cpp).
#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/pass.h"
#include "analysis/peak_shift.h"
#include "analysis/report.h"
#include "analysis/report_json.h"
#include "core/epserve.h"
#include "dataset/generator.h"

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

const std::vector<std::string> kCanonicalNames = {
    "trends", "uarch", "idle", "peak-shift", "async", "scale", "rekeying"};

void expect_summaries_equal(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
}

void expect_trend_rows_equal(const std::vector<YearTrendRow>& a,
                             const std::vector<YearTrendRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].year, b[i].year);
    EXPECT_EQ(a[i].count, b[i].count);
    expect_summaries_equal(a[i].ep, b[i].ep);
    expect_summaries_equal(a[i].score, b[i].score);
    expect_summaries_equal(a[i].peak_ee, b[i].peak_ee);
  }
}

// --- registry ---------------------------------------------------------------

TEST(PassRegistry, CanonicalOrderAndNames) {
  EXPECT_EQ(pass_names(), kCanonicalNames);
  const auto& passes = all_passes();
  ASSERT_EQ(passes.size(), kCanonicalNames.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_EQ(passes[i]->name(), kCanonicalNames[i]);
  }
}

TEST(PassRegistry, FindPass) {
  for (const auto& name : kCanonicalNames) {
    const auto* pass = find_pass(name);
    ASSERT_NE(pass, nullptr) << name;
    EXPECT_EQ(pass->name(), name);
  }
  EXPECT_EQ(find_pass("no-such-pass"), nullptr);
  EXPECT_EQ(find_pass(""), nullptr);
}

TEST(PassRegistry, SelectEmptyMeansEverything) {
  const auto selected = select_passes({});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), all_passes());
}

TEST(PassRegistry, SelectDeduplicatesAndReordersCanonically) {
  const auto selected = select_passes({"idle", "trends", "idle", "rekeying"});
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected.value().size(), 3u);
  EXPECT_EQ(selected.value()[0]->name(), "trends");
  EXPECT_EQ(selected.value()[1]->name(), "idle");
  EXPECT_EQ(selected.value()[2]->name(), "rekeying");
}

TEST(PassRegistry, SelectRejectsUnknownNames) {
  const auto selected = select_passes({"trends", "bogus"});
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.error().code, Error::Code::kNotFound);
  EXPECT_NE(selected.error().message.find("bogus"), std::string::npos);
}

// --- context equivalence ----------------------------------------------------
// Every field the passes compute must equal the value the analysis function
// produces when called directly on a second context whose caches start cold
// — not merely close: both read intermediates computed by the same pure
// functions, so equality is exact.

TEST(ContextEquivalence, ReportMatchesUncachedAnalysesFieldForField) {
  const auto report = build_full_report(repo());
  const AnalysisContext cold(repo());

  EXPECT_EQ(report.population, repo().size());
  expect_trend_rows_equal(
      report.trends_by_hw_year,
      year_trends(cold, dataset::YearKey::kHardwareAvailability));
  expect_trend_rows_equal(report.trends_by_pub_year,
                          year_trends(cold, dataset::YearKey::kPublished));
  EXPECT_EQ(report.ep_jump_2008_2009,
            ep_jump(report.trends_by_hw_year, 2008, 2009).value());
  EXPECT_EQ(report.ep_jump_2011_2012,
            ep_jump(report.trends_by_hw_year, 2011, 2012).value());

  const auto ranking = codename_ep_ranking(cold);
  ASSERT_EQ(report.codename_ranking.size(), ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(report.codename_ranking[i].codename, ranking[i].codename);
    EXPECT_EQ(report.codename_ranking[i].count, ranking[i].count);
    EXPECT_EQ(report.codename_ranking[i].mean_ep, ranking[i].mean_ep);
    EXPECT_EQ(report.codename_ranking[i].median_ep, ranking[i].median_ep);
  }

  const auto idle = analyze_idle_power(cold);
  EXPECT_EQ(report.idle.ep_idle_correlation, idle.ep_idle_correlation);
  EXPECT_EQ(report.idle.ep_score_correlation, idle.ep_score_correlation);
  EXPECT_EQ(report.idle.eq2.alpha, idle.eq2.alpha);
  EXPECT_EQ(report.idle.eq2.beta, idle.eq2.beta);
  EXPECT_EQ(report.idle.eq2.r_squared, idle.eq2.r_squared);
  EXPECT_EQ(report.idle.predicted_ep_at_5pct_idle,
            idle.predicted_ep_at_5pct_idle);
  EXPECT_EQ(report.idle.theoretical_max_ep, idle.theoretical_max_ep);

  EXPECT_EQ(report.share_full_load_2004_2012,
            share_peaking_at_full_load(cold, 2004, 2012));
  EXPECT_EQ(report.share_full_load_2013_2016,
            share_peaking_at_full_load(cold, 2013, 2016));

  const auto async = async_top_decile(cold);
  EXPECT_EQ(report.async.decile_size, async.decile_size);
  EXPECT_EQ(report.async.overlap, async.overlap);
  EXPECT_EQ(report.async.top_ep_year_shares, async.top_ep_year_shares);
  EXPECT_EQ(report.async.top_ee_year_shares, async.top_ee_year_shares);
  EXPECT_EQ(report.async.population_year_shares, async.population_year_shares);

  const auto two_chip = two_chip_vs_all(cold);
  EXPECT_EQ(report.two_chip.avg_ep_gain, two_chip.avg_ep_gain);
  EXPECT_EQ(report.two_chip.avg_ee_gain, two_chip.avg_ee_gain);
  EXPECT_EQ(report.two_chip.median_ep_gain, two_chip.median_ep_gain);
  EXPECT_EQ(report.two_chip.median_ee_gain, two_chip.median_ee_gain);
  ASSERT_EQ(report.two_chip.years.size(), two_chip.years.size());
  for (std::size_t i = 0; i < two_chip.years.size(); ++i) {
    EXPECT_EQ(report.two_chip.years[i].year, two_chip.years[i].year);
    EXPECT_EQ(report.two_chip.years[i].two_chip_avg_ep,
              two_chip.years[i].two_chip_avg_ep);
    EXPECT_EQ(report.two_chip.years[i].all_avg_ep, two_chip.years[i].all_avg_ep);
    EXPECT_EQ(report.two_chip.years[i].two_chip_avg_ee,
              two_chip.years[i].two_chip_avg_ee);
    EXPECT_EQ(report.two_chip.years[i].all_avg_ee, two_chip.years[i].all_avg_ee);
  }

  const auto rekeying = rekeying_analysis(cold);
  EXPECT_EQ(report.rekeying.mismatched_results, rekeying.mismatched_results);
  EXPECT_EQ(report.rekeying.mismatched_share, rekeying.mismatched_share);
  EXPECT_EQ(report.rekeying.min_avg_ep_delta, rekeying.min_avg_ep_delta);
  EXPECT_EQ(report.rekeying.max_avg_ep_delta, rekeying.max_avg_ep_delta);
  EXPECT_EQ(report.rekeying.min_med_ep_delta, rekeying.min_med_ep_delta);
  EXPECT_EQ(report.rekeying.max_med_ep_delta, rekeying.max_med_ep_delta);
  EXPECT_EQ(report.rekeying.min_avg_ee_delta, rekeying.min_avg_ee_delta);
  EXPECT_EQ(report.rekeying.max_avg_ee_delta, rekeying.max_avg_ee_delta);
  EXPECT_EQ(report.rekeying.min_med_ee_delta, rekeying.min_med_ee_delta);
  EXPECT_EQ(report.rekeying.max_med_ee_delta, rekeying.max_med_ee_delta);
}

TEST(ContextEquivalence, FullSelectionRendersMatchLegacyEntryPoints) {
  const auto report = build_full_report(repo());
  EXPECT_EQ(render_passes_text(report, all_passes()), render_report(report));
  EXPECT_EQ(render_passes_json(report, all_passes()),
            render_report_json(report));
}

// --- subset runs ------------------------------------------------------------

TEST(Subset, OnlySelectedFieldsArePopulated) {
  const auto selected = select_passes({"idle"});
  ASSERT_TRUE(selected.ok());
  const auto report = run_passes(repo(), selected.value());
  EXPECT_EQ(report.population, repo().size());
  EXPECT_NE(report.idle.eq2.r_squared, 0.0);
  EXPECT_TRUE(report.trends_by_hw_year.empty());
  EXPECT_TRUE(report.codename_ranking.empty());
  EXPECT_EQ(report.ep_jump_2008_2009, 0.0);
  EXPECT_EQ(report.share_full_load_2004_2012, 0.0);
  EXPECT_EQ(report.async.decile_size, 0u);
}

TEST(Subset, TextRenderContainsOnlySelectedSections) {
  const auto selected = select_passes({"idle", "scale"});
  ASSERT_TRUE(selected.ok());
  const auto report = run_passes(repo(), selected.value());
  const auto text = render_passes_text(report, selected.value());
  EXPECT_NE(text.find("Population overview"), std::string::npos);
  EXPECT_NE(text.find("Idle power and correlations"), std::string::npos);
  EXPECT_NE(text.find("2-chip single-node advantage"), std::string::npos);
  EXPECT_EQ(text.find("Codename EP ranking"), std::string::npos);
  EXPECT_EQ(text.find("EP / EE trend"), std::string::npos);
  // The re-keying preamble line only appears when that pass is selected.
  EXPECT_EQ(text.find("mismatches"), std::string::npos);
}

TEST(Subset, JsonRenderContainsOnlySelectedKeys) {
  const auto selected = select_passes({"trends"});
  ASSERT_TRUE(selected.ok());
  const auto report = run_passes(repo(), selected.value());
  const auto json = render_passes_json(report, selected.value());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"population\""), std::string::npos);
  EXPECT_NE(json.find("\"trends_by_hw_year\""), std::string::npos);
  EXPECT_NE(json.find("\"ep_jump_2008_2009\""), std::string::npos);
  EXPECT_EQ(json.find("\"idle_analysis\""), std::string::npos);
  EXPECT_EQ(json.find("\"rekeying\""), std::string::npos);
}

// --- memoization ------------------------------------------------------------

TEST(Context, CachesBuildExactlyOnce) {
  AnalysisContext ctx(repo());
  EXPECT_EQ(ctx.cache_stats().derived_builds, 0);

  for (int i = 0; i < 3; ++i) {
    (void)ctx.derived();
    (void)ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
    (void)ctx.groups_by_year(dataset::YearKey::kPublished);
    (void)ctx.groups_by_codename();
    (void)ctx.top_ep_decile();
    (void)ctx.top_score_decile();
  }
  const auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.derived_builds, 1);
  EXPECT_EQ(stats.columnar_builds, 1);
  EXPECT_EQ(stats.group_index_builds, 3);  // hw year, pub year, codename
  EXPECT_EQ(stats.decile_builds, 2);       // top EP, top score
}

TEST(Context, FullPassRunBuildsDerivedMetricsOnce) {
  AnalysisContext ctx(repo());
  (void)run_passes(ctx, all_passes());
  (void)run_passes(ctx, all_passes());
  EXPECT_EQ(ctx.cache_stats().derived_builds, 1);
}

TEST(Context, DecileMatchesRepositoryOrdering) {
  AnalysisContext ctx(repo());
  // EP recomputed from each record's curve, not read from the context.
  EXPECT_EQ(ctx.top_ep_decile(),
            repo().top_decile_by(
                dataset::ResultRepository::ep_values(repo().all())));
}

// --- core façade ------------------------------------------------------------

TEST(StudyOptions, SelectsPassSubset) {
  StudyOptions options;
  options.passes = {"idle"};
  options.threads = 1;
  const auto study = run_population_study({}, options);
  ASSERT_TRUE(study.ok());
  EXPECT_NE(study.value().report.idle.eq2.r_squared, 0.0);
  EXPECT_TRUE(study.value().report.trends_by_hw_year.empty());
}

TEST(StudyOptions, UnknownPassFailsTheStudy) {
  StudyOptions options;
  options.passes = {"not-a-pass"};
  const auto study = run_population_study({}, options);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.error().code, Error::Code::kNotFound);
}

}  // namespace
}  // namespace epserve::analysis
