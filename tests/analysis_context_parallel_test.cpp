// Concurrency contract of the shared AnalysisContext (docs/ANALYSIS_PASSES.md):
// many threads may hammer one context — racing to trigger the lazy caches —
// yet every cache builds exactly once and every rendered report stays
// byte-identical to the serial baseline. Runs under the `parallel` and
// `report` ctest labels, i.e. also under -DEPSERVE_SANITIZE=thread.
#include "analysis/context.h"
#include "analysis/pass.h"
#include "analysis/report.h"
#include "analysis/report_json.h"
#include "dataset/generator.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

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

constexpr int kThreads = 8;

TEST(ContextConcurrency, SharedContextRendersIdenticallyUnderEightThreads) {
  // Serial baseline: fresh context, passes run inline.
  AnalysisContext baseline_ctx(repo());
  const FullReport baseline = run_passes(baseline_ctx, all_passes(), 1);
  const std::string baseline_text = render_passes_text(baseline, all_passes());
  const std::string baseline_json = render_passes_json(baseline, all_passes());

  // One context shared by eight threads, each building and rendering a full
  // report — all cache initialisations race on first touch.
  AnalysisContext shared(repo());
  std::array<std::string, kThreads> texts;
  std::array<std::string, kThreads> jsons;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const FullReport report = run_passes(shared, all_passes(), 1);
      texts[t] = render_passes_text(report, all_passes());
      jsons[t] = render_passes_json(report, all_passes());
    });
  }
  for (auto& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    EXPECT_EQ(texts[t], baseline_text);
    EXPECT_EQ(jsons[t], baseline_json);
  }
  // Eight full reports off one context: every cache still built exactly once.
  const auto stats = shared.cache_stats();
  EXPECT_EQ(stats.derived_builds, 1);
  EXPECT_EQ(stats.decile_builds, 2);
}

TEST(ContextConcurrency, RawCacheAccessorsRaceSafely) {
  AnalysisContext ctx(repo());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      (void)ctx.derived();
      (void)ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
      (void)ctx.groups_by_year(dataset::YearKey::kPublished);
      (void)ctx.groups_by_family();
      (void)ctx.groups_by_codename();
      (void)ctx.groups_by_nodes();
      (void)ctx.groups_single_node_by_chips();
      (void)ctx.groups_by_mpc();
      (void)ctx.top_ep_decile();
      (void)ctx.top_score_decile();
    });
  }
  for (auto& worker : workers) worker.join();

  const auto stats = ctx.cache_stats();
  EXPECT_EQ(stats.derived_builds, 1);
  EXPECT_EQ(stats.columnar_builds, 1);
  EXPECT_EQ(stats.group_index_builds, 7);
  EXPECT_EQ(stats.decile_builds, 2);
}

TEST(ContextConcurrency, PassDispatchIsThreadCountInvariant) {
  const FullReport baseline = build_full_report(repo(), 1);
  const std::string baseline_text = render_report(baseline);
  const std::string baseline_json = render_report_json(baseline);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const FullReport report = build_full_report(repo(), threads);
    EXPECT_EQ(render_report(report), baseline_text);
    EXPECT_EQ(render_report_json(report), baseline_json);
  }
}

}  // namespace
}  // namespace epserve::analysis
