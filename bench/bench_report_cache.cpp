// Cold vs context-backed report builds. The cold path builds every report
// over a fresh AnalysisContext (every iteration re-derives the per-record
// metrics, the columnar snapshot and the group indexes); the warm path runs
// the pass registry over one shared AnalysisContext, so all of that work
// happens exactly once — the printed CacheStats pin the exactly-once
// guarantee, and the renders of both paths are byte-compared (exit 1 on any
// mismatch).
#include "common.h"

#include <chrono>

#include "analysis/context.h"
#include "analysis/pass.h"
#include "analysis/report.h"
#include "analysis/report_json.h"

namespace {

using namespace epserve;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  bench::print_header("report cache — cold vs shared AnalysisContext",
                      "same report, per-record metrics derived once");
  const auto& repo = bench::population();
  constexpr int kIterations = 20;

  // Cold: a fresh context per report, every iteration from scratch.
  analysis::FullReport cold_report;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    cold_report = analysis::build_full_report(repo, 1);
  }
  const double cold_s = seconds_since(cold_start);

  // Warm: the pass registry over one shared memoized context.
  analysis::AnalysisContext ctx(repo);
  analysis::FullReport warm_report;
  const auto warm_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    warm_report = analysis::run_passes(ctx, analysis::all_passes());
  }
  const double warm_s = seconds_since(warm_start);

  const auto stats = ctx.cache_stats();
  TextTable table;
  table.columns({"path", "builds of derived metrics", "total s", "ms/report"});
  table.row({"cold (fresh context)",
             std::to_string(kIterations) + " (one/iter)",
             format_fixed(cold_s, 3),
             format_fixed(1000.0 * cold_s / kIterations, 2)});
  table.row({"shared context", std::to_string(stats.derived_builds),
             format_fixed(warm_s, 3),
             format_fixed(1000.0 * warm_s / kIterations, 2)});
  std::cout << table.render();
  std::cout << "cache stats over " << kIterations
            << " warm reports: derived=" << stats.derived_builds
            << " deciles=" << stats.decile_builds << " (each exactly once)\n"
            << "speedup: " << format_fixed(cold_s / warm_s, 2) << "x\n";
  // Machine-readable summary, harvested by bench/run_benches.sh.
  std::printf(
      "BENCH_JSON {\"ms_per_report_cold\": %.4f, \"ms_per_report_warm\": "
      "%.4f, \"speedup\": %.2f}\n",
      1000.0 * cold_s / kIterations, 1000.0 * warm_s / kIterations,
      cold_s / warm_s);

  bool ok = stats.derived_builds == 1;
  if (!ok) std::fprintf(stderr, "FAIL: derived metrics built more than once\n");
  const auto& passes = analysis::all_passes();
  if (analysis::render_passes_text(cold_report, passes) !=
      analysis::render_passes_text(warm_report, passes)) {
    std::fprintf(stderr, "FAIL: text render differs between paths\n");
    ok = false;
  }
  if (analysis::render_passes_json(cold_report, passes) !=
      analysis::render_passes_json(warm_report, passes)) {
    std::fprintf(stderr, "FAIL: JSON render differs between paths\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
