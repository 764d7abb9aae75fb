#include "analysis/idle_analysis.h"

#include "analysis/context.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "util/contracts.h"

namespace epserve::analysis {

IdleAnalysis analyze_idle_power(const AnalysisContext& ctx) {
  const auto& snap = ctx.columnar();
  const auto eps = snap.ep();
  const auto idles = snap.idle_fraction();
  IdleAnalysis out;
  out.ep_idle_correlation = stats::pearson(eps, idles);
  out.ep_score_correlation = stats::pearson(eps, snap.overall_score());
  out.eq2 = stats::fit_exponential(idles, eps);
  out.predicted_ep_at_5pct_idle = out.eq2.predict(0.05);
  out.theoretical_max_ep = out.eq2.alpha;
  return out;
}

double mean_idle_fraction(const dataset::ResultRepository& repo, int from_year,
                          int to_year) {
  std::vector<double> values;
  for (const auto& r : repo.records()) {
    if (r.hw_year >= from_year && r.hw_year <= to_year) {
      values.push_back(r.curve.idle_fraction());
    }
  }
  EPSERVE_EXPECTS(!values.empty());
  return stats::mean(values);
}

}  // namespace epserve::analysis
