#include "analysis/async_analysis.h"

#include <set>

#include "analysis/context.h"

namespace epserve::analysis {

AsyncResult async_top_decile(const AnalysisContext& ctx) {
  const auto& top_ep = ctx.top_ep_decile();
  const auto& top_ee = ctx.top_score_decile();
  AsyncResult out;
  out.decile_size = top_ep.size();

  const auto share_by_year = [](const dataset::RecordView& view) {
    std::map<int, double> shares;
    for (const auto* r : view) shares[r->hw_year] += 1.0;
    for (auto& [year, count] : shares) {
      count /= static_cast<double>(view.size());
    }
    return shares;
  };
  out.top_ep_year_shares = share_by_year(top_ep);
  out.top_ee_year_shares = share_by_year(top_ee);
  out.population_year_shares = share_by_year(ctx.repo().all());

  std::set<int> ee_ids;
  for (const auto* r : top_ee) ee_ids.insert(r->id);
  std::size_t both = 0;
  for (const auto* r : top_ep) {
    if (ee_ids.contains(r->id)) ++both;
  }
  out.overlap = top_ep.empty() ? 0.0
                               : static_cast<double>(both) /
                                     static_cast<double>(top_ep.size());
  return out;
}

}  // namespace epserve::analysis
