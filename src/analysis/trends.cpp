#include "analysis/trends.h"

#include "analysis/context.h"

namespace epserve::analysis {

std::vector<YearTrendRow> year_trends(const AnalysisContext& ctx,
                                      dataset::YearKey key) {
  // Contiguous group spans + column gathers, groups in ascending year order.
  const auto& snap = ctx.columnar();
  const auto& groups = ctx.groups_by_year(key);
  std::vector<YearTrendRow> rows;
  rows.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto members = groups.members(g);
    YearTrendRow row;
    row.year = groups.key(g);
    row.count = members.size();
    row.ep = stats::summarize(AnalysisContext::gather(snap.ep(), members));
    row.score = stats::summarize(
        AnalysisContext::gather(snap.overall_score(), members));
    row.peak_ee = stats::summarize(
        AnalysisContext::gather(snap.peak_ee_value(), members));
    rows.push_back(row);
  }
  return rows;
}

Result<double> ep_jump(const std::vector<YearTrendRow>& rows, int from_year,
                       int to_year) {
  const YearTrendRow* from = nullptr;
  const YearTrendRow* to = nullptr;
  for (const auto& row : rows) {
    if (row.year == from_year) from = &row;
    if (row.year == to_year) to = &row;
  }
  if (from == nullptr || to == nullptr) {
    return Error::not_found("ep_jump: year " +
                            std::to_string(from == nullptr ? from_year
                                                           : to_year) +
                            " absent from trend rows");
  }
  if (!(from->ep.mean > 0.0)) {
    return Error::failed_precondition(
        "ep_jump: mean EP of year " + std::to_string(from_year) +
        " is not positive");
  }
  return (to->ep.mean - from->ep.mean) / from->ep.mean;
}

}  // namespace epserve::analysis
