#include "analysis/counterfactual.h"

#include <algorithm>
#include <cstdint>

#include "analysis/context.h"
#include "analysis/uarch_analysis.h"

namespace epserve::analysis {

Result<CounterfactualResult> frozen_mix_counterfactual(
    const AnalysisContext& ctx, const std::string& reference_codename,
    int from_year, int to_year) {
  if (from_year > to_year) {
    return Error::invalid_argument("year range inverted");
  }
  const auto& snap = ctx.columnar();
  const auto& codenames = snap.codenames();
  const auto reference =
      std::find(codenames.begin(), codenames.end(), reference_codename);
  if (reference == codenames.end()) {
    return Error::not_found("reference codename not in population: " +
                            reference_codename);
  }
  // Global per-codename mean EP, indexed by interned codename id.
  const auto codename_mean = codename_mean_eps(ctx);
  const double reference_mean =
      codename_mean[static_cast<std::size_t>(reference - codenames.begin())];

  CounterfactualResult result;
  result.reference_codename = reference_codename;
  const auto& by_year =
      ctx.groups_by_year(dataset::YearKey::kHardwareAvailability);
  for (std::size_t g = 0; g < by_year.group_count(); ++g) {
    const int year = by_year.key(g);
    if (year < from_year || year > to_year) continue;
    const auto members = by_year.members(g);
    CounterfactualRow row;
    row.year = year;
    row.count = members.size();
    double actual = 0.0;
    double counterfactual = 0.0;
    for (const std::uint32_t i : members) {
      const double ep = snap.ep()[i];
      actual += ep;
      const double residual =
          ep - codename_mean[static_cast<std::size_t>(snap.codename_id()[i])];
      counterfactual += reference_mean + residual;
    }
    row.actual_mean_ep = actual / static_cast<double>(members.size());
    row.counterfactual_mean_ep =
        counterfactual / static_cast<double>(members.size());
    result.rows.push_back(row);
  }
  if (result.rows.empty()) {
    return Error::not_found("no servers in the requested year range");
  }

  result.dip_removed = true;
  const double baseline = result.rows.front().counterfactual_mean_ep;
  for (const auto& row : result.rows) {
    if (row.count < 10) continue;  // thin years carry outlier residue
    if (row.counterfactual_mean_ep < baseline - 0.01) {
      result.dip_removed = false;
    }
  }
  return result;
}

}  // namespace epserve::analysis
