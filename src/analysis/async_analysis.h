// Asynchronisation of EP and EE evolution (paper §IV.B): membership of the
// top-decile EP and top-decile EE sets, their per-year composition, and
// their overlap. The paper's finding: 91.7% of the top-EP decile is 2012
// hardware while only 16.7% of the top-EE decile is; just 14.6% of the
// top-EP servers are also top-EE.
#pragma once

#include <map>

#include "dataset/repository.h"

namespace epserve::analysis {

class AnalysisContext;

struct AsyncResult {
  /// Year -> share of the top-decile-EP set made in that year.
  std::map<int, double> top_ep_year_shares;
  /// Year -> share of the top-decile-EE set made in that year.
  std::map<int, double> top_ee_year_shares;
  /// Year -> share of the whole population made in that year (the baseline
  /// the paper compares each decile against).
  std::map<int, double> population_year_shares;
  /// Fraction of top-decile-EP servers that are also in the top-decile-EE set.
  double overlap = 0.0;
  std::size_t decile_size = 0;
};

/// Reads the context's memoized top-decile EP and overall-score sets.
AsyncResult async_top_decile(const AnalysisContext& ctx);

}  // namespace epserve::analysis
