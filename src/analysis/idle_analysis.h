// Idle-power analysis (paper §III.D): the EP <-> idle-power-percentage
// correlation (-0.92) and the Eq.2 exponential regression
// EP = 1.2969 * e^(beta*idle), R^2 = 0.892, plus the EP <-> overall-score
// correlation (0.741) from §I.
#pragma once

#include "dataset/repository.h"
#include "stats/regression.h"

namespace epserve::analysis {

class AnalysisContext;

struct IdleAnalysis {
  double ep_idle_correlation = 0.0;       // paper: -0.92
  double ep_score_correlation = 0.0;      // paper: 0.741
  stats::ExponentialFit eq2;              // paper: alpha 1.2969, R^2 0.892
  /// Eq.2 prediction at 5% idle (the paper's extrapolation: EP = 1.17).
  double predicted_ep_at_5pct_idle = 0.0;
  /// Theoretical maximum (idle -> 0): alpha itself (paper: 1.297).
  double theoretical_max_ep = 0.0;
};

/// Reads the context's EP, idle-fraction and overall-score columns.
IdleAnalysis analyze_idle_power(const AnalysisContext& ctx);

/// Mean idle-power percentage within a year window — backs the paper's claim
/// that the idle fraction fell faster in 2006-2012 than in 2012-2016.
double mean_idle_fraction(const dataset::ResultRepository& repo,
                          int from_year, int to_year);

}  // namespace epserve::analysis
