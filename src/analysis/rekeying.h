// Published-year vs hardware-availability-year re-keying analysis (paper §I):
// quantifies how much the per-year EP/EE statistics move when results are
// organised by the date the hardware actually shipped rather than the date
// the result was published. The paper reports average/median EP deltas of
// -6.2%..8.7% / -8.6%..13.1% and EE deltas of -2.2%..16.6% / -5.0%..20.8%.
#pragma once

#include <vector>

#include "dataset/repository.h"

namespace epserve::analysis {

class AnalysisContext;

struct RekeyingRow {
  int year = 0;
  std::size_t hw_count = 0;   // servers whose hardware shipped this year
  std::size_t pub_count = 0;  // results published this year
  double avg_ep_delta = 0.0;  // (hw-keyed avg EP / pub-keyed avg EP) - 1
  double med_ep_delta = 0.0;
  double avg_ee_delta = 0.0;
  double med_ee_delta = 0.0;
};

struct RekeyingResult {
  std::vector<RekeyingRow> rows;  // years present under BOTH keys
  std::size_t mismatched_results = 0;
  double mismatched_share = 0.0;
  /// Extremes across years (the ranges the paper quotes).
  double min_avg_ep_delta = 0.0, max_avg_ep_delta = 0.0;
  double min_med_ep_delta = 0.0, max_med_ep_delta = 0.0;
  double min_avg_ee_delta = 0.0, max_avg_ee_delta = 0.0;
  double min_med_ee_delta = 0.0, max_med_ee_delta = 0.0;
};

/// Reads the context's two year group indexes and EP/overall-score columns.
RekeyingResult rekeying_analysis(const AnalysisContext& ctx);

}  // namespace epserve::analysis
