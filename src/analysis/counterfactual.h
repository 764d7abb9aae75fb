// Counterfactual population analysis backing the paper's §III.B claim: the
// 2013/2014 EP dip is caused by the adopted microarchitecture mix, not by a
// genuine stall in proportionality engineering. The counterfactual replaces
// each post-cutoff server's EP with its year's value under a *frozen* mix —
// what the trend would have looked like had vendors kept shipping the
// reference codename class.
#pragma once

#include <string>
#include <vector>

#include "util/result.h"

namespace epserve::analysis {

class AnalysisContext;

struct CounterfactualRow {
  int year = 0;
  std::size_t count = 0;
  double actual_mean_ep = 0.0;
  /// Mean EP if every server of this year carried the reference codename's
  /// global mean EP plus its own within-codename residual.
  double counterfactual_mean_ep = 0.0;
};

struct CounterfactualResult {
  std::string reference_codename;
  std::vector<CounterfactualRow> rows;  // ascending years >= from_year
  /// True when the counterfactual removes the dip among years with enough
  /// results (count >= 10): no such year falls below the first year's
  /// counterfactual mean by more than 0.01. Thin years stay noisy — the
  /// paper's second explanation ("lack of enough SPECpower results").
  bool dip_removed = false;
};

/// Rebuilds the EP trend for years >= `from_year` under the assumption that
/// every server used `reference_codename`-class silicon: each server keeps
/// its residual vs its own codename's mean, re-based on the reference mean.
/// Fails when the reference codename is absent from the population.
epserve::Result<CounterfactualResult> frozen_mix_counterfactual(
    const AnalysisContext& ctx,
    const std::string& reference_codename = "Sandy Bridge EP",
    int from_year = 2012, int to_year = 2016);

}  // namespace epserve::analysis
