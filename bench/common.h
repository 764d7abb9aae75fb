// Shared plumbing for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/context.h"
#include "core/epserve.h"
#include "util/strings.h"
#include "util/table.h"

namespace epserve::bench {

/// The calibrated population, generated once per process (default seed).
inline const dataset::ResultRepository& population() {
  static const dataset::ResultRepository repo = [] {
    auto result = dataset::generate_population();
    if (!result.ok()) {
      std::fprintf(stderr, "population generation failed: %s\n",
                   result.error().message.c_str());
      std::exit(1);
    }
    return dataset::ResultRepository(std::move(result).take());
  }();
  return repo;
}

/// The shared analysis context over population(): every figure/table bench
/// reads its analyses through it.
inline const analysis::AnalysisContext& context() {
  static const analysis::AnalysisContext ctx(population());
  return ctx;
}

/// Standard harness header: what is being reproduced and from where.
inline void print_header(const std::string& figure, const std::string& what) {
  std::cout << "epserve reproduction — " << figure << "\n"
            << what << "\n"
            << std::string(72, '=') << "\n";
}

/// "measured (paper: reference)" cell.
inline std::string vs_paper(const std::string& measured,
                            const std::string& paper) {
  return measured + " (paper: " + paper + ")";
}

/// EE grid of a testbed sweep: one row per governor, one column per MPC.
inline void print_sweep_grid(const testbed::SweepResult& result,
                             const std::vector<double>& mpcs) {
  TextTable grid;
  std::vector<std::string> header = {"governor"};
  for (const double mpc : mpcs) {
    header.push_back(format_fixed(mpc, 2) + " GB/core");
  }
  grid.columns(std::move(header));
  std::vector<std::string> governors;
  for (const auto& cell : result.cells) {
    if (std::find(governors.begin(), governors.end(), cell.governor) ==
        governors.end()) {
      governors.push_back(cell.governor);
    }
  }
  for (const auto& governor : governors) {
    std::vector<std::string> row = {governor};
    for (const double mpc : mpcs) {
      const auto* cell = result.find(mpc, governor);
      row.push_back(cell != nullptr ? format_fixed(cell->overall_ee, 1) : "-");
    }
    grid.row(std::move(row));
  }
  std::cout << grid.render();
}

}  // namespace epserve::bench
