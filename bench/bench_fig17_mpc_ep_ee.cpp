// Fig.17: average EP and EE per memory-per-core configuration. Paper: the
// best ratio is 1.5 GB/core for EP and 1.78 GB/core for EE — proper memory
// sizing matters for both.
#include "common.h"

#include "analysis/memory_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.17 — EP and EE by memory per core",
                      "averages over the Table I ratios (430 servers)");

  TextTable table;
  table.columns({"GB/core", "n", "avg EP", "avg EE"});
  for (const auto& row :
       analysis::mpc_distribution(bench::context(), 11)) {
    table.row({format_fixed(row.gb_per_core, 2), std::to_string(row.count),
               format_fixed(row.mean_ep, 3), format_fixed(row.mean_score, 0)});
  }
  std::cout << table.render();

  std::cout << "\nbest GB/core for EP: "
            << bench::vs_paper(
                   format_fixed(analysis::best_mpc_for_ep(bench::context()), 2),
                   "1.5")
            << "\nbest GB/core for EE: "
            << bench::vs_paper(
                   format_fixed(analysis::best_mpc_for_ee(bench::context()), 2),
                   "1.78")
            << "\n";
  return 0;
}
