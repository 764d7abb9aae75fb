// §I: the re-keying analysis — how the per-year EP/EE statistics move when
// results are organised by hardware availability year instead of published
// year. Paper: 74 of 477 results (15.5%) are mismatched; avg/median EP move
// by -6.2%..8.7% / -8.6%..13.1%, avg/median EE by -2.2%..16.6% / -5.0%..20.8%.
#include "common.h"

#include "analysis/rekeying.h"

int main() {
  using namespace epserve;
  bench::print_header("§I — published-year vs hardware-availability re-keying",
                      "per-year statistic deltas between the two organisations");

  const auto result = analysis::rekeying_analysis(bench::context());

  TextTable table;
  table.columns({"year", "hw n", "pub n", "avg EP delta", "med EP delta",
                 "avg EE delta", "med EE delta"});
  for (const auto& row : result.rows) {
    table.row({std::to_string(row.year), std::to_string(row.hw_count),
               std::to_string(row.pub_count),
               format_percent(row.avg_ep_delta, 1),
               format_percent(row.med_ep_delta, 1),
               format_percent(row.avg_ee_delta, 1),
               format_percent(row.med_ee_delta, 1)});
  }
  std::cout << table.render();

  std::cout << "\nmismatched results: "
            << bench::vs_paper(std::to_string(result.mismatched_results) +
                                   " (" +
                                   format_percent(result.mismatched_share) + ")",
                               "74 (15.5%)")
            << "\navg EP delta range: "
            << bench::vs_paper(format_percent(result.min_avg_ep_delta, 1) +
                                   " .. " +
                                   format_percent(result.max_avg_ep_delta, 1),
                               "-6.2% .. 8.7%")
            << "\nmed EP delta range: "
            << bench::vs_paper(format_percent(result.min_med_ep_delta, 1) +
                                   " .. " +
                                   format_percent(result.max_med_ep_delta, 1),
                               "-8.6% .. 13.1%")
            << "\navg EE delta range: "
            << bench::vs_paper(format_percent(result.min_avg_ee_delta, 1) +
                                   " .. " +
                                   format_percent(result.max_avg_ee_delta, 1),
                               "-2.2% .. 16.6%")
            << "\nmed EE delta range: "
            << bench::vs_paper(format_percent(result.min_med_ee_delta, 1) +
                                   " .. " +
                                   format_percent(result.max_med_ee_delta, 1),
                               "-5.0% .. 20.8%")
            << "\n";
  return 0;
}
