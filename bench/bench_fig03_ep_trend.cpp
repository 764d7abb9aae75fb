// Fig.3: per-year max / median / average / min energy proportionality, and
// the two "tock" jumps (+48.65% in 2008->2009, +24.24% in 2011->2012).
#include "common.h"

#include "analysis/trends.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.3 — EP statistics trend",
                      "per hardware availability year");

  const auto rows = analysis::year_trends(bench::context());
  TextTable table;
  table.columns({"year", "n", "max", "median", "average", "min"});
  for (const auto& row : rows) {
    table.row({std::to_string(row.year), std::to_string(row.count),
               format_fixed(row.ep.max, 3), format_fixed(row.ep.median, 3),
               format_fixed(row.ep.mean, 3), format_fixed(row.ep.min, 3)});
  }
  std::cout << table.render();

  std::cout << "\nEP jump 2008->2009 (avg): "
            << bench::vs_paper(
                   format_percent(analysis::ep_jump(rows, 2008, 2009).value()),
                   "+48.65%")
            << "\nEP jump 2011->2012 (avg): "
            << bench::vs_paper(
                   format_percent(analysis::ep_jump(rows, 2011, 2012).value()),
                   "+24.24%")
            << "\nglobal minimum EP: paper 0.18 (2008); global maximum EP: "
               "paper 1.05 (2012)\n";
  return 0;
}
