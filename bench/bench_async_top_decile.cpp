// §IV.B: asynchronisation of EP and EE evolution. Paper: 91.7% of the top-EP
// decile is 2012 hardware (vs a 27.4% population share) while only 16.7% of
// the top-EE decile is; all 2015/2016 machines sit in the top-EE decile; the
// two deciles overlap by just 14.6%.
#include "common.h"

#include "analysis/async_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("§IV.B — asynchronisation of EP and EE",
                      "top-decile composition by hardware year");

  const auto result = analysis::async_top_decile(bench::context());
  const auto share = [](const std::map<int, double>& shares, int year) {
    const auto it = shares.find(year);
    return it == shares.end() ? 0.0 : it->second;
  };

  TextTable table;
  table.columns({"year", "population share", "top-EP decile", "top-EE decile"});
  for (const auto& [year, pop_share] : result.population_year_shares) {
    table.row({std::to_string(year), format_percent(pop_share),
               format_percent(share(result.top_ep_year_shares, year)),
               format_percent(share(result.top_ee_year_shares, year))});
  }
  std::cout << table.render();

  double ee_1516 = share(result.top_ee_year_shares, 2015) +
                   share(result.top_ee_year_shares, 2016);
  std::cout << "\ntop-EP decile made in 2012: "
            << bench::vs_paper(
                   format_percent(share(result.top_ep_year_shares, 2012)),
                   "91.7%")
            << "\ntop-EE decile made in 2012: "
            << bench::vs_paper(
                   format_percent(share(result.top_ee_year_shares, 2012)),
                   "16.7%")
            << "\ntop-EE decile made in 2015/2016: "
            << format_percent(ee_1516)
            << " (paper: all 31 such machines are top-EE)"
            << "\ntop-EP ∩ top-EE overlap: "
            << bench::vs_paper(format_percent(result.overlap), "14.6%")
            << "\ndecile size: " << result.decile_size << " of 477\n";
  return 0;
}
