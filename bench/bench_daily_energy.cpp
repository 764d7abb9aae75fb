// §V.C operationalised: a 24-hour diurnal demand trace served by a modern
// 24-server rack under each placement policy — the daily energy bill for the
// same delivered work.
#include "common.h"

#include "cluster/day_simulation.h"

int main() {
  using namespace epserve;
  bench::print_header("§V.C — daily energy under a diurnal trace",
                      "same served work, three placement policies");

  std::vector<dataset::ServerRecord> fleet;
  for (const auto& r : bench::population().records()) {
    if (r.hw_year >= 2012 && r.nodes == 1 && fleet.size() < 24) {
      fleet.push_back(r);
    }
  }
  const auto trace = cluster::make_trace("diurnal").value();
  std::cout << "demand trace (24 x 1h): trough "
            << format_percent(*std::min_element(trace.demand.begin(),
                                                trace.demand.end()), 0)
            << ", peak "
            << format_percent(*std::max_element(trace.demand.begin(),
                                                trace.demand.end()), 0)
            << "\n\n";

  const auto handle = cluster::Fleet::build(fleet);
  if (!handle.ok()) {
    std::fprintf(stderr, "%s\n", handle.error().message.c_str());
    return 1;
  }
  const auto results =
      cluster::compare_policies_over_day(handle.value(), trace);
  if (!results.ok()) {
    std::fprintf(stderr, "%s\n", results.error().message.c_str());
    return 1;
  }
  double worst = 0.0;
  for (const auto& day : results.value()) {
    worst = std::max(worst, day.energy_kwh);
  }
  TextTable table;
  table.columns({"policy", "energy (kWh/day)", "served work (Gops)",
                 "efficiency (ops/J)", "vs worst"});
  for (const auto& day : results.value()) {
    table.row({day.policy, format_fixed(day.energy_kwh, 2),
               format_fixed(day.served_gops, 0),
               format_fixed(day.avg_efficiency, 1),
               format_percent(day.energy_kwh / worst - 1.0, 1)});
  }
  std::cout << table.render();
  std::cout << "\npaper: EP-aware placement saves energy at the same "
               "throughput — the gap is the\nspread between the best and "
               "worst rows above.\n";
  return 0;
}
