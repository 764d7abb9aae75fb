// §V.C: energy-proportionality-aware workload placement. The paper's guide:
// keep servers with interior peak EE inside their 70-100% optimal working
// region instead of packing them full; group heterogeneous machines into
// logical clusters by EP and overlapping best regions; for a fixed power
// budget, EP-aware placement does more work.
#include "common.h"

#include <algorithm>

#include "metrics/proportionality.h"

int main() {
  using namespace epserve;
  bench::print_header("§V.C — EP-aware workload placement",
                      "policy comparison on a modern (2012+) sub-fleet");

  // A modern rack: 2012+ single-node machines (interior peak-EE era).
  std::vector<dataset::ServerRecord> fleet;
  for (const auto& r : bench::population().records()) {
    if (r.hw_year >= 2012 && r.nodes == 1 && fleet.size() < 32) {
      fleet.push_back(r);
    }
  }

  // One record->Fleet conversion at the boundary, shared by every section.
  const auto built = cluster::Fleet::build(fleet);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.error().message.c_str());
    return 1;
  }
  const cluster::Fleet& handle = built.value();

  const cluster::PackToFullPolicy pack;
  const cluster::BalancedPolicy balanced;
  const cluster::OptimalRegionPolicy optimal;

  TextTable table;
  table.columns({"demand", "pack-to-full (ops/W)", "balanced (ops/W)",
                 "optimal-region (ops/W)", "optimal vs pack"});
  for (double demand = 0.1; demand <= 0.91; demand += 0.1) {
    const auto a = cluster::evaluate(pack, handle,  demand);
    const auto b = cluster::evaluate(balanced, handle,  demand);
    const auto c = cluster::evaluate(optimal, handle,  demand);
    if (!a.ok() || !b.ok() || !c.ok()) {
      std::fprintf(stderr, "placement evaluation failed\n");
      return 1;
    }
    table.row({format_percent(demand, 0),
               format_fixed(a.value().efficiency(), 1),
               format_fixed(b.value().efficiency(), 1),
               format_fixed(c.value().efficiency(), 1),
               format_percent(c.value().efficiency() /
                                  a.value().efficiency() - 1.0)});
  }
  std::cout << table.render();

  std::cout << section_banner("Cluster-wide EP per policy");
  for (const cluster::PlacementPolicy* policy :
       std::initializer_list<const cluster::PlacementPolicy*>{
           &pack, &balanced, &optimal}) {
    const auto curve = cluster::cluster_power_curve(*policy, handle);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s\n", curve.error().message.c_str());
      return 1;
    }
    std::cout << policy->name() << ": aggregate EP = "
              << format_fixed(metrics::energy_proportionality(curve.value()), 3)
              << "\n";
  }

  std::cout << section_banner("Throughput under a fixed power budget");
  // Paper: "for a fixed number of racks EP-aware placement can maximize the
  // throughput ... under fixed power supply". Find the highest demand each
  // policy can serve inside a power cap at 70% of peak fleet power.
  double peak_fleet_power = 0.0;
  for (const auto& s : fleet) peak_fleet_power += s.curve.peak_watts();
  const double cap = 0.7 * peak_fleet_power;
  for (const cluster::PlacementPolicy* policy :
       std::initializer_list<const cluster::PlacementPolicy*>{
           &pack, &balanced, &optimal}) {
    double best_ops = 0.0;
    for (double demand = 0.0; demand <= 1.0; demand += 0.01) {
      const auto a = cluster::evaluate(*policy, handle,  demand);
      if (!a.ok()) break;
      if (a.value().total_power_watts <= cap) {
        best_ops = std::max(best_ops, a.value().total_ops);
      }
    }
    std::cout << policy->name() << ": max throughput under " << format_fixed(cap, 0)
              << " W cap = " << format_fixed(best_ops / 1e6, 2) << " Mops/s\n";
  }
  return 0;
}
