// Fig.6: server counts per CPU microarchitecture family. The paper's bars
// include Netburst (3) and a Sandy Bridge bar (incl. Ivy Bridge) of 152.
#include "common.h"

#include "analysis/uarch_analysis.h"

int main() {
  using namespace epserve;
  bench::print_header("Fig.6 — servers by microarchitecture",
                      "family counts over the 477-server population");

  std::size_t snb_plus_ivy = 0;
  TextTable table;
  table.columns({"family", "count", "share"});
  for (const auto& row : analysis::family_counts(bench::context())) {
    table.row({std::string(power::family_name(row.family)),
               std::to_string(row.count),
               format_percent(static_cast<double>(row.count) / 477.0)});
    if (row.family == power::UarchFamily::kSandyBridge ||
        row.family == power::UarchFamily::kIvyBridge) {
      snb_plus_ivy += row.count;
    }
  }
  std::cout << table.render();

  std::cout << "\nSandy Bridge family incl. Ivy Bridge: "
            << bench::vs_paper(std::to_string(snb_plus_ivy), "152")
            << "\nNetburst: paper 3\n"
            << "note: the synthetic population front-loads the Nehalem era "
               "relative to the paper's\nFig.6 (see EXPERIMENTS.md); the "
               "Sandy Bridge and Netburst totals are pinned exactly.\n";
  return 0;
}
