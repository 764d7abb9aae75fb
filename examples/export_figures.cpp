// Figure-data exporter: writes every population figure's data series to CSV
// files for external plotting (gnuplot / matplotlib / spreadsheets). One file
// per figure under the output directory.
//
//   ./build/examples/export_figures [out_dir] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "analysis/context.h"
#include "analysis/envelope.h"
#include "analysis/memory_analysis.h"
#include "analysis/peak_shift.h"
#include "analysis/scale_analysis.h"
#include "analysis/trends.h"
#include "analysis/uarch_analysis.h"
#include "core/epserve.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace epserve;

bool write(const std::filesystem::path& dir, const std::string& name,
           const CsvDocument& doc) {
  const auto path = (dir / name).string();
  const auto result = write_csv_file(path, doc);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 result.error().message.c_str());
    return false;
  }
  std::cout << "wrote " << path << " (" << doc.rows.size() << " rows)\n";
  return true;
}

std::string num(double v) { return format_fixed(v, 6); }

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "figures";
  dataset::GeneratorConfig config;
  if (argc > 2) config.seed = std::strtoull(argv[2], nullptr, 10);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto population = dataset::generate_population(config);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.error().message.c_str());
    return 1;
  }
  const dataset::ResultRepository repo(std::move(population).take());
  const analysis::AnalysisContext ctx(repo);

  // Fig.2/3/4: per-year EP and EE statistics.
  {
    CsvDocument doc;
    doc.header = {"year",    "count",  "ep_avg", "ep_med", "ep_min",
                  "ep_max",  "ee_avg", "ee_med", "ee_min", "ee_max",
                  "peak_ee_avg"};
    for (const auto& row : analysis::year_trends(ctx)) {
      doc.rows.push_back({std::to_string(row.year),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.ep.min),
                          num(row.ep.max), num(row.score.mean),
                          num(row.score.median), num(row.score.min),
                          num(row.score.max), num(row.peak_ee.mean)});
    }
    if (!write(dir, "fig02_04_trends.csv", doc)) return 1;
  }

  // Fig.5: EP values (one per server) for CDF plotting.
  {
    CsvDocument doc;
    doc.header = {"server_id", "hw_year", "ep", "idle_fraction",
                  "overall_ee"};
    for (const auto& r : repo.records()) {
      doc.rows.push_back(
          {std::to_string(r.id), std::to_string(r.hw_year),
           num(metrics::energy_proportionality(r.curve)),
           num(r.curve.idle_fraction()),
           num(metrics::overall_score(r.curve))});
    }
    if (!write(dir, "fig05_ep_points.csv", doc)) return 1;
  }

  // Fig.9/11: envelopes.
  {
    const auto power_env = analysis::power_envelope(repo);
    const auto ee_env = analysis::ee_envelope(repo);
    CsvDocument doc;
    doc.header = {"utilization", "power_lower", "power_upper", "ee_lower",
                  "ee_upper"};
    for (std::size_t i = 0; i < analysis::kEnvelopePoints; ++i) {
      const double u = i == 0 ? 0.0 : metrics::kLoadLevels[i - 1];
      doc.rows.push_back(
          {num(u), num(power_env.lower[i]), num(power_env.upper[i]),
           i == 0 ? "0" : num(ee_env.lower[i - 1]),
           i == 0 ? "0" : num(ee_env.upper[i - 1])});
    }
    if (!write(dir, "fig09_11_envelopes.csv", doc)) return 1;
  }

  // Fig.7: per-codename EP.
  {
    CsvDocument doc;
    doc.header = {"codename", "count", "mean_ep", "median_ep"};
    for (const auto& row : analysis::codename_ep_ranking(ctx)) {
      doc.rows.push_back({row.codename, std::to_string(row.count),
                          num(row.mean_ep), num(row.median_ep)});
    }
    if (!write(dir, "fig07_codename_ep.csv", doc)) return 1;
  }

  // Fig.13/14: scale analyses.
  {
    CsvDocument doc;
    doc.header = {"group", "key", "count", "ep_avg", "ep_med", "ee_avg"};
    for (const auto& row : analysis::ep_ee_by_nodes(ctx)) {
      doc.rows.push_back({"nodes", std::to_string(row.key),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.score.mean)});
    }
    for (const auto& row : analysis::ep_ee_by_chips(ctx)) {
      doc.rows.push_back({"chips", std::to_string(row.key),
                          std::to_string(row.count), num(row.ep.mean),
                          num(row.ep.median), num(row.score.mean)});
    }
    if (!write(dir, "fig13_14_scale.csv", doc)) return 1;
  }

  // Fig.16: per-year peak-EE spot distribution.
  {
    CsvDocument doc;
    doc.header = {"year", "servers", "at60", "at70", "at80", "at90", "at100"};
    for (const auto& row : analysis::peak_spot_by_year(repo)) {
      const auto count = [&](double u) {
        const auto it = row.spots.find(u);
        return std::to_string(it == row.spots.end() ? 0 : it->second);
      };
      doc.rows.push_back({std::to_string(row.year),
                          std::to_string(row.servers), count(0.6), count(0.7),
                          count(0.8), count(0.9), count(1.0)});
    }
    if (!write(dir, "fig16_peak_spots.csv", doc)) return 1;
  }

  // Fig.17 / Table I: MPC distribution.
  {
    CsvDocument doc;
    doc.header = {"gb_per_core", "count", "mean_ep", "mean_ee"};
    for (const auto& row : analysis::mpc_distribution(ctx, 0)) {
      doc.rows.push_back({num(row.gb_per_core), std::to_string(row.count),
                          num(row.mean_ep), num(row.mean_score)});
    }
    if (!write(dir, "fig17_table1_mpc.csv", doc)) return 1;
  }

  std::cout << "done; plot with any CSV-reading tool.\n";
  return 0;
}
