// Million-server streaming pipeline gate (ROADMAP item 1): sharded scaled
// generation (2007-2023 cohorts) -> chunked Fleet/snapshot build -> radix
// grouping -> one whole-day placement simulation, end to end, at 1,000,000
// servers on one machine.
//
// Self-verifying:
//   - digest byte-compare: a streamed Fleet::Builder fed generator chunks
//     must produce exactly Fleet::build()'s digest on a 5000-server
//     reference population (the full-size run then reuses the same code
//     path),
//   - the radix GroupIndex build must be >= 2x the comparison sort at 1M
//     rows on the hw_year cohort column,
//   - peak RSS (VmHWM) must stay under a fixed ceiling: the streamed path
//     holds two generator chunks plus the fleet's columns, never a full
//     vector<ServerRecord> of the population.
// Exits 1 on any violation. Prints one BENCH_JSON line for run_benches.sh.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "exp/gate.h"

namespace {

using namespace epserve;

constexpr std::uint64_t kScaleServers = 1'000'000;
constexpr std::uint64_t kReferenceServers = 5'000;
constexpr std::size_t kChunkRows = 65'536;
/// The streamed footprint at 1M plus under 10%: 513-517 MB VmHWM over three
/// runs on a 4-vCPU AVX-512 host (the fleet's columns, its owned curve
/// column, two generator chunks, the cached orders with their ranks and the
/// region tops). Per-slot utilisation vectors (fleet size x slots doubles,
/// 665 MB VmHWM), a per-server side table or a materialized
/// vector<ServerRecord> of the population exceed it.
constexpr long kPeakRssCeilingMb = 565;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// This process's resident high-water mark (VmHWM). Not getrusage's
/// ru_maxrss: that keeps the high-water mark of the image the process
/// replaced at exec (e.g. a launching interpreter).
long peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10) / 1024;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

int main() {
  bench::print_header(
      "population scale — 1M-server streaming pipeline",
      "sharded generate -> chunked fleet build -> radix group -> day sim");
  exp::Gate gate("bench_population_scale");

  // --- reference-size digest byte-compare: streamed == monolithic ----------
  dataset::ScaledConfig reference_config;
  reference_config.servers = kReferenceServers;
  auto reference_records =
      dataset::generate_scaled_population(reference_config);
  if (!reference_records.ok()) {
    std::fprintf(stderr, "FAIL: reference generation: %s\n",
                 reference_records.error().message.c_str());
    return 1;
  }
  const auto monolithic = cluster::Fleet::build(reference_records.value());
  const auto reference_streamed =
      cluster::build_streamed_fleet(reference_config, 997);
  if (!monolithic.ok() || !reference_streamed.ok()) {
    std::fprintf(stderr, "FAIL: reference fleet build\n");
    return 1;
  }
  const bool digest_match =
      reference_streamed.value().digest() == monolithic.value().digest();
  gate.require("digest: streamed vs monolithic (5000-server reference)",
               digest_match,
               digest_match ? "digests identical" : "digests diverge");

  // --- full-scale streamed build -------------------------------------------
  dataset::ScaledConfig scale_config;
  scale_config.servers = kScaleServers;
  const auto build_start = std::chrono::steady_clock::now();
  const auto fleet = cluster::build_streamed_fleet(scale_config, kChunkRows);
  const double build_s = seconds_since(build_start);
  if (!fleet.ok()) {
    std::fprintf(stderr, "FAIL: scale fleet build: %s\n",
                 fleet.error().message.c_str());
    return 1;
  }
  const double rows_per_s = static_cast<double>(kScaleServers) / build_s;

  // --- radix vs comparison grouping at 1M rows ------------------------------
  const auto year_keys = fleet.value().snapshot().hw_year();
  constexpr int kGroupIters = 5;
  std::size_t radix_groups = 0;
  const auto radix_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kGroupIters; ++i) {
    radix_groups = dataset::GroupIndex::over(
                       year_keys, dataset::GroupIndex::Strategy::kRadix)
                       .group_count();
  }
  const double radix_ms = 1000.0 * seconds_since(radix_start) / kGroupIters;
  std::size_t comparison_groups = 0;
  const auto comparison_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kGroupIters; ++i) {
    comparison_groups =
        dataset::GroupIndex::over(year_keys,
                                  dataset::GroupIndex::Strategy::kComparison)
            .group_count();
  }
  const double comparison_ms =
      1000.0 * seconds_since(comparison_start) / kGroupIters;
  const double radix_speedup = comparison_ms / radix_ms;
  gate.require("radix vs comparison group counts",
               radix_groups == comparison_groups,
               std::to_string(radix_groups) + " vs " +
                   std::to_string(comparison_groups) + " groups");
  gate.floor("radix grouping speedup (x)", radix_speedup, 2.0);

  // --- one whole-day placement run on the million-server fleet --------------
  const auto trace = cluster::make_trace("diurnal").value();
  const cluster::PackToFullPolicy policy;
  const auto day_start = std::chrono::steady_clock::now();
  const auto day = cluster::simulate_day(policy, fleet.value(), trace);
  const double day_s = seconds_since(day_start);
  if (!day.ok()) {
    std::fprintf(stderr, "FAIL: day simulation: %s\n",
                 day.error().message.c_str());
    return 1;
  }

  const long rss_mb = peak_rss_mb();
  gate.ceiling("peak RSS (MB)", static_cast<double>(rss_mb),
               static_cast<double>(kPeakRssCeilingMb));

  TextTable table;
  table.columns({"stage", "value"});
  table.row({"generate + chunked fleet build",
             format_fixed(build_s, 2) + " s (" +
                 format_fixed(rows_per_s / 1000.0, 0) + "k rows/s)"});
  table.row({"radix year grouping (1M rows)",
             format_fixed(radix_ms, 2) + " ms (" +
                 format_fixed(radix_speedup, 2) + "x vs comparison " +
                 format_fixed(comparison_ms, 2) + " ms)"});
  table.row({"day sim, pack-to-full",
             format_fixed(day_s, 2) + " s, " +
                 format_fixed(day.value().energy_kwh, 0) + " kWh/day"});
  table.row({"digest streamed == monolithic", digest_match ? "yes" : "NO"});
  table.row({"peak RSS", std::to_string(rss_mb) + " MB (ceiling " +
                             std::to_string(kPeakRssCeilingMb) + " MB)"});
  std::cout << table.render();

  std::printf(
      "BENCH_JSON {\"servers\": %llu, \"build_s\": %.3f, \"rows_per_s\": "
      "%.0f, \"radix_ms\": %.3f, \"comparison_ms\": %.3f, \"radix_speedup\": "
      "%.2f, \"day_s\": %.3f, \"day_kwh\": %.1f, \"digest_match\": %d, "
      "\"peak_rss_mb\": %ld}\n",
      static_cast<unsigned long long>(kScaleServers), build_s, rows_per_s,
      radix_ms, comparison_ms, radix_speedup, day_s, day.value().energy_kwh,
      digest_match ? 1 : 0, rss_mb);
  return gate.finish();
}
