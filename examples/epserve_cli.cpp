// epserve_cli — one binary exposing the library's main workflows:
//
//   epserve_cli report  [seed] [--json] [--only <pass,...>] [--list-passes]
//                                           full population study (§III/§IV);
//                                           --only runs/renders a pass subset
//   epserve_cli report  --scale N [seed] [--chunk C]
//                                           per-year cohort table over an
//                                           N-server scaled (2007-2023)
//                                           population, built chunk by chunk
//   epserve_cli export  <out.csv> [seed]    generate + export the population
//   epserve_cli generate <out.csv> <servers> [seed] [--chunk C]
//                                           stream a scaled population to CSV
//                                           (bounded memory at any size)
//   epserve_cli validate <in.csv>           structural validation of a CSV
//   epserve_cli sweep   <server 1..4>       §V testbed sweep (Fig.18-21)
//   epserve_cli guide   [fleet_size] [seed] §V.C operating guide
//   epserve_cli day     [fleet_size] [seed] trace energy under each placement
//                       [--trace=<name>]    policy plus the ensemble
//                       [--idle=none|acpi]  autoscaler, on one shared Fleet
//                                           (default trace: diurnal)
//   epserve_cli day     --list-traces       the registered trace catalog
//   epserve_cli day     --matrix [--json]   all policies x all traces off one
//                                           shared Fleet, ACPI idle ladder;
//                                           winner per trace class
//   epserve_cli day     --scale N [seed] [--chunk C]
//                                           same study on a streamed Fleet of
//                                           N scaled servers (Fleet::Builder;
//                                           no full record vector)
//   epserve_cli fit     <in.csv> <id>       fit the two-segment model to one
//                                           server's measured curve
//   epserve_cli serve   [fleet_size] [seed] run the fleet-advisory daemon
//                       [--port N] [--threads N]
//                                           (docs/SERVING.md; Ctrl-C stops)
//
// Every subcommand parses through the shared util/args.h registry, so the
// conventions hold everywhere: numeric arguments are strict (`epserve_cli
// report foo` is exit 2, not a silent seed-0 run; same for sweep/fit ids),
// unknown flags are rejected, and the global `--trace[=json]` flag — defined
// once, accepted anywhere in argv — enables the telemetry layer and prints a
// span/counter snapshot to stderr after the command. Stdout stays
// byte-identical with tracing on or off (docs/OBSERVABILITY.md).
#include <signal.h>  // sigwait/pthread_sigmask (POSIX, not in <csignal>)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/matrix.h"
#include "cluster/operating_guide.h"
#include "cluster/trace.h"
#include "analysis/report_json.h"
#include "serve/server.h"
#include "core/epserve.h"
#include "dataset/columnar.h"
#include "dataset/generator.h"
#include "dataset/group_index.h"
#include "dataset/io.h"
#include "dataset/validation.h"
#include "metrics/model_fit.h"
#include "util/args.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace {

using namespace epserve;

int usage() {
  std::fprintf(stderr,
               "usage: epserve_cli <report|export|generate|validate|sweep|"
               "guide|day|fit|serve> [args] [--trace[=json]]\n"
               "  see the header comment of examples/epserve_cli.cpp\n");
  return 2;
}

/// Seed-positional sentinel: ArgParser's optional_u64 keeps the prior value
/// when the positional is absent, and the scaled subcommand variants default
/// to the ScaledConfig seed (2023Q3 cut) rather than the GeneratorConfig one
/// (2016Q3) — so "absent" must be distinguishable from any explicit seed.
constexpr std::uint64_t kSeedAbsent = std::numeric_limits<std::uint64_t>::max();

/// Parses a --chunk value (default 65536 rows); 0 is rejected.
Result<std::size_t> parse_chunk(bool given, const std::string& text) {
  if (!given) return std::size_t{65536};
  auto value = parse_u64(text);
  if (!value.ok()) return value.error();
  if (value.value() == 0) {
    return Error::invalid_argument("--chunk must be positive");
  }
  return static_cast<std::size_t>(value.value());
}

/// The guide/day fleet: the first `fleet_size` servers with 2012+ hardware
/// (the §V.C audience operates a current fleet, not the 2007 long tail).
std::vector<dataset::ServerRecord> modern_fleet(
    const std::vector<dataset::ServerRecord>& population,
    std::uint64_t fleet_size) {
  std::vector<dataset::ServerRecord> fleet;
  for (const auto& r : population) {
    if (r.hw_year >= 2012 && fleet.size() < fleet_size) fleet.push_back(r);
  }
  return fleet;
}

/// Parse failure: diagnostic plus the subcommand's usage, exit 2.
int parse_failure(const ArgParser& parser, const Error& error) {
  std::fprintf(stderr, "%s\n%s", error.message.c_str(),
               parser.usage().c_str());
  return 2;
}

/// The --scale report: per-hardware-year cohort statistics over a scaled
/// population that is never materialized — chunks stream straight into a
/// ColumnarSnapshot::Builder, and the cohort split is a radix GroupIndex
/// over the interned hw_year column.
int run_scaled_report(const dataset::ScaledConfig& config, std::size_t chunk) {
  dataset::ColumnarSnapshot::Builder builder;
  std::optional<Error> append_error;
  auto emitted = dataset::generate_population_chunked(
      config, chunk,
      [&](std::span<const dataset::ServerRecord> rows, std::uint64_t) {
        if (append_error) return;
        if (auto appended = builder.append(rows); !appended.ok()) {
          append_error = appended.error();
        }
      });
  if (!emitted.ok()) {
    std::fprintf(stderr, "%s\n", emitted.error().message.c_str());
    return 1;
  }
  if (append_error) {
    std::fprintf(stderr, "%s\n", append_error->message.c_str());
    return 1;
  }
  const auto snapshot = builder.finish();
  auto groups = dataset::GroupIndex::over_checked(snapshot.hw_year());
  if (!groups.ok()) {
    std::fprintf(stderr, "%s\n", groups.error().message.c_str());
    return 1;
  }
  const auto ep = snapshot.ep();
  const auto idle_fraction = snapshot.idle_fraction();
  const auto peak_ee_utilization = snapshot.peak_ee_utilization();
  TextTable table;
  table.columns({"year", "servers", "mean EP", "mean idle", "peak<100%"});
  for (std::size_t g = 0; g < groups.value().group_count(); ++g) {
    const auto members = groups.value().members(g);
    double ep_sum = 0.0;
    double idle_sum = 0.0;
    std::size_t interior = 0;
    for (const std::uint32_t i : members) {
      ep_sum += ep[i];
      idle_sum += idle_fraction[i];
      if (peak_ee_utilization[i] < 1.0) ++interior;
    }
    const double n = static_cast<double>(members.size());
    table.row({std::to_string(groups.value().key(g)),
               std::to_string(members.size()), format_fixed(ep_sum / n, 3),
               format_percent(idle_sum / n, 1),
               format_percent(static_cast<double>(interior) / n, 1)});
  }
  std::cout << emitted.value() << " servers across "
            << groups.value().group_count() << " hardware-year cohorts\n"
            << table.render();
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  dataset::GeneratorConfig config;
  StudyOptions options;
  bool as_json = false;
  bool list_passes = false;
  std::string only;
  bool only_given = false;
  std::uint64_t seed = kSeedAbsent;
  std::string scale_text;
  bool scale_given = false;
  std::string chunk_text;
  bool chunk_given = false;
  ArgParser parser("report");
  parser.optional_u64("seed", &seed, "population seed")
      .flag("--json", &as_json, "render the report as JSON")
      .flag("--list-passes", &list_passes, "print pass names and exit")
      .value_flag("--only", &only, &only_given,
                  "comma-separated pass subset (see --list-passes)")
      .value_flag("--scale", &scale_text, &scale_given,
                  "scaled cohort report over N servers (2007-2023 plan)")
      .value_flag("--chunk", &chunk_text, &chunk_given,
                  "rows per streamed chunk (default 65536)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  if (scale_given) {
    auto servers = parse_u64(scale_text);
    if (!servers.ok()) return parse_failure(parser, servers.error());
    auto chunk = parse_chunk(chunk_given, chunk_text);
    if (!chunk.ok()) return parse_failure(parser, chunk.error());
    dataset::ScaledConfig scaled;
    scaled.servers = servers.value();
    if (seed != kSeedAbsent) scaled.seed = seed;
    return run_scaled_report(scaled, chunk.value());
  }
  if (chunk_given) {
    std::fprintf(stderr, "--chunk requires --scale\n");
    return 2;
  }
  if (seed != kSeedAbsent) config.seed = seed;
  if (list_passes) {
    for (const auto& name : analysis::pass_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (only_given) options.passes = split(only, ',');
  auto selected = analysis::select_passes(options.passes);
  if (!selected.ok()) {
    std::fprintf(stderr, "%s\n", selected.error().message.c_str());
    return 2;
  }
  auto study = run_population_study(config, options);
  if (!study.ok()) {
    std::fprintf(stderr, "%s\n", study.error().message.c_str());
    return 1;
  }
  if (as_json) {
    std::cout << analysis::render_passes_json(study.value().report,
                                              selected.value())
              << "\n";
  } else {
    std::cout << analysis::render_passes_text(study.value().report,
                                              selected.value());
  }
  return 0;
}

int cmd_export(int argc, const char* const* argv) {
  dataset::GeneratorConfig config;
  std::string out_path;
  ArgParser parser("export");
  parser.positional("out.csv", &out_path, "destination CSV path")
      .optional_u64("seed", &config.seed, "population seed");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto population = dataset::generate_population(config);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.error().message.c_str());
    return 1;
  }
  auto saved = dataset::save_population(out_path, population.value());
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.error().message.c_str());
    return 1;
  }
  std::cout << "wrote " << population.value().size() << " records to "
            << out_path << "\n";
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  std::string out_path;
  std::uint64_t servers = 0;
  std::uint64_t seed = kSeedAbsent;
  std::string chunk_text;
  bool chunk_given = false;
  ArgParser parser("generate");
  parser.positional("out.csv", &out_path, "destination CSV path")
      .positional_u64("servers", &servers, "scaled population size")
      .optional_u64("seed", &seed, "population seed")
      .value_flag("--chunk", &chunk_text, &chunk_given,
                  "rows per streamed chunk (default 65536)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto chunk = parse_chunk(chunk_given, chunk_text);
  if (!chunk.ok()) return parse_failure(parser, chunk.error());
  dataset::ScaledConfig config;
  config.servers = servers;
  if (seed != kSeedAbsent) config.seed = seed;
  // Chunks stream straight to disk: peak memory is two chunks of records
  // (one being written, one being generated), whatever the population size
  // (docs/COLUMNAR.md "Streaming").
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open for writing: %s\n", out_path.c_str());
    return 1;
  }
  dataset::write_population_csv_header(out);
  auto emitted = dataset::generate_population_chunked(
      config, chunk.value(),
      [&](std::span<const dataset::ServerRecord> rows, std::uint64_t) {
        for (const auto& r : rows) dataset::write_population_csv_row(out, r);
      });
  if (!emitted.ok()) {
    std::fprintf(stderr, "%s\n", emitted.error().message.c_str());
    return 1;
  }
  if (!out) {
    std::fprintf(stderr, "write failed: %s\n", out_path.c_str());
    return 1;
  }
  std::cout << "wrote " << emitted.value() << " records to " << out_path
            << "\n";
  return 0;
}

int cmd_validate(int argc, const char* const* argv) {
  std::string in_path;
  ArgParser parser("validate");
  parser.positional("in.csv", &in_path, "population CSV to check");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto loaded = dataset::load_population(in_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.error().message.c_str());
    return 1;
  }
  const auto report = dataset::validate_population(loaded.value());
  if (report.ok()) {
    std::cout << "OK: " << loaded.value().size()
              << " records, no structural issues\n";
    return 0;
  }
  for (const auto& issue : report.issues) {
    std::cout << "record " << issue.record_id << ": " << issue.message << "\n";
  }
  return 1;
}

int cmd_sweep(int argc, const char* const* argv) {
  std::uint64_t server_id = 0;
  ArgParser parser("sweep");
  parser.positional_u64("server", &server_id, "Table II server id (1..4)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto sweep = run_testbed_sweep(static_cast<int>(server_id));
  if (!sweep.ok()) {
    std::fprintf(stderr, "%s\n", sweep.error().message.c_str());
    return 1;
  }
  TextTable table;
  table.columns({"MPC (GB/core)", "governor", "overall EE", "peak W"});
  for (const auto& cell : sweep.value().cells) {
    table.row({format_fixed(cell.memory_per_core_gb, 2), cell.governor,
               format_fixed(cell.overall_ee, 1),
               format_fixed(cell.peak_power_watts, 0)});
  }
  std::cout << sweep.value().server_name << "\n"
            << table.render() << "best MPC: "
            << format_fixed(sweep.value().best_mpc(), 2) << " GB/core\n";
  return 0;
}

int cmd_guide(int argc, const char* const* argv) {
  std::uint64_t fleet_size = 24;
  dataset::GeneratorConfig config;
  ArgParser parser("guide");
  parser.optional_u64("fleet_size", &fleet_size, "servers in the fleet")
      .optional_u64("seed", &config.seed, "population seed");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto population = dataset::generate_population(config);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.error().message.c_str());
    return 1;
  }
  const auto fleet = modern_fleet(population.value(), fleet_size);
  // One validated Fleet for the whole invocation (`fleet.builds` is 1 under
  // --trace); the guide reads every derived metric off its columns.
  const auto handle = cluster::Fleet::build(fleet);
  if (!handle.ok()) {
    std::fprintf(stderr, "%s\n", handle.error().message.c_str());
    return 1;
  }
  auto guide = cluster::build_operating_guide(handle.value());
  if (!guide.ok()) {
    std::fprintf(stderr, "%s\n", guide.error().message.c_str());
    return 1;
  }
  std::cout << cluster::render_guide(guide.value());
  return 0;
}

int cmd_day(int argc, const char* const* argv) {
  std::uint64_t fleet_size = 24;
  dataset::GeneratorConfig config;
  std::uint64_t seed = kSeedAbsent;
  std::string scale_text;
  bool scale_given = false;
  std::string chunk_text;
  bool chunk_given = false;
  std::string trace_name;
  bool trace_given = false;
  std::string idle_name;
  bool idle_given = false;
  bool list_traces = false;
  bool matrix = false;
  bool json = false;
  ArgParser parser("day");
  parser.optional_u64("fleet_size", &fleet_size, "servers in the fleet")
      .optional_u64("seed", &seed, "population seed")
      .value_flag("--scale", &scale_text, &scale_given,
                  "run on a streamed fleet of N scaled servers")
      .value_flag("--chunk", &chunk_text, &chunk_given,
                  "rows per streamed chunk (default 65536)")
      .value_flag("--trace", &trace_name, &trace_given,
                  "registry trace to simulate (--trace=<name>; bare --trace "
                  "is the global telemetry flag)")
      .value_flag("--idle", &idle_name, &idle_given,
                  "idle-state model: none|acpi (default none; acpi under "
                  "--matrix)")
      .flag("--list-traces", &list_traces, "list registered traces and exit")
      .flag("--matrix", &matrix,
            "all policies x all traces off one shared Fleet")
      .flag("--json", &json, "with --matrix: emit the JSON report");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  if (list_traces) {
    TextTable table;
    table.columns({"name", "slots", "slot h", "base", "amplitude",
                   "latency-critical", "description"});
    for (const auto& info : cluster::trace_catalog()) {
      table.row({std::string(info.name), std::to_string(info.slots),
                 format_fixed(info.slot_hours, 1),
                 format_fixed(info.default_base, 2),
                 format_fixed(info.default_amplitude, 2),
                 info.latency_critical ? "yes" : "no",
                 std::string(info.description)});
    }
    std::cout << table.render();
    return 0;
  }
  if (chunk_given && !scale_given) {
    std::fprintf(stderr, "--chunk requires --scale\n");
    return 2;
  }
  if (json && !matrix) {
    std::fprintf(stderr, "--json requires --matrix\n");
    return 2;
  }
  if (matrix && trace_given) {
    std::fprintf(stderr, "--matrix runs every registered trace; drop "
                         "--trace=%s\n", trace_name.c_str());
    return 2;
  }
  // Idle model: legacy accounting by default on the single-trace path
  // (keeps the no-flag output byte-identical); the matrix defaults to the
  // ACPI ladder it exists to expose.
  auto idle = cluster::IdleModel::by_name(
      idle_given ? idle_name : (matrix ? "acpi" : "none"));
  if (!idle.ok()) {
    std::fprintf(stderr, "%s\n", idle.error().message.c_str());
    return 2;
  }
  // Trace selection is strict: an unknown name exits 2 listing the known
  // names (from the registry's kNotFound error).
  cluster::DemandTrace trace;
  if (!matrix) {
    if (!trace_given) trace_name = "diurnal";
    auto made = cluster::make_trace(trace_name);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.error().message.c_str());
      return 2;
    }
    trace = std::move(made).take();
  }
  if (seed != kSeedAbsent && !scale_given) config.seed = seed;
  dataset::ScaledConfig scaled_config;
  std::size_t chunk = 0;
  if (scale_given) {
    auto servers = parse_u64(scale_text);
    if (!servers.ok()) return parse_failure(parser, servers.error());
    auto parsed_chunk = parse_chunk(chunk_given, chunk_text);
    if (!parsed_chunk.ok()) return parse_failure(parser, parsed_chunk.error());
    scaled_config.servers = servers.value();
    if (seed != kSeedAbsent) scaled_config.seed = seed;
    chunk = parsed_chunk.value();
  }
  // One Fleet shared by all four subsystems below — the placement policies
  // and the autoscaler evaluate the same cached columns and tables. The
  // view-built path must keep its records alive alongside the handle.
  std::vector<dataset::ServerRecord> fleet;
  const auto handle = [&]() -> Result<cluster::Fleet> {
    if (scale_given) return cluster::build_streamed_fleet(scaled_config, chunk);
    auto population = dataset::generate_population(config);
    if (!population.ok()) return population.error();
    fleet = modern_fleet(population.value(), fleet_size);
    return cluster::Fleet::build(fleet);
  }();
  if (!handle.ok()) {
    std::fprintf(stderr, "%s\n", handle.error().message.c_str());
    return 1;
  }
  if (matrix) {
    cluster::MatrixOptions options;
    options.idle = std::move(idle).take();
    options.idle_name = idle_given ? idle_name : "acpi";
    auto run = cluster::run_policy_trace_matrix(handle.value(), options);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.error().message.c_str());
      return 1;
    }
    if (json) {
      std::cout << cluster::render_matrix_json(run.value()) << "\n";
    } else {
      std::cout << cluster::render_matrix_text(run.value());
    }
    return 0;
  }
  TextTable table;
  table.columns({"policy", "kWh/day", "served Gops", "ops/J"});
  for (const auto& policy : cluster::day_policies()) {
    auto cell = cluster::run_policy_day(handle.value(), trace_name, trace,
                                        policy, idle.value());
    if (!cell.ok()) {
      std::fprintf(stderr, "%s\n", cell.error().message.c_str());
      return 1;
    }
    if (!cell.value().eligible) {
      table.row({policy, "-", "-", "-"});
      continue;
    }
    const cluster::DayResult& day = cell.value().result;
    table.row({policy, format_fixed(day.energy_kwh, 2),
               format_fixed(day.served_gops, 1),
               format_fixed(day.avg_efficiency, 1)});
  }
  std::cout << handle.value().size() << " servers over "
            << trace.demand.size() << " slots\n"
            << table.render();
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  std::uint64_t fleet_size = 24;
  dataset::GeneratorConfig config;
  std::uint64_t port = 0;
  std::uint64_t threads = 0;
  std::string port_text;
  std::string threads_text;
  bool port_given = false;
  bool threads_given = false;
  ArgParser parser("serve");
  parser.optional_u64("fleet_size", &fleet_size, "servers in the fleet")
      .optional_u64("seed", &config.seed, "population seed")
      .value_flag("--port", &port_text, &port_given,
                  "TCP port (default 0 = kernel-assigned)")
      .value_flag("--threads", &threads_text, &threads_given,
                  "handler threads (default 0 = auto)");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  for (const auto& [given, text, out] :
       {std::tuple{port_given, &port_text, &port},
        std::tuple{threads_given, &threads_text, &threads}}) {
    if (!given) continue;
    auto value = parse_u64(*text);
    if (!value.ok()) return parse_failure(parser, value.error());
    *out = value.value();
  }
  if (port > 0xffff) {
    std::fprintf(stderr, "--port must be <= 65535\n");
    return 2;
  }
  auto population = dataset::generate_population(config);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.error().message.c_str());
    return 1;
  }
  serve::ServeOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.threads = threads;
  // Block SIGINT/SIGTERM *before* the daemon spawns its threads so every
  // thread inherits the mask and the signal can only land in sigwait below.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  auto server = serve::FleetServer::start(
      modern_fleet(population.value(), fleet_size), options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().message.c_str());
    return 1;
  }
  // Parseable by wrapper scripts: the daemon's one line of stdout before it
  // blocks (the kernel-assigned port is unknowable beforehand with port 0).
  std::cout << "serving " << fleet_size << " servers on 127.0.0.1:"
            << server.value()->port() << "\n"
            << std::flush;
  int received = 0;
  sigwait(&signals, &received);
  server.value()->stop();
  std::cout << "served " << server.value()->requests_served()
            << " requests, " << server.value()->swaps() << " fleet swaps\n";
  return 0;
}

int cmd_fit(int argc, const char* const* argv) {
  std::string in_path;
  std::uint64_t id = 0;
  ArgParser parser("fit");
  parser.positional("in.csv", &in_path, "population CSV to search")
      .positional_u64("id", &id, "record id to fit");
  if (auto parsed = parser.parse(argc, argv); !parsed.ok()) {
    return parse_failure(parser, parsed.error());
  }
  auto loaded = dataset::load_population(in_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
    return 1;
  }
  for (const auto& r : loaded.value()) {
    if (r.id != static_cast<int>(id)) continue;
    const auto fit = metrics::fit_two_segment(r.curve);
    std::cout << "server " << id << " (" << r.model << ")\n"
              << "  idle fraction: " << format_percent(fit.model.idle, 1)
              << "\n  kink tau     : " << format_percent(fit.model.tau, 0)
              << "\n  slopes       : s1 " << format_fixed(fit.model.s1, 3)
              << ", s2 " << format_fixed(fit.model.s2, 3)
              << "\n  model EP     : " << format_fixed(fit.model.ep(), 3)
              << "\n  fit RMSE     : " << format_fixed(fit.rmse, 4) << "\n";
    return 0;
  }
  std::fprintf(stderr, "no record with id %llu\n",
               static_cast<unsigned long long>(id));
  return 1;
}

/// The one definition of the global --trace flag: strips a bare `--trace`
/// or `--trace=json` from argv (any position), enables telemetry, and
/// reports the requested render mode. Any other `--trace=<value>` is left
/// in argv for the subcommand parser — `day` defines `--trace=<name>` as
/// its demand-trace selector; every other subcommand rejects it as an
/// unknown flag.
bool extract_trace_flag(std::vector<const char*>& args, bool& trace,
                        bool& trace_json) {
  std::vector<const char*> kept;
  for (const char* arg : args) {
    const std::string_view view = arg;
    if (view == "--trace") {
      trace = true;
    } else if (view == "--trace=json") {
      trace = true;
      trace_json = true;
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> args(argv + 1, argv + argc);
  bool trace = false;
  bool trace_json = false;
  if (!extract_trace_flag(args, trace, trace_json)) return 2;
  if (args.empty()) return usage();
  if (trace) telemetry::set_enabled(true);

  const std::string command = args[0];
  const int sub_argc = static_cast<int>(args.size()) - 1;
  const char* const* sub_argv = args.data() + 1;
  int exit_code;
  if (command == "report") {
    exit_code = cmd_report(sub_argc, sub_argv);
  } else if (command == "export") {
    exit_code = cmd_export(sub_argc, sub_argv);
  } else if (command == "generate") {
    exit_code = cmd_generate(sub_argc, sub_argv);
  } else if (command == "validate") {
    exit_code = cmd_validate(sub_argc, sub_argv);
  } else if (command == "sweep") {
    exit_code = cmd_sweep(sub_argc, sub_argv);
  } else if (command == "guide") {
    exit_code = cmd_guide(sub_argc, sub_argv);
  } else if (command == "day") {
    exit_code = cmd_day(sub_argc, sub_argv);
  } else if (command == "fit") {
    exit_code = cmd_fit(sub_argc, sub_argv);
  } else if (command == "serve") {
    exit_code = cmd_serve(sub_argc, sub_argv);
  } else {
    return usage();
  }

  if (trace) {
    // stderr, so the command's stdout is byte-identical with tracing off.
    const auto snap = telemetry::snapshot();
    std::fputs((trace_json ? snap.render_json() + "\n" : snap.render_text())
                   .c_str(),
               stderr);
  }
  return exit_code;
}
