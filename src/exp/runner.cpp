#include "exp/runner.h"

#include <time.h>  // clock_gettime(CLOCK_THREAD_CPUTIME_ID) — POSIX

#include <cstdio>
#include <optional>
#include <span>
#include <utility>

#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/matrix.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace epserve::exp {
namespace {

constexpr std::string_view kResultSchema = "epserve-exp-result-v1";

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void write_cell(JsonWriter& json, const CellResult& result) {
  json.begin_object();
  json.key("fleet_size")
      .value(static_cast<std::size_t>(result.cell.fleet_size));
  json.key("seed").value(static_cast<std::size_t>(result.cell.seed));
  json.key("gen_threads").value(result.cell.gen_threads);
  json.key("idle").value(result.cell.idle);
  json.key("trace").value(result.cell.trace);
  json.key("policy").value(result.cell.policy);
  json.key("eligible").value(result.eligible);
  json.key("servers").value(static_cast<std::size_t>(result.servers));
  json.key("digest").value(digest_hex(result.fleet_digest));
  if (result.eligible) {
    json.key("energy_kwh").value(result.day.energy_kwh);
    json.key("served_gops").value(result.day.served_gops);
    json.key("avg_efficiency").value(result.day.avg_efficiency);
    json.key("idle_energy_kwh").value(result.day.idle_energy_kwh);
    json.key("wake_energy_kwh").value(result.day.wake_energy_kwh);
    json.key("wake_lost_gops").value(result.day.wake_lost_gops);
    json.key("wake_count")
        .value(static_cast<std::size_t>(result.day.wake_count));
  }
  json.end_object();
}

}  // namespace

Result<RunResult> run_experiment(const Spec& spec,
                                 const RunnerOptions& options) {
  if (auto valid = validate_spec(spec); !valid.ok()) return valid.error();
  if (options.chunk_rows == 0) {
    return Error::invalid_argument("chunk_rows must be positive");
  }

  RunResult result;
  result.spec = spec;

  // Axis materialisation up front (serially, cheap) so unknown names fail
  // before any cell runs — the matrix-layer discipline.
  std::vector<cluster::DemandTrace> traces;
  traces.reserve(spec.traces.size());
  for (const auto& name : spec.traces) {
    auto trace = cluster::make_trace(name);
    if (!trace.ok()) return trace.error();
    traces.push_back(std::move(trace).take());
  }
  std::vector<cluster::IdleModel> idles;
  idles.reserve(spec.idle_models.size());
  for (const auto& name : spec.idle_models) {
    auto idle = cluster::IdleModel::by_name(name);
    if (!idle.ok()) return idle.error();
    idles.push_back(std::move(idle).take());
  }

  const telemetry::Span run_span("exp/run", telemetry::Span::Scope::kRoot);

  // One fleet per unique (fleet_size, seed, gen_threads) coordinate — the
  // outer three expansion axes — built serially through the streamed
  // pipeline and shared read-only by every cell addressing it. Its digest
  // is computed here, once, and stamped into every cell below.
  std::vector<cluster::Fleet> fleets;
  for (const auto fleet_size : spec.fleet_sizes) {
    for (const auto seed : spec.seeds) {
      for (const auto threads : spec.gen_threads) {
        const telemetry::Span fleet_span("fleet");
        dataset::ScaledConfig config;
        config.seed = seed;
        config.servers = fleet_size;
        config.threads = threads;
        auto fleet = cluster::build_streamed_fleet(config, options.chunk_rows);
        if (!fleet.ok()) return fleet.error();
        result.fleets.push_back(
            {fleet_size, seed, threads, fleet.value().digest()});
        fleets.push_back(std::move(fleet).take());
      }
    }
  }
  telemetry::count("exp.fleets", fleets.size());

  // The cell sweep: cells share immutable fleets/traces/idles and write
  // only their own slot, so the sweep is byte-identical at any thread
  // count. Failures land in per-cell slots; the lowest index wins.
  const std::vector<Cell> cells = expand_cells(spec);
  const std::size_t n = cells.size();
  telemetry::count("exp.cells", n);
  // Cells expand with the per-fleet block innermost: idle x trace x policy.
  const std::size_t cells_per_fleet =
      spec.idle_models.size() * spec.traces.size() * spec.policies.size();
  std::vector<cluster::MatrixCell> days(n);
  std::vector<std::optional<Error>> errors(n);
  const auto pool = make_worker_pool(resolve_thread_count(options.threads));
  parallel_for(pool.get(), n, [&](std::size_t i) {
    const telemetry::Span cell_span("exp/cell",
                                    telemetry::Span::Scope::kRoot);
    const std::uint64_t cpu_start = thread_cpu_ns();
    const std::size_t in_fleet = i % cells_per_fleet;
    const std::size_t idle_index =
        in_fleet / (spec.traces.size() * spec.policies.size());
    const std::size_t trace_index =
        (in_fleet / spec.policies.size()) % spec.traces.size();
    auto day = cluster::run_policy_day(
        fleets[i / cells_per_fleet], cells[i].trace, traces[trace_index],
        cells[i].policy, idles[idle_index]);
    if (day.ok()) {
      days[i] = std::move(day).take();
    } else {
      errors[i] = day.error();
    }
    telemetry::timer_add("exp.cell.cpu", thread_cpu_ns() - cpu_start);
  });
  for (const auto& error : errors) {
    if (error) return *error;
  }

  // Verdicts: one winner per (fleet, idle, trace) group over the policy
  // axis, by the matrix's rule (cluster::pick_winner).
  const std::size_t policies = spec.policies.size();
  for (std::size_t g = 0; g < n / policies; ++g) {
    const Cell& first = cells[g * policies];
    const cluster::TraceVerdict winner = cluster::pick_winner(
        std::span<const cluster::MatrixCell>(days).subspan(g * policies,
                                                           policies));
    result.winners.push_back({first.fleet_size, first.seed, first.gen_threads,
                              first.idle, first.trace, winner.policy,
                              winner.avg_efficiency});
  }
  result.cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = i / cells_per_fleet;
    result.cells.push_back({cells[i], days[i].eligible, fleets[f].size(),
                            result.fleets[f].digest,
                            std::move(days[i].result)});
  }
  return result;
}

std::string render_result_json(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(std::string(kResultSchema));
  json.key("spec");
  write_spec(json, result.spec);
  json.key("fleets").begin_array();
  for (const auto& fleet : result.fleets) {
    json.begin_object();
    json.key("fleet_size").value(static_cast<std::size_t>(fleet.fleet_size));
    json.key("seed").value(static_cast<std::size_t>(fleet.seed));
    json.key("gen_threads").value(fleet.gen_threads);
    json.key("digest").value(digest_hex(fleet.digest));
    json.end_object();
  }
  json.end_array();
  json.key("cells").begin_array();
  for (const auto& cell : result.cells) write_cell(json, cell);
  json.end_array();
  json.key("winners").begin_array();
  for (const auto& verdict : result.winners) {
    json.begin_object();
    json.key("fleet_size").value(static_cast<std::size_t>(verdict.fleet_size));
    json.key("seed").value(static_cast<std::size_t>(verdict.seed));
    json.key("gen_threads").value(verdict.gen_threads);
    json.key("idle").value(verdict.idle);
    json.key("trace").value(verdict.trace);
    json.key("policy").value(verdict.policy);
    json.key("avg_efficiency").value(verdict.avg_efficiency);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace epserve::exp
