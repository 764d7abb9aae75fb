#include "cluster/matrix.h"

#include <cmath>
#include <optional>
#include <string_view>
#include <utility>

#include "cluster/autoscaler.h"
#include "cluster/placement.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace epserve::cluster {
namespace {

constexpr std::string_view kAutoscalerPolicy = "autoscaler";

}  // namespace

const std::vector<std::string>& day_policies() {
  static const std::vector<std::string> policies = {
      "pack-to-full", "balanced", "optimal-region",
      std::string(kAutoscalerPolicy)};
  return policies;
}

Result<MatrixCell> run_policy_day(const Fleet& fleet,
                                  const std::string& trace_name,
                                  const DemandTrace& trace,
                                  const std::string& policy,
                                  const IdleModel& idle) {
  MatrixCell cell;
  cell.trace = trace_name;
  cell.policy = policy;
  cell.result.policy = policy;
  if (policy != kAutoscalerPolicy) {
    auto placement = make_placement_policy(policy);
    if (!placement.ok()) return placement.error();
    auto day = simulate_day(*placement.value(), fleet, trace, idle);
    if (!day.ok()) return day.error();
    cell.result = std::move(day).take();
    return cell;
  }
  if (trace.latency_critical()) {
    // Powering servers fully off violates the trace's idle-state cap.
    cell.eligible = false;
    return cell;
  }
  const AutoscalerConfig config;
  auto scaled = autoscale_over_day(fleet, trace, config);
  if (!scaled.ok()) return scaled.error();
  // The wake penalty (already inside energy_kwh) doubles as the wake-energy
  // line item.
  cell.result.energy_kwh = scaled.value().energy_kwh;
  cell.result.served_gops = scaled.value().served_gops;
  cell.result.avg_efficiency = scaled.value().avg_efficiency;
  double wakes = 0.0;
  for (const auto& slot : scaled.value().slots) wakes += slot.wakes;
  cell.result.wake_count = static_cast<std::uint64_t>(std::llround(wakes));
  cell.result.wake_energy_kwh = wakes * config.wake_penalty_wh / 1000.0;
  return cell;
}

TraceVerdict pick_winner(std::span<const MatrixCell> row) {
  TraceVerdict verdict;
  if (!row.empty()) verdict.trace = row.front().trace;
  for (const MatrixCell& cell : row) {
    if (!cell.eligible) continue;
    if (verdict.policy.empty() ||
        cell.result.avg_efficiency > verdict.avg_efficiency) {
      verdict.policy = cell.policy;
      verdict.avg_efficiency = cell.result.avg_efficiency;
    }
  }
  return verdict;
}

Result<PolicyTraceMatrix> run_policy_trace_matrix(const Fleet& fleet,
                                                  const MatrixOptions& options) {
  if (auto valid = options.idle.validate(); !valid.ok()) return valid.error();
  PolicyTraceMatrix matrix;
  matrix.servers = fleet.size();
  matrix.idle_model = options.idle_name;
  matrix.policies = day_policies();
  if (options.traces.empty()) {
    for (const auto& info : trace_catalog()) {
      matrix.traces.emplace_back(info.name);
    }
  } else {
    matrix.traces = options.traces;
  }
  // Traces are built up front (serially, cheap) so an unknown name fails
  // before any cell runs.
  std::vector<DemandTrace> traces;
  traces.reserve(matrix.traces.size());
  for (const auto& name : matrix.traces) {
    auto trace = make_trace(name);
    if (!trace.ok()) return trace.error();
    traces.push_back(std::move(trace).take());
  }
  const telemetry::Span span("cluster/matrix", telemetry::Span::Scope::kRoot);
  const std::size_t cols = matrix.policies.size();
  const std::size_t n = matrix.traces.size() * cols;
  telemetry::count("cluster.matrix.cells", n);
  matrix.cells.resize(n);
  std::vector<std::optional<Error>> errors(n);
  const auto pool =
      make_worker_pool(resolve_thread_count(options.threads));
  // Cells share the immutable Fleet and write only their own slot — the
  // util/parallel contract, so the matrix is byte-identical at any thread
  // count. Failures land in per-cell slots; the lowest failing index wins,
  // deterministically.
  parallel_for(pool.get(), n, [&](std::size_t i) {
    const std::size_t t = i / cols;
    const std::size_t p = i % cols;
    auto cell = run_policy_day(fleet, matrix.traces[t], traces[t],
                               matrix.policies[p], options.idle);
    if (cell.ok()) {
      matrix.cells[i] = std::move(cell).take();
    } else {
      errors[i] = cell.error();
    }
  });
  for (const auto& error : errors) {
    if (error) return *error;
  }
  for (std::size_t t = 0; t < matrix.traces.size(); ++t) {
    matrix.winners.push_back(pick_winner(
        std::span<const MatrixCell>(matrix.cells).subspan(t * cols, cols)));
  }
  return matrix;
}

std::string render_matrix_text(const PolicyTraceMatrix& matrix) {
  std::string out;
  out += std::to_string(matrix.servers) + " servers, " +
         std::to_string(matrix.traces.size()) + " traces x " +
         std::to_string(matrix.policies.size()) + " policies (idle model: " +
         matrix.idle_model + ")\n";
  const std::size_t cols = matrix.policies.size();
  for (std::size_t t = 0; t < matrix.traces.size(); ++t) {
    out += "\n== trace " + matrix.traces[t] + " ==\n";
    TextTable table;
    table.columns({"policy", "kWh", "served Gops", "ops/J", "wakes"});
    for (std::size_t p = 0; p < cols; ++p) {
      const MatrixCell& cell = matrix.cells[t * cols + p];
      if (!cell.eligible) {
        table.row({cell.policy, "-", "-", "-", "ineligible"});
        continue;
      }
      table.row({cell.policy, format_fixed(cell.result.energy_kwh, 2),
                 format_fixed(cell.result.served_gops, 1),
                 format_fixed(cell.result.avg_efficiency, 1),
                 std::to_string(cell.result.wake_count)});
    }
    out += table.render();
  }
  out += "\n== winner per trace ==\n";
  TextTable winners;
  winners.columns({"trace", "policy", "ops/J"});
  for (const auto& verdict : matrix.winners) {
    winners.row({verdict.trace, verdict.policy,
                 format_fixed(verdict.avg_efficiency, 1)});
  }
  out += winners.render();
  return out;
}

std::string render_matrix_json(const PolicyTraceMatrix& matrix) {
  JsonWriter json;
  json.begin_object();
  json.key("servers").value(matrix.servers);
  json.key("idle_model").value(matrix.idle_model);
  json.key("policies").begin_array();
  for (const auto& policy : matrix.policies) json.value(policy);
  json.end_array();
  json.key("traces").begin_array();
  const std::size_t cols = matrix.policies.size();
  for (std::size_t t = 0; t < matrix.traces.size(); ++t) {
    json.begin_object();
    json.key("trace").value(matrix.traces[t]);
    json.key("cells").begin_array();
    for (std::size_t p = 0; p < cols; ++p) {
      const MatrixCell& cell = matrix.cells[t * cols + p];
      json.begin_object();
      json.key("policy").value(cell.policy);
      json.key("eligible").value(cell.eligible);
      if (cell.eligible) {
        json.key("energy_kwh").value(cell.result.energy_kwh);
        json.key("served_gops").value(cell.result.served_gops);
        json.key("avg_efficiency").value(cell.result.avg_efficiency);
        json.key("idle_energy_kwh").value(cell.result.idle_energy_kwh);
        json.key("wake_energy_kwh").value(cell.result.wake_energy_kwh);
        json.key("wake_lost_gops").value(cell.result.wake_lost_gops);
        json.key("wake_count")
            .value(static_cast<std::size_t>(cell.result.wake_count));
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("winners").begin_array();
  for (const auto& verdict : matrix.winners) {
    json.begin_object();
    json.key("trace").value(verdict.trace);
    json.key("policy").value(verdict.policy);
    json.key("avg_efficiency").value(verdict.avg_efficiency);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace epserve::cluster
