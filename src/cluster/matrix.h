// Policy x trace matrix: every placement policy (plus the ensemble
// autoscaler) over every registered trace, off one shared Fleet — the
// ROADMAP item 3 "which policy wins per trace class" run, surfaced as
// `epserve_cli day --matrix`.
//
// day_policies(), run_policy_day() and pick_winner() are shared by
// `epserve_cli day`, the matrix and exp::run_experiment, so the three
// cannot disagree about a cell.
//
// Cells are independent (shared immutable Fleet, per-cell output slot), so
// the run parallelizes over the pool via util/parallel with the standard
// determinism contract: byte-identical at any thread count, including the
// serial path.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/idle_model.h"
#include "cluster/trace.h"
#include "util/result.h"

namespace epserve::cluster {

/// The policy columns, in tie-break order: the three make_placement_policy
/// names, then "autoscaler" (the ensemble autoscaler).
const std::vector<std::string>& day_policies();

/// One (trace, policy) evaluation.
struct MatrixCell {
  std::string trace;
  std::string policy;
  DayResult result;
  /// False when the combination is invalid (the autoscaler powers servers
  /// fully off, which a latency-critical trace forbids); `result` is empty.
  bool eligible = true;
};

/// The winning policy for one trace (highest ops/J among eligible cells;
/// ties break toward the earlier policy in `policies`).
struct TraceVerdict {
  std::string trace;
  std::string policy;
  double avg_efficiency = 0.0;
};

/// Runs one (trace, policy) cell: make_placement_policy -> simulate_day
/// under `idle`, or autoscale_over_day (default AutoscalerConfig) for
/// "autoscaler" — ineligible on a latency-critical trace, since it powers
/// servers fully off (`result` then holds only the policy name). Fails on
/// an unknown policy name or a failing day.
epserve::Result<MatrixCell> run_policy_day(const Fleet& fleet,
                                           const std::string& trace_name,
                                           const DemandTrace& trace,
                                           const std::string& policy,
                                           const IdleModel& idle);

/// The TraceVerdict rule over one trace's cells in policy order; a row with
/// no eligible cell yields an empty policy at 0 ops/J.
TraceVerdict pick_winner(std::span<const MatrixCell> row);

struct PolicyTraceMatrix {
  std::vector<std::string> traces;    // row order
  std::vector<std::string> policies;  // column order
  /// Trace-major: cells[t * policies.size() + p].
  std::vector<MatrixCell> cells;
  std::vector<TraceVerdict> winners;  // one per trace
  std::size_t servers = 0;
  std::string idle_model;             // "none" / "acpi"
};

struct MatrixOptions {
  /// Traces to run (registry names); empty = the full catalog.
  std::vector<std::string> traces;
  /// Idle-state model charged against parked servers. Defaults to the ACPI
  /// ladder — the matrix exists to expose idle-state trade-offs; pass
  /// IdleModel::none() for legacy accounting.
  IdleModel idle = IdleModel::acpi();
  std::string idle_name = "acpi";  // label for renderers
  /// Worker threads (util/parallel semantics: 0 = auto via EPSERVE_THREADS
  /// or hardware concurrency). Output is byte-identical at any value.
  int threads = 0;
};

/// Runs all policies over all requested traces against one shared Fleet,
/// parallelized over (trace, policy) cells; emits a `cluster/matrix` root
/// telemetry span and a `cluster.matrix.cells` counter. Fails on an unknown
/// trace name or the first failing cell (lowest cell index,
/// deterministically).
epserve::Result<PolicyTraceMatrix> run_policy_trace_matrix(
    const Fleet& fleet, const MatrixOptions& options = {});

/// Text report: one table per trace (kWh, served Gops, ops/J, wakes) plus a
/// winner-per-trace summary table.
std::string render_matrix_text(const PolicyTraceMatrix& matrix);

/// Machine-readable report: the same cells and verdicts as one JSON
/// document.
std::string render_matrix_json(const PolicyTraceMatrix& matrix);

}  // namespace epserve::cluster
