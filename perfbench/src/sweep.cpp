// sweep: exp::run_experiment on a 128-cell spec owned by the benchmark —
// fleet sizes {2 000, 10 000} x 4 policies x 4 traces (168-slot weekly
// included) x idle {none, acpi} x two seeds — on 4 runner threads. The
// cells keep every core busy through cell-level parallelism, so a change
// that parallelises inside one call should show no gain here, and
// oversubscription shows as a loss.
#include <optional>

#include "cluster/idle_model.h"
#include "cluster/trace.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "stats.h"
#include "util/telemetry.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kRunnerThreads = 4;
constexpr int kSetupsPerPass = 20;
constexpr int kMinPasses = 3;

std::string spec_json(std::uint64_t seed) {
  return format(
      "{\"schema\":\"epserve-exp-spec-v1\",\"name\":\"perfbench-sweep\","
      "\"description\":\"perfbench sweep workload\","
      "\"fleet_sizes\":[2000,10000],"
      "\"policies\":[\"pack-to-full\",\"balanced\",\"optimal-region\","
      "\"autoscaler\"],"
      "\"traces\":[\"diurnal\",\"flash_crowd\",\"weekly\",\"scale_out\"],"
      "\"idle_models\":[\"none\",\"acpi\"],"
      "\"seeds\":[%llu,%llu],\"gen_threads\":[0]}",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seed + 1));
}

// The sweep's inputs as run_experiment consumes them: the parsed and
// validated spec, its expanded cells, and the traces and idle models it
// names. Returns the spec, or the first error.
epserve::Result<epserve::exp::Spec> prepare(const std::string& text,
                                            std::size_t& cells) {
  auto spec = epserve::exp::spec_from_json(text);
  if (!spec.ok()) return spec.error();
  if (auto valid = epserve::exp::validate_spec(spec.value()); !valid.ok()) {
    return valid.error();
  }
  cells = epserve::exp::expand_cells(spec.value()).size();
  for (const auto& name : spec.value().traces) {
    if (auto trace = epserve::cluster::make_trace(name); !trace.ok()) {
      return trace.error();
    }
  }
  for (const auto& name : spec.value().idle_models) {
    if (auto idle = epserve::cluster::IdleModel::by_name(name); !idle.ok()) {
      return idle.error();
    }
  }
  return spec;
}

}  // namespace

Outcome run_sweep(const Options& options, Tracer& tracer) {
  namespace exp = epserve::exp;
  namespace telemetry = epserve::telemetry;
  Outcome out;
  // Spec seeds must survive the JSON number round trip exactly.
  const std::uint64_t seed = derive_seed(options.seed, 2) % 1'000'000'000;
  const std::string text = spec_json(seed);

  // --- Set-up: parse, validate and expand the spec; materialise inputs ----
  // Repeated before every pass, so the samples spread over the whole run.
  std::vector<double> setup_times;
  std::optional<exp::Spec> spec;
  std::size_t cells = 0;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const double start = now_s();
      auto prepared = [&] {
        const Span span(tracer, "exp.prepare");
        return prepare(text, cells);
      }();
      setup_times.push_back(now_s() - start);
      if (!prepared.ok()) {
        out.check(false, "sweep.setup: " + prepared.error().message);
        return false;
      }
      spec.emplace(std::move(prepared).take());
    }
    return true;
  };
  if (!set_up()) return out;
  out.check(cells == 128, format("sweep.setup: %zu cells, expected 128", cells));

  // --- Measured phase -------------------------------------------------------
  exp::RunnerOptions runner;
  runner.threads = kRunnerThreads;
  std::vector<double> pass_times;
  std::vector<double> untraced_pass_times;
  std::vector<double> render_ms;
  std::optional<std::uint64_t> first_hash;
  const double run_cpu0 = process_cpu_s();
  const double run_wall0 = now_s();
  for (int pass = 0;
       pass < kMinPasses || now_s() - run_wall0 < options.seconds; ++pass) {
    if (pass > 0 && !set_up()) break;
    const bool traced_pass = options.traced && pass % 2 == 0;
    tracer.set_enabled(traced_pass);
    telemetry::set_enabled(traced_pass);
    const double start = now_s();
    auto result = [&] {
      const Span span(tracer, "exp.run_experiment");
      return exp::run_experiment(*spec, runner);
    }();
    out.attempted += cells;
    if (!result.ok()) {
      out.failed += cells;
      out.check(false, "sweep.run_experiment: " + result.error().message);
      break;
    }
    const double render_start = now_s();
    std::string json;
    std::string markdown;
    {
      const Span span(tracer, "exp.render");
      json = exp::render_result_json(result.value());
      markdown = exp::render_sweep_markdown(result.value());
    }
    const double end = now_s();
    (options.traced && !traced_pass ? untraced_pass_times : pass_times)
        .push_back(end - start);
    if (traced_pass) render_ms.push_back((end - render_start) * 1e3);

    // Checks (untimed): the document parses back, re-renders to the same
    // bytes, and every pass produces the same document.
    auto parsed = exp::result_from_json(json);
    if (!parsed.ok()) {
      out.check(false, "sweep.result_from_json: " + parsed.error().message);
      break;
    }
    out.check(exp::render_result_json(parsed.value()) == json,
              "sweep.round_trip: render -> parse -> render changed bytes");
    out.check(parsed.value().cells.size() == cells,
              "sweep.cells: parsed document lost cells");
    const std::uint64_t hash = fnv1a(markdown, fnv1a(json));
    if (!first_hash) first_hash = hash;
    out.check(hash == *first_hash, "sweep.determinism: pass " +
                                       std::to_string(pass) +
                                       " rendered a different document");
    if (!out.check_failures.empty()) break;
  }
  const double run_cpu = process_cpu_s() - run_cpu0;
  const double run_wall = now_s() - run_wall0;
  tracer.set_enabled(options.traced);
  telemetry::set_enabled(options.traced);
  out.output_hash = hex64(first_hash.value_or(0));

  out.end_to_end["setup_s"] = median(setup_times);
  out.end_to_end["run_s"] = median(pass_times);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back("setup_s: " + describe(setup_times));
  out.notes.push_back("run_s passes: " + describe(pass_times));
  if (!options.traced) return out;

  // --- Per-layer metrics, from the library's own telemetry ------------------
  const auto snapshot = telemetry::snapshot();
  const auto span_ms = [&](std::string_view path) {
    const auto* span = snapshot.find_span(path);
    return span != nullptr && span->count > 0
               ? std::pair{span->total_ms, span->count}
               : std::pair{0.0, std::uint64_t{0}};
  };
  const auto mean_ms = [&](std::string_view path) {
    const auto [total, count] = span_ms(path);
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const auto [cell_total_ms, cell_count] = span_ms("exp/cell");
  const double run_ms = span_ms("exp/run").first;
  const double fleet_ms = span_ms("exp/run/fleet").first;
  out.per_layer["exp.cell_ms.mean"] = mean_ms("exp/cell");
  if (const auto* cpu = snapshot.find_timer("exp.cell.cpu");
      cpu != nullptr && cpu->count > 0) {
    out.per_layer["exp.cell_cpu_ms.mean"] =
        cpu->total_ms / static_cast<double>(cpu->count);
  }
  out.per_layer["exp.fleet_ms"] = mean_ms("exp/run/fleet");
  out.per_layer["exp.parallel_eff"] =
      run_ms > fleet_ms
          ? cell_total_ms / ((run_ms - fleet_ms) * kRunnerThreads)
          : 0.0;
  out.per_layer["exp.render_ms"] = median(render_ms);
  double day_ms = 0.0;
  for (const char* policy : {"pack-to-full", "balanced", "optimal-region"}) {
    const std::string path = std::string("cluster/policy/") + policy;
    out.per_layer[std::string("cluster.day_ms.") + policy] = mean_ms(path);
    day_ms += span_ms(path + "/simulate_day").first;
  }
  out.per_layer["cluster.autoscale_ms"] = mean_ms("cluster/policy/autoscaler");
  if (const auto* evals = snapshot.find_counter("cluster.evaluations");
      evals != nullptr && evals->value > 0) {
    out.per_layer["cluster.ns_per_eval"] =
        day_ms * 1e6 / static_cast<double>(evals->value);
  }
  if (const auto* wakes = snapshot.find_counter("cluster.day.wakes")) {
    out.per_layer["cluster.wakes"] = static_cast<double>(wakes->value);
  }
  if (const auto* wait = snapshot.find_timer("pool.queue_wait");
      wait != nullptr && wait->count > 0) {
    out.per_layer["util.pool.queue_wait_ms"] =
        wait->total_ms / static_cast<double>(wait->count);
  }
  out.per_layer["util.cpu_util.run"] = cpu_utilization(run_cpu, run_wall);
  out.per_layer["trace.overhead_s"] =
      median(pass_times) - median(untraced_pass_times);
  out.notes.push_back(format("traced cells %llu",
                             static_cast<unsigned long long>(cell_count)));
  return out;
}

}  // namespace perfbench
