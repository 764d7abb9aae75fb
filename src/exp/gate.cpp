#include "exp/gate.h"

#include <stdio.h>   // popen/pclose — POSIX
#include <unistd.h>  // access(X_OK)

#include <array>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <utility>

#include "exp/report.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace epserve::exp {
namespace {

constexpr std::string_view kBaselineSchema = "epserve-bench-baseline-v1";
constexpr std::string_view kMetricsPrefix = "BENCH_JSON ";

struct BenchRun {
  std::string name;
  int exit_code = 0;
  double seconds = 0.0;
  JsonValue metrics;
};

/// Runs one bench binary with stderr folded into stdout, capturing the
/// combined output. Returns the shell-style exit code.
Result<int> run_bench(const std::string& binary, std::string& output) {
  const std::string command = "'" + binary + "' 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return Error::io("popen failed for " + binary);
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  if (status < 0) return Error::io("pclose failed for " + binary);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128;  // killed by signal — any non-zero fails the suite
}

/// Last `BENCH_JSON {...}` line of the bench output, parsed; "{}" when the
/// bench printed none (micro benches without key numbers).
JsonValue harvest_metrics(std::string_view output) {
  std::string_view metrics;
  std::size_t pos = 0;
  while (pos <= output.size()) {
    const std::size_t eol = output.find('\n', pos);
    const std::string_view line =
        output.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    if (line.size() > kMetricsPrefix.size() &&
        line.substr(0, kMetricsPrefix.size()) == kMetricsPrefix) {
      metrics = line.substr(kMetricsPrefix.size());
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  if (!metrics.empty()) {
    auto parsed = parse_json(metrics);
    if (parsed.ok()) return std::move(parsed).take();
  }
  return JsonValue::make_object({});
}

std::string render_baseline(std::span<const BenchRun> runs) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(std::string(kBaselineSchema));
  json.key("benches").begin_array();
  for (const auto& run : runs) {
    json.begin_object();
    json.key("name").value(run.name);
    json.key("exit").value(run.exit_code);
    // Milliseconds are plenty; matches the shell harness's %.3f timing.
    json.key("seconds").value(std::round(run.seconds * 1000.0) / 1000.0);
    json.key("metrics");
    write_json_value(json, run.metrics);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

Result<bool> write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Error::io("cannot write " + path);
  file << text << '\n';
  if (!file.good()) return Error::io("cannot write " + path);
  return true;
}

std::string today_yyyymmdd() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  localtime_r(&now, &parts);
  char buf[9];
  std::strftime(buf, sizeof(buf), "%Y%m%d", &parts);
  return buf;
}

}  // namespace

Gate::Gate(std::string bench) : bench_(std::move(bench)) {}

bool Gate::floor(std::string_view check, double measured, double floor_value) {
  return record(check, measured >= floor_value,
                "measured " + format_fixed(measured, 2) + ", floor " +
                    format_fixed(floor_value, 2));
}

bool Gate::ceiling(std::string_view check, double measured,
                   double ceiling_value) {
  return record(check, measured <= ceiling_value,
                "measured " + format_fixed(measured, 2) + ", ceiling " +
                    format_fixed(ceiling_value, 2));
}

bool Gate::bytes_equal(std::string_view check, std::string_view a,
                       std::string_view b) {
  const bool same = a == b;
  return record(check, same,
                same ? "byte-identical (" + std::to_string(a.size()) +
                           " bytes)"
                     : "outputs differ (" + std::to_string(a.size()) +
                           " vs " + std::to_string(b.size()) + " bytes)");
}

bool Gate::require(std::string_view check, bool ok, std::string_view detail) {
  return record(check, ok, std::string(detail));
}

bool Gate::passed() const {
  for (const auto& check : checks_) {
    if (!check.passed) return false;
  }
  return true;
}

int Gate::finish() const {
  TextTable table;
  table.columns({"gate", "status", "detail"},
                {Align::kLeft, Align::kLeft, Align::kLeft});
  std::size_t failed = 0;
  for (const auto& check : checks_) {
    if (!check.passed) failed += 1;
    table.row({check.name, check.passed ? "pass" : "FAIL", check.detail});
  }
  std::fputs(section_banner("gates: " + bench_).c_str(), stdout);
  std::fputs(table.render().c_str(), stdout);
  std::printf("gates: %zu passed, %zu failed\n", checks_.size() - failed,
              failed);
  return failed == 0 ? 0 : 1;
}

bool Gate::record(std::string_view check, bool ok, std::string detail) {
  if (ok) {
    telemetry::count("exp.gates_passed", 1);
  } else {
    telemetry::count("exp.gates_failed", 1);
    std::fprintf(stderr, "FAIL: %s: %.*s: %s\n", bench_.c_str(),
                 static_cast<int>(check.size()), check.data(),
                 detail.c_str());
  }
  GateCheck entry;
  entry.name = std::string(check);
  entry.passed = ok;
  entry.detail = std::move(detail);
  checks_.push_back(std::move(entry));
  return ok;
}

std::span<const std::string_view> gating_benches() {
  static constexpr std::string_view kBenches[] = {
      "bench_report_cache",  "bench_telemetry_overhead",
      "bench_fleet_day",     "bench_policy_matrix",
      "bench_serve_qps",     "bench_population_scale",
  };
  return kBenches;
}

std::string dated_snapshot_path(std::string_view out,
                                std::string_view yyyymmdd) {
  const std::size_t slash = out.find_last_of('/');
  std::string prefix =
      slash == std::string_view::npos ? "" : std::string(out.substr(0, slash + 1));
  return prefix + "BENCH_" + std::string(yyyymmdd) + ".json";
}

Result<int> run_gate_suite(const GateSuiteOptions& options) {
  std::vector<BenchRun> runs;
  int status = 0;
  for (const auto bench : gating_benches()) {
    const std::string binary =
        options.build_dir + "/bench/" + std::string(bench);
    if (access(binary.c_str(), X_OK) != 0) {
      return Error::not_found("missing bench binary: " + binary +
                              " (build the " + std::string(bench) +
                              " target first)");
    }
    std::printf("== %s ==\n", std::string(bench).c_str());
    std::fflush(stdout);
    std::string output;
    const auto start = std::chrono::steady_clock::now();
    auto exit_code = run_bench(binary, output);
    const auto end = std::chrono::steady_clock::now();
    if (!exit_code.ok()) return exit_code.error();
    std::fwrite(output.data(), 1, output.size(), stdout);
    if (!output.empty() && output.back() != '\n') std::printf("\n");

    BenchRun run;
    run.name = std::string(bench);
    run.exit_code = exit_code.value();
    run.seconds = std::chrono::duration<double>(end - start).count();
    run.metrics = harvest_metrics(output);
    if (run.exit_code != 0) {
      std::fprintf(stderr, "FAIL: %s exited %d\n", std::string(bench).c_str(),
                   run.exit_code);
      status = 1;
    }
    runs.push_back(std::move(run));
  }

  const std::string document = render_baseline(runs);
  if (auto wrote = write_file(options.out, document); !wrote.ok()) {
    return wrote.error();
  }
  const std::string dated = dated_snapshot_path(options.out, today_yyyymmdd());
  if (auto wrote = write_file(dated, document); !wrote.ok()) {
    return wrote.error();
  }
  std::printf("baseline written to %s (snapshot: %s)\n", options.out.c_str(),
              dated.c_str());
  return status;
}

}  // namespace epserve::exp
