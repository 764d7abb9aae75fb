// perfbench: the repository's one repeatable benchmark.
//
//   epbench --workload <day_scale|sweep|study|serve_mixed> --seed <n>
//           --seconds <s> --trace <0|1> [--root <dir>] [--trace-dir <dir>]
//
// Runs one workload against the library's public entry points, checks its
// outputs, and prints human-readable lines followed by one JSON result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Metric names and units come from <root>/BENCHMARK.json: the end_to_end
// metrics with --trace 0, the per_layer metrics with --trace 1. A traced run
// also writes its spans as Chrome trace-event JSON into --trace-dir.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/json_parser.h"
#include "util/telemetry.h"
#include "workload.h"

namespace {

using namespace perfbench;

struct MetricDef {
  std::string name;
  std::string unit;
};

struct BenchmarkFile {
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: epbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--root <dir>] [--trace-dir <dir>]\n",
               message);
  return 2;
}

epserve::Result<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return epserve::Error::io("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

epserve::Result<BenchmarkFile> load_benchmark(const std::filesystem::path& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto doc = epserve::parse_json(text.value());
  if (!doc.ok()) return doc.error();
  BenchmarkFile out;
  const auto metrics = [&](const char* key, std::vector<MetricDef>& into)
      -> epserve::Result<bool> {
    const auto* list = doc.value().find(key);
    if (list == nullptr || !list->is_array()) {
      return epserve::Error::parse(std::string("BENCHMARK.json lacks ") + key);
    }
    for (const auto& item : list->items()) {
      auto name = item.string_member("name");
      auto unit = item.string_member("unit");
      if (!name.ok() || !unit.ok()) {
        return epserve::Error::parse(std::string("bad metric in ") + key);
      }
      into.push_back({name.value(), unit.value()});
    }
    return true;
  };
  if (auto ok = metrics("end_to_end", out.end_to_end); !ok.ok()) {
    return ok.error();
  }
  if (auto ok = metrics("per_layer", out.per_layer); !ok.ok()) {
    return ok.error();
  }
  if (const auto* list = doc.value().find("workloads");
      list != nullptr && list->is_array()) {
    for (const auto& item : list->items()) {
      if (auto name = item.string_member("name"); name.ok()) {
        out.workloads.push_back(name.value());
      }
    }
  }
  return out;
}

// The output hash recorded for (workload, seed) in expected.json, if any;
// an error when the file itself cannot be read, so a broken table fails the
// run instead of silently skipping the check.
epserve::Result<std::optional<std::string>> expected_hash(
    const std::filesystem::path& path, const std::string& workload,
    std::uint64_t seed) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto doc = epserve::parse_json(text.value());
  if (!doc.ok()) return doc.error();
  const auto* table = doc.value().find(workload);
  if (table == nullptr || !table->is_object()) return std::optional<std::string>();
  auto hash = table->string_member(std::to_string(seed));
  if (!hash.ok()) return std::optional<std::string>();
  return std::optional<std::string>(hash.value());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  std::filesystem::path root = ".";
  std::filesystem::path trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
      if (!have_seed) return usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
      if (!have_seconds) return usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.traced = value == "1";
      have_trace = true;
    } else if (flag == "--root") {
      root = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  auto benchmark = load_benchmark(root / "BENCHMARK.json");
  if (!benchmark.ok()) return usage(benchmark.error().message.c_str());
  const auto& names = benchmark.value().workloads;
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage(("unknown workload " + workload).c_str());
  }

  Tracer tracer(options.traced);
  epserve::telemetry::set_enabled(options.traced);
  Outcome out;
  if (workload == "day_scale") {
    out = run_day_scale(options, tracer);
  } else if (workload == "sweep") {
    out = run_sweep(options, tracer);
  } else if (workload == "study") {
    out = run_study(options, tracer);
  } else if (workload == "serve_mixed") {
    out = run_serve_mixed(options, tracer);
  } else {
    return usage(("workload " + workload + " has no implementation").c_str());
  }
  epserve::telemetry::set_enabled(false);

  // Output hash against the value recorded for this seed.
  if (!out.output_hash.empty()) {
    auto recorded = expected_hash(root / "perfbench" / "expected.json",
                                  workload, options.seed);
    out.check(recorded.ok(), "perfbench.expected: " +
                                 (recorded.ok() ? std::string()
                                                : recorded.error().message));
    const std::optional<std::string> expected =
        recorded.ok() ? recorded.value() : std::nullopt;
    if (expected) {
      out.check(*expected == out.output_hash,
                workload + ".output_hash: " + out.output_hash +
                    " differs from the recorded " + *expected);
    }
    std::printf("output_hash %s (%s)\n", out.output_hash.c_str(),
                !expected ? "no value recorded for this seed; invariants only"
                : *expected == out.output_hash ? "matches the recorded value"
                                               : "MISMATCH");
  }
  for (const auto& note : out.notes) std::printf("%s\n", note.c_str());

  // The metric set this run reports, in BENCHMARK.json order.
  const auto& defs = options.traced ? benchmark.value().per_layer
                                    : benchmark.value().end_to_end;
  const auto& measured = options.traced ? out.per_layer : out.end_to_end;
  for (const auto& [name, value] : measured) {
    const bool declared =
        std::any_of(defs.begin(), defs.end(),
                    [&](const MetricDef& def) { return def.name == name; });
    out.check(declared, "perfbench.metrics: " + name +
                            " is measured but not declared in BENCHMARK.json");
  }
  std::string metrics_json;
  for (const auto& def : defs) {
    const auto found = measured.find(def.name);
    double value = found != measured.end() ? found->second : 0.0;
    if (!options.traced) {
      out.check(found != measured.end() && value > 0.0,
                "perfbench.metrics: " + def.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      out.check(false, "perfbench.metrics: " + def.name + " is not finite");
      value = 0.0;
    }
    std::printf("%-36s = %.6g %s\n", def.name.c_str(), value, def.unit.c_str());
    metrics_json += format("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                           metrics_json.empty() ? "" : ",", def.name.c_str(),
                           value, def.unit.c_str());
  }
  std::printf("error_rate = %.6g fraction (%llu failed of %llu attempted)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  if (options.traced) {
    const auto spans = tracer.spans();
    std::error_code error;
    std::filesystem::create_directories(trace_dir, error);
    const auto path =
        trace_dir / (workload + "-seed" + std::to_string(options.seed) + ".json");
    std::ofstream(path) << chrome_trace_json(spans);
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                path.string().c_str());
    for (const auto& [name, self] : self_times(spans)) {
      std::printf("  span %-40s n=%-7llu total=%10.3f ms self=%10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(self.count),
                  self.total_ms, self.self_ms);
    }
  }

  if (out.attempted == 0) out.check(false, "perfbench: no operation attempted");
  constexpr std::size_t kShownFailures = 20;
  for (std::size_t i = 0;
       i < std::min(out.check_failures.size(), kShownFailures); ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", out.check_failures[i].c_str());
  }
  if (out.check_failures.size() > kShownFailures) {
    std::fprintf(stderr, "CHECK FAILED: ... and %zu more\n",
                 out.check_failures.size() - kShownFailures);
  }
  const bool correct = out.check_failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
