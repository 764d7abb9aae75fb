// study: the paper's own analysis path over many populations. Each of K
// seeds runs generate_population (477 servers), build_full_report, and both
// renderers — what `epserve_cli report` does once. No other workload
// touches analysis, stats, or the columnar group index at paper scale.
#include <optional>
#include <set>

#include "analysis/pass.h"
#include "analysis/report.h"
#include "analysis/report_json.h"
#include "dataset/generator.h"
#include "dataset/repository.h"
#include "stats.h"
#include "util/json_parser.h"
#include "util/telemetry.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::size_t kSeedsPerPass = 500;
// Each seed's pipeline runs serially, as generate_ensemble runs its members.
// With the library default every call forks onto a fresh pool and waits for
// its slowest thread, 1 000 times a pass, so one busy CPU anywhere on a
// shared machine stretched the whole pass: passes measured 0.7-2.5 s from
// run to run on the same code.
constexpr int kThreadsPerSeed = 1;
constexpr int kSetupsPerPass = 2;
constexpr int kMinPasses = 3;

std::set<std::string> object_keys(std::string_view json) {
  std::set<std::string> keys;
  auto parsed = epserve::parse_json(json);
  if (!parsed.ok() || !parsed.value().is_object()) return keys;
  for (const auto& [key, value] : parsed.value().members()) keys.insert(key);
  return keys;
}

// Every registered pass must contribute its top-level keys to the full
// document; returns the first pass that did not, or an empty string.
std::string missing_pass(const epserve::analysis::FullReport& report,
                         const std::string& json) {
  const std::set<std::string> keys = object_keys(json);
  if (keys.empty()) return "(document does not parse)";
  for (const auto* pass : epserve::analysis::all_passes()) {
    const std::string alone =
        epserve::analysis::render_passes_json(report, {pass});
    for (const auto& key : object_keys(alone)) {
      if (!keys.contains(key)) return std::string(pass->name());
    }
  }
  return {};
}

}  // namespace

Outcome run_study(const Options& options, Tracer& tracer) {
  namespace analysis = epserve::analysis;
  namespace dataset = epserve::dataset;
  namespace telemetry = epserve::telemetry;
  Outcome out;
  std::vector<std::uint64_t> seeds(kSeedsPerPass);

  // --- Set-up: the seed list and the first population's repository --------
  // Repeated before every pass, so the samples spread over the whole run.
  std::vector<double> setup_times;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const double start = now_s();
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        seeds[k] = derive_seed(options.seed, 1000 + k);
      }
      dataset::GeneratorConfig config;
      config.seed = seeds[0];
      config.threads = kThreadsPerSeed;
      auto population = [&] {
        const Span span(tracer, "dataset.generate_population");
        return dataset::generate_population(config);
      }();
      if (!population.ok()) {
        out.check(false, "study.setup: " + population.error().message);
        return false;
      }
      const dataset::ResultRepository repo(std::move(population).take());
      setup_times.push_back(now_s() - start);
      out.check(repo.size() == 477,
                "study.setup: population is not 477 servers");
    }
    return true;
  };
  if (!set_up()) return out;

  // --- Measured phase: passes over all K seeds -----------------------------
  std::vector<double> pass_times;
  std::vector<double> untraced_pass_times;
  std::vector<double> population_ms;
  std::vector<double> report_ms;
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
    double pass_s = 0.0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint64_t seed : seeds) {
      const Span seed_span(tracer, "study.seed");
      out.attempted += 1;
      const double t0 = now_s();
      dataset::GeneratorConfig config;
      config.seed = seed;
      config.threads = kThreadsPerSeed;
      auto population = [&] {
        const Span span(tracer, "dataset.generate_population");
        return dataset::generate_population(config);
      }();
      const double t1 = now_s();
      if (!population.ok()) {
        pass_s += t1 - t0;
        out.failed += 1;
        out.check(false, "study.generate: " + population.error().message);
        continue;
      }
      const dataset::ResultRepository repo(std::move(population).take());
      const analysis::FullReport report = [&] {
        const Span span(tracer, "analysis.build_full_report");
        return analysis::build_full_report(repo, kThreadsPerSeed);
      }();
      const double t2 = now_s();
      std::string text;
      std::string json;
      {
        const Span span(tracer, "analysis.render");
        text = analysis::render_report(report);
        json = analysis::render_report_json(report);
      }
      const double t3 = now_s();
      pass_s += t3 - t0;
      if (traced_pass) {
        population_ms.push_back((t1 - t0) * 1e3);
        report_ms.push_back((t2 - t1) * 1e3);
        render_ms.push_back((t3 - t2) * 1e3);
      }
      hash = fnv1a(json, fnv1a(text, hash));
      // Checks (untimed, first pass): the JSON parses and carries every
      // registered pass; later passes are held to the first pass's bytes.
      if (pass == 0) {
        const std::string missing = missing_pass(report, json);
        out.check(missing.empty(), "study.report_json: seed " +
                                       std::to_string(seed) +
                                       " lacks pass " + missing);
      }
    }
    (options.traced && !traced_pass ? untraced_pass_times : pass_times)
        .push_back(pass_s);
    if (!first_hash) first_hash = hash;
    out.check(hash == *first_hash, "study.determinism: pass " +
                                       std::to_string(pass) +
                                       " rendered different reports");
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

  // --- Per-layer metrics ----------------------------------------------------
  const auto snapshot = telemetry::snapshot();
  out.per_layer["dataset.population_ms"] = median(population_ms);
  out.per_layer["analysis.report_ms"] = median(report_ms);
  out.per_layer["analysis.render_ms"] = median(render_ms);
  for (const auto& name : analysis::pass_names()) {
    if (const auto* span = snapshot.find_span("report/pass/" + name);
        span != nullptr && span->count > 0) {
      out.per_layer["analysis.pass_ms." + name] =
          span->total_ms / static_cast<double>(span->count);
    }
  }
  const auto* records = snapshot.find_counter("generate.records");
  const auto* retries = snapshot.find_counter("generate.jitter_retries");
  if (records != nullptr && retries != nullptr && records->value > 0) {
    out.per_layer["dataset.jitter_retry_ratio"] =
        static_cast<double>(retries->value) /
        static_cast<double>(records->value);
  }
  out.per_layer["util.cpu_util.run"] = cpu_utilization(run_cpu, run_wall);
  out.per_layer["trace.overhead_s"] =
      median(pass_times) - median(untraced_pass_times);
  return out;
}

}  // namespace perfbench
