// day_scale: one large streamed fleet on the day-simulation paths.
//
// Set-up streams a 500 000-server scaled population in 65 536-row chunks
// into cluster::Fleet::Builder (generation plus assembly, repeated and
// timed). The measured phase repeats one "day pass": the three placement
// policies through simulate_day plus autoscale_over_day, all over the
// diurnal trace with IdleModel::none(). exp and serve are not used.
#include <cmath>
#include <optional>

#include "cluster/autoscaler.h"
#include "cluster/day_simulation.h"
#include "cluster/fleet.h"
#include "cluster/placement.h"
#include "cluster/trace.h"
#include "dataset/generator.h"
#include "metrics/simd/kernels.h"
#include "stats.h"
#include "util/telemetry.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kServers = 500'000;
constexpr std::size_t kChunkRows = 65'536;
constexpr int kSetups = 3;
constexpr int kMinPasses = 3;
constexpr const char* kPolicies[] = {"pack-to-full", "balanced",
                                     "optimal-region"};

std::uint64_t counter(const epserve::telemetry::Snapshot& snapshot,
                      std::string_view name) {
  const auto* found = snapshot.find_counter(name);
  return found != nullptr ? found->value : 0;
}

std::string render_day(const std::string& name, double energy_kwh,
                       double served_gops, double efficiency) {
  return format("%s %.17g %.17g %.17g\n", name.c_str(), energy_kwh,
                served_gops, efficiency);
}

// Streams the population into a Builder. The sink's fleet.append spans nest
// inside dataset.generate, so the generator's self time excludes assembly.
epserve::Result<epserve::cluster::Fleet> build_fleet(std::uint64_t seed,
                                                     Tracer& tracer) {
  epserve::dataset::ScaledConfig config;
  config.seed = seed;
  config.servers = kServers;
  epserve::cluster::Fleet::Builder builder;
  std::optional<epserve::Error> append_error;
  {
    const Span generate(tracer, "dataset.generate");
    auto emitted = epserve::dataset::generate_population_chunked(
        config, kChunkRows,
        [&](std::span<const epserve::dataset::ServerRecord> rows,
            std::uint64_t) {
          const Span append(tracer, "fleet.append");
          if (append_error) return;
          if (auto appended = builder.append(rows); !appended.ok()) {
            append_error = appended.error();
          }
        });
    if (!emitted.ok()) return emitted.error();
  }
  if (append_error) return *append_error;
  const Span finish(tracer, "fleet.finish");
  return builder.finish();
}

}  // namespace

Outcome run_day_scale(const Options& options, Tracer& tracer) {
  namespace cluster = epserve::cluster;
  namespace telemetry = epserve::telemetry;
  Outcome out;
  const std::uint64_t population_seed = derive_seed(options.seed, 1);

  // --- Set-up: generation plus Fleet assembly, kSetups times -------------
  std::vector<double> setup_times;
  std::optional<cluster::Fleet> fleet;
  const double setup_cpu0 = process_cpu_s();
  const double setup_wall0 = now_s();
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();  // one fleet alive at a time bounds peak memory
    const double start = now_s();
    auto built = build_fleet(population_seed, tracer);
    setup_times.push_back(now_s() - start);
    if (!built.ok()) {
      out.check(false, "day_scale.setup: " + built.error().message);
      return out;
    }
    fleet.emplace(std::move(built).take());
  }
  const double setup_cpu = process_cpu_s() - setup_cpu0;
  const double setup_wall = now_s() - setup_wall0;
  out.check(fleet->size() == kServers, "day_scale.setup: fleet size");

  auto trace = cluster::make_trace("diurnal");
  if (!trace.ok()) {
    out.check(false, "day_scale.trace: " + trace.error().message);
    return out;
  }
  std::vector<std::unique_ptr<cluster::PlacementPolicy>> policies;
  for (const char* name : kPolicies) {
    policies.push_back(cluster::make_placement_policy(name).take());
  }

  // --- Measured phase: day passes until the time budget is spent ----------
  // A traced run alternates traced and untraced passes; the difference of
  // their medians is the tracing overhead.
  std::vector<double> pass_times;
  std::vector<double> untraced_pass_times;
  std::map<std::string, std::vector<double>> call_ms;
  double day_ns = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t wakes = 0;
  std::optional<std::uint64_t> first_hash;
  const double run_cpu0 = process_cpu_s();
  const double run_wall0 = now_s();
  for (int pass = 0;
       pass < kMinPasses || now_s() - run_wall0 < options.seconds; ++pass) {
    const bool traced_pass = options.traced && pass % 2 == 0;
    tracer.set_enabled(traced_pass);
    telemetry::set_enabled(traced_pass);
    std::string rendered;
    std::vector<double> gops;
    double pass_s = 0.0;
    for (const auto& policy : policies) {
      const auto before = traced_pass ? telemetry::snapshot()
                                      : telemetry::Snapshot{};
      const double start = now_s();
      epserve::Result<cluster::DayResult> day = [&] {
        const Span span(tracer, "cluster.simulate_day." + policy->name());
        return cluster::simulate_day(*policy, *fleet, trace.value());
      }();
      const double elapsed = now_s() - start;
      pass_s += elapsed;
      out.attempted += 1;
      if (!day.ok()) {
        out.failed += 1;
        out.check(false, "day_scale.simulate_day: " + day.error().message);
        continue;
      }
      if (traced_pass) {
        const auto after = telemetry::snapshot();
        call_ms["cluster.day_ms." + policy->name()].push_back(elapsed * 1e3);
        day_ns += elapsed * 1e9;
        evaluations += counter(after, "cluster.evaluations") -
                       counter(before, "cluster.evaluations");
        wakes += counter(after, "cluster.day.wakes") -
                 counter(before, "cluster.day.wakes");
      }
      rendered += render_day(day.value().policy, day.value().energy_kwh,
                             day.value().served_gops,
                             day.value().avg_efficiency);
      gops.push_back(day.value().served_gops);
    }
    const double start = now_s();
    auto scaled = [&] {
      const Span span(tracer, "cluster.autoscale_over_day");
      return cluster::autoscale_over_day(*fleet, trace.value());
    }();
    const double elapsed = now_s() - start;
    pass_s += elapsed;
    out.attempted += 1;
    if (!scaled.ok()) {
      out.failed += 1;
      out.check(false, "day_scale.autoscale: " + scaled.error().message);
    } else {
      if (traced_pass) call_ms["cluster.autoscale_ms"].push_back(elapsed * 1e3);
      rendered += render_day("autoscaler", scaled.value().energy_kwh,
                             scaled.value().served_gops,
                             scaled.value().avg_efficiency);
      gops.push_back(scaled.value().served_gops);
    }
    (options.traced && !traced_pass ? untraced_pass_times : pass_times)
        .push_back(pass_s);

    // Checks (untimed): every policy serves the same work, and every pass
    // renders the same bytes.
    for (const double g : gops) {
      out.check(std::abs(g - gops.front()) <= 1e-9 * std::abs(gops.front()),
                format("day_scale.served_gops: %.17g differs from %.17g", g,
                       gops.front()));
    }
    const std::uint64_t hash = fnv1a(rendered);
    if (!first_hash) first_hash = hash;
    out.check(hash == *first_hash, "day_scale.determinism: pass " +
                                       std::to_string(pass) +
                                       " rendered different DayResults");
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
  const auto self = self_times(tracer.spans());
  const auto at = [&](const std::string& name) {
    const auto found = self.find(name);
    return found != self.end() ? found->second : SelfTime{};
  };
  const double generate_s = at("dataset.generate").self_ms / 1e3 / kSetups;
  const double records = static_cast<double>(
      counter(snapshot, "generate.scaled_records"));
  out.per_layer["dataset.generate_s"] = generate_s;
  out.per_layer["dataset.rows_per_s"] =
      generate_s > 0.0 ? static_cast<double>(kServers) / generate_s : 0.0;
  out.per_layer["dataset.jitter_retry_ratio"] =
      records > 0.0 ? static_cast<double>(counter(
                          snapshot, "generate.jitter_retries")) / records
                    : 0.0;
  out.per_layer["fleet.append_s"] = at("fleet.append").total_ms / 1e3 / kSetups;
  out.per_layer["fleet.finish_ms"] = at("fleet.finish").total_ms / kSetups;
  for (const auto& [name, values] : call_ms) {
    out.per_layer[name] = median(values);
  }
  out.per_layer["cluster.ns_per_eval"] =
      evaluations > 0 ? day_ns / static_cast<double>(evaluations) : 0.0;
  out.per_layer["cluster.wakes"] = static_cast<double>(wakes);
  out.per_layer["util.cpu_util.setup"] = cpu_utilization(setup_cpu, setup_wall);
  out.per_layer["util.cpu_util.run"] = cpu_utilization(run_cpu, run_wall);
  out.per_layer["trace.overhead_s"] =
      median(pass_times) - median(untraced_pass_times);

  // Kernel throughput: the whole fleet through normalized_power_matrix in
  // 256-server blocks at the trace's 24 demand levels.
  const std::size_t slots = trace.value().demand.size();
  constexpr std::size_t kBlock = 256;
  std::vector<double> utils(kBlock * slots);
  for (std::size_t r = 0; r < kBlock; ++r) {
    for (std::size_t d = 0; d < slots; ++d) {
      utils[r * slots + d] = trace.value().demand[d];
    }
  }
  std::vector<double> power(kBlock * slots);
  double checksum = 0.0;
  std::uint64_t points = 0;
  const double kernel_start = now_s();
  {
    const Span span(tracer, "metrics.normalized_power_matrix");
    do {
      for (std::size_t i0 = 0; i0 < fleet->size(); i0 += kBlock) {
        const std::size_t count = std::min(kBlock, fleet->size() - i0);
        fleet->normalized_power_matrix(
            i0, count, std::span(utils).first(count * slots),
            std::span(power).first(count * slots), slots);
        checksum += power[0];
        points += count * slots;
      }
    } while (now_s() - kernel_start < 0.3);
  }
  const double kernel_s = now_s() - kernel_start;
  out.check(std::isfinite(checksum), "day_scale.kernel: non-finite power");
  out.per_layer["metrics.kernel_ns_per_point"] =
      kernel_s * 1e9 / static_cast<double>(points);
  const auto variant = epserve::metrics::kernels::active().variant;
  out.per_layer["metrics.kernel_variant"] = static_cast<double>(variant);
  out.notes.push_back(format("kernel variant %s (%d), %llu points timed",
                             epserve::metrics::kernels::variant_name(variant),
                             static_cast<int>(variant),
                             static_cast<unsigned long long>(points)));
  return out;
}

}  // namespace perfbench
