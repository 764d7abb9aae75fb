// The interface between perfbench's entry point (main.cpp) and its four
// workloads. A workload runs its set-up and measured phase, checks its own
// outputs, and fills an Outcome; main.cpp turns that into the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool traced = false;
};

struct Outcome {
  /// Operations attempted and failed (policy-days, cells, seed reports,
  /// requests); error_rate = failed / attempted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Named messages of the output checks that failed.
  std::vector<std::string> check_failures;
  /// End-to-end metrics by BENCHMARK.json name (untraced runs).
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics by BENCHMARK.json name (traced runs). Layers the
  /// workload does not call stay absent and are reported as 0.
  std::map<std::string, double> per_layer;
  /// Human-readable result lines printed before the JSON line: sample
  /// counts, open-loop step health, the dispatched kernel variant.
  std::vector<std::string> notes;
  /// FNV-1a digest of the workload's rendered outputs, when it has any;
  /// checked against perfbench/expected.json for the seeds recorded there.
  std::string output_hash;

  void check(bool ok, const std::string& message) {
    if (!ok) check_failures.push_back(message);
  }
};

Outcome run_day_scale(const Options& options, Tracer& tracer);
Outcome run_sweep(const Options& options, Tracer& tracer);
Outcome run_study(const Options& options, Tracer& tracer);
Outcome run_serve_mixed(const Options& options, Tracer& tracer);

// --- Helpers shared by the workloads (common.cpp) ---------------------------

/// Seconds on the steady clock.
double now_s();

/// Process CPU time (user + system) in seconds, from getrusage.
double process_cpu_s();

/// Process CPU over (wall x online CPUs): 1.0 means every core was busy.
double cpu_utilization(double cpu_s, double wall_s);

/// Peak resident set size of this process image in MB (VmHWM).
double peak_rss_mb();

/// 64-bit FNV-1a, folded over successive calls.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t value);

/// A 64-bit value derived from (seed, stream) by SplitMix64, so every
/// workload input is a pure function of the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// "n=.. min .. q1 .. median .. q3 .. max .." of a set of timings, in the
/// timings' own unit, for the human-readable notes.
std::string describe(const std::vector<double>& values);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
