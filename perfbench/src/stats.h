// Statistics shared by every perfbench workload: medians and quartiles of
// repeated timings, the tail-percentile reporting rule, open-loop lateness,
// backlog growth, and the max_rps ladder verdict.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// First, second and third quartile by the "exclusive" method, the default
/// of Python's statistics.quantiles(values, n=4), so the spread the
/// benchmark reports matches the one its users compute from run medians.
/// A single value is its own three quartiles; empty input gives zeros.
Quartiles quartiles(std::vector<double> values);

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, reported only when
/// at least kMinTailSamples samples rank above it; nullopt otherwise.
/// p99 therefore needs 1000 samples and p50 needs 20.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// Samples that rank above the nearest-rank percentile `q` of `n` samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Backlog (requests sent but not yet answered) sampled at even intervals
/// across one open-loop rate step. The backlog grows when the mean over the
/// last half of the step exceeds the mean over the first half by more than
/// half of the first-half mean plus 4 requests: a server that keeps up holds
/// a flat backlog, one that does not accumulates it linearly.
bool backlog_growing(std::span<const double> backlog);

/// How late the open-loop generator ran, from per-request lag (send time
/// minus due time, ms): the p99 by the tail rule, or the worst lag when
/// there are too few samples for a p99; 0 with no samples.
double lag_p99_ms(std::vector<double> lag_ms);

/// One step of the open-loop ladder.
struct LadderStep {
  double rate = 0.0;                // offered requests per second
  std::optional<double> p99_ms;     // nullopt: too few samples for p99
  bool backlog_growing = false;
  std::size_t failed = 0;           // failed, refused or unanswered requests
  double gen_lag_p99_ms = 0.0;
};

/// Limits a ladder step must meet to count as sustained.
struct LadderLimits {
  double p99_ms = 25.0;       // latency limit on p99
  double gen_lag_ms = 10.0;   // beyond this the step measured the generator
};

enum class StepVerdict { kPass, kFail, kInvalid };

/// kInvalid when the generator itself ran late (the step measured the load
/// generator, not the server); kFail on any failure, a growing backlog, a
/// p99 over the limit, or too few samples to know the p99; kPass otherwise.
StepVerdict judge_step(const LadderStep& step, const LadderLimits& limits);

/// The highest rate among passing steps, or 0 when none passed.
double max_passing_rate(std::span<const LadderStep> steps,
                        const LadderLimits& limits);

/// Bisects the ascending `rates` for the highest sustained step: `probe`
/// runs one step at the given rate. The lowest rate is probed first; each
/// later probe halves the bracket between the highest passing and the
/// lowest failing step, so a ladder of n rates costs about log2(n) probes.
/// An invalid step is probed once more, then counts as failed. Returns
/// every probed step in probe order.
std::vector<LadderStep> bisect_ladder(
    std::span<const double> rates,
    const std::function<LadderStep(double)>& probe,
    const LadderLimits& limits);

/// The whole-number rates of a geometric ladder from `low` up to at least
/// `high`, each step at most `ratio` times the previous one (ratio 1.05
/// keeps steps within 5 % of each other).
std::vector<double> ladder_rates(double low, double high, double ratio);

}  // namespace perfbench
