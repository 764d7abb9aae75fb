#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i * m / 4 (1-based), clamped to [1, n - 1], linearly
  // interpolated in exact integer steps of quarters.
  const std::size_t m = n + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (samples_beyond(n, q) < kMinTailSamples) return std::nullopt;
  const std::size_t rank = n - samples_beyond(n, q);  // 1-based
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool backlog_growing(std::span<const double> backlog) {
  const std::size_t half = backlog.size() / 2;
  if (half == 0) return false;
  double first = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < half; ++i) first += backlog[i];
  for (std::size_t i = backlog.size() - half; i < backlog.size(); ++i) {
    second += backlog[i];
  }
  first /= static_cast<double>(half);
  second /= static_cast<double>(half);
  return second > 1.5 * first + 4.0;
}

double lag_p99_ms(std::vector<double> lag_ms) {
  if (lag_ms.empty()) return 0.0;
  const double worst = *std::max_element(lag_ms.begin(), lag_ms.end());
  return tail_percentile(std::move(lag_ms), 0.99).value_or(worst);
}

StepVerdict judge_step(const LadderStep& step, const LadderLimits& limits) {
  if (step.gen_lag_p99_ms > limits.gen_lag_ms) return StepVerdict::kInvalid;
  if (step.failed > 0 || step.backlog_growing || !step.p99_ms ||
      *step.p99_ms > limits.p99_ms) {
    return StepVerdict::kFail;
  }
  return StepVerdict::kPass;
}

double max_passing_rate(std::span<const LadderStep> steps,
                        const LadderLimits& limits) {
  double best = 0.0;
  for (const auto& step : steps) {
    if (judge_step(step, limits) == StepVerdict::kPass) {
      best = std::max(best, step.rate);
    }
  }
  return best;
}

std::vector<LadderStep> bisect_ladder(
    std::span<const double> rates,
    const std::function<LadderStep(double)>& probe,
    const LadderLimits& limits) {
  std::vector<LadderStep> probed;
  const auto passes = [&](std::size_t index) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      probed.push_back(probe(rates[index]));
      const StepVerdict verdict = judge_step(probed.back(), limits);
      if (verdict != StepVerdict::kInvalid) return verdict == StepVerdict::kPass;
    }
    return false;
  };
  if (rates.empty() || !passes(0)) return probed;
  // Invariant: rates[lo] passed; every index >= hi failed or is off the top.
  std::size_t lo = 0;
  std::size_t hi = rates.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return probed;
}

std::vector<double> ladder_rates(double low, double high, double ratio) {
  std::vector<double> rates;
  if (low <= 0.0 || ratio <= 1.0) return rates;
  // Whole rates, each rounded down from the previous one times `ratio`, so
  // no step is more than `ratio` above the one before it.
  rates.push_back(std::round(low));
  while (rates.back() < high) {
    rates.push_back(std::max(std::floor(rates.back() * ratio),
                             rates.back() + 1.0));
  }
  return rates;
}

}  // namespace perfbench
