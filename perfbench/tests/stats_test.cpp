// Unit tests for perfbench's statistics and tracing code.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const auto b = quartiles({3.5, 1.25});
  EXPECT_DOUBLE_EQ(b.q1, 0.6875);
  EXPECT_DOUBLE_EQ(b.q2, 2.375);
  EXPECT_DOUBLE_EQ(b.q3, 4.0625);
  const auto c = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(c.q1, 1.5);
  EXPECT_DOUBLE_EQ(c.q2, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 4.5);
  const auto d =
      quartiles({0.81, 0.83, 0.79, 0.92, 0.8, 0.85, 0.84, 0.82, 0.86, 0.9});
  EXPECT_NEAR(d.q1, 0.8075, 1e-12);
  EXPECT_NEAR(d.q2, 0.835, 1e-12);
  EXPECT_NEAR(d.q3, 0.87, 1e-12);
  const auto one = quartiles({7.0});
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(n - i);
  return values;
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(19, 0.5), 9u);
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  EXPECT_FALSE(tail_percentile(ramp(19), 0.5).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
  // Nearest rank: the 990th of 1..1000 is 990, and ten samples lie above.
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  const auto p50 = tail_percentile(ramp(20), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 10.0);
}

TEST(TailPercentile, FailedRequestsCountAsBeyondTheLimit) {
  std::vector<double> latencies(1000, 1.0);
  for (int i = 0; i < 11; ++i) {
    latencies[static_cast<std::size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  const auto p99 = tail_percentile(latencies, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_TRUE(std::isinf(*p99));
}

TEST(Backlog, FlatIsSteadyAndLinearGrowthIsNot) {
  const std::vector<double> flat = {3, 5, 4, 6, 3, 4, 5, 4, 6, 3};
  EXPECT_FALSE(backlog_growing(flat));
  std::vector<double> growing;
  for (int i = 0; i < 50; ++i) growing.push_back(2.0 * i);
  EXPECT_TRUE(backlog_growing(growing));
  // A short spike early in the step is not growth.
  const std::vector<double> spike = {40, 30, 10, 5, 4, 4, 5, 4, 3, 4};
  EXPECT_FALSE(backlog_growing(spike));
  EXPECT_FALSE(backlog_growing(std::vector<double>{}));
}

TEST(Lateness, P99NeedsTheRuleAndFallsBackToMax) {
  std::vector<double> lag(1000, 0.01);
  lag[0] = 7.0;
  EXPECT_DOUBLE_EQ(lag_p99_ms(lag), 0.01);
  // Too few samples for a p99: report the worst lag, not a flattering one.
  EXPECT_DOUBLE_EQ(lag_p99_ms({0.1, 0.2, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(lag_p99_ms({}), 0.0);
}

LadderStep step(double rate, double p99, bool growing = false,
                std::size_t failed = 0, double lag = 0.1) {
  return {rate, p99, growing, failed, lag};
}

TEST(Ladder, JudgeStep) {
  const LadderLimits limits{10.0, 2.0};
  EXPECT_EQ(judge_step(step(100, 5.0), limits), StepVerdict::kPass);
  EXPECT_EQ(judge_step(step(100, 11.0), limits), StepVerdict::kFail);
  EXPECT_EQ(judge_step(step(100, 5.0, true), limits), StepVerdict::kFail);
  EXPECT_EQ(judge_step(step(100, 5.0, false, 1), limits), StepVerdict::kFail);
  EXPECT_EQ(judge_step({100, std::nullopt, false, 0, 0.1}, limits),
            StepVerdict::kFail);
  // A late generator makes the step invalid, whatever the latency says.
  EXPECT_EQ(judge_step(step(100, 5.0, false, 0, 3.0), limits),
            StepVerdict::kInvalid);
}

TEST(Ladder, RatesAreAtMostFivePercentApart) {
  const auto rates = ladder_rates(1000, 4000, 1.05);
  ASSERT_GE(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates.front(), 1000);
  EXPECT_GE(rates.back(), 4000);
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_LE(rates[i] / rates[i - 1], 1.0501);
    EXPECT_GT(rates[i], rates[i - 1]);
  }
}

TEST(Ladder, BisectionFindsTheHighestSustainedStep) {
  const auto rates = ladder_rates(1000, 4000, 1.05);
  const LadderLimits limits{10.0, 2.0};
  // A server that holds p99 under the limit up to 2500 req/s, and whose
  // backlog grows beyond it.
  int probes = 0;
  const auto probed = bisect_ladder(
      rates,
      [&](double rate) {
        ++probes;
        return rate <= 2500 ? step(rate, 2.0) : step(rate, 8.0, true);
      },
      limits);
  double expected = 0;
  for (const double r : rates) {
    if (r <= 2500) expected = r;
  }
  EXPECT_DOUBLE_EQ(max_passing_rate(probed, limits), expected);
  EXPECT_LE(probes, 7);  // about log2(rates) probes
  EXPECT_EQ(static_cast<std::size_t>(probes), probed.size());
}

TEST(Ladder, InvalidStepIsRetriedOnceThenFails) {
  const auto rates = ladder_rates(1000, 1100, 1.05);  // 1000, 1050, 1103
  const LadderLimits limits{10.0, 2.0};
  int calls_at_low = 0;
  const auto probed = bisect_ladder(
      rates,
      [&](double rate) {
        if (rate == rates.front()) {
          ++calls_at_low;
          return calls_at_low == 1 ? step(rate, 2.0, false, 0, 5.0)
                                   : step(rate, 2.0);
        }
        return step(rate, 2.0, false, 0, 5.0);  // always late
      },
      limits);
  EXPECT_EQ(calls_at_low, 2);
  EXPECT_DOUBLE_EQ(max_passing_rate(probed, limits), rates.front());
}

TEST(Ladder, NothingPassesGivesZero) {
  const auto rates = ladder_rates(1000, 2000, 1.05);
  const LadderLimits limits{10.0, 2.0};
  const auto probed = bisect_ladder(
      rates, [&](double rate) { return step(rate, 50.0); }, limits);
  EXPECT_EQ(probed.size(), 1u);
  EXPECT_DOUBLE_EQ(max_passing_rate(probed, limits), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // parent [0, 100) with children [10, 40) and [30, 60): union 50.
  std::vector<SpanRecord> spans = {
      {"parent", 0, 100'000'000, -1, 0, 1},
      {"child", 10'000'000, 40'000'000, 0, 0, 1},
      {"child", 30'000'000, 60'000'000, 0, 0, 1},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("parent").count, 1u);
  EXPECT_NEAR(self.at("parent").total_ms, 100.0, 1e-9);
  EXPECT_NEAR(self.at("parent").self_ms, 50.0, 1e-9);
  EXPECT_EQ(self.at("child").count, 2u);
  EXPECT_NEAR(self.at("child").self_ms, 60.0, 1e-9);
}

TEST(Trace, SpansNestAndDisabledSpansAreInert) {
  Tracer tracer(true);
  {
    const Span outer(tracer, "outer");
    { const Span inner(tracer, "inner", 42); }
  }
  tracer.set_enabled(false);
  { const Span ignored(tracer, "ignored"); }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 42u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const std::string json = chrome_trace_json(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request\":42"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
