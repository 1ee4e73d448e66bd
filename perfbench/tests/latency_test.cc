// Self-tests of the benchmark's latency math: percentile selection, the
// seeded Poisson schedule, the ladder's stop rule, and the schedule's
// statistics on a seed held out from the benchmark's development.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "latency.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.5), 1.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(SamplesBeyond(100, 99.0), 1);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
}

TEST(Percentile, HighestLevelNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedLevel(0), 0.0);
  EXPECT_EQ(HighestSupportedLevel(19), 0.0);
  EXPECT_EQ(HighestSupportedLevel(20), 50.0);
  EXPECT_EQ(HighestSupportedLevel(100), 90.0);
  EXPECT_EQ(HighestSupportedLevel(999), 95.0);
  EXPECT_EQ(HighestSupportedLevel(1000), 99.0);
  EXPECT_EQ(HighestSupportedLevel(10000), 99.9);
  EXPECT_EQ(LadderMinSamples(), 1000);
}

TEST(Percentile, SummarizeFallsBackVisibly) {
  std::vector<double> v = OneTo(1000);
  std::shuffle(v.begin(), v.end(), std::mt19937(3));
  Summary full = Summarize(v, 99.0);
  EXPECT_EQ(full.n, 1000);
  EXPECT_EQ(full.p50, 500.0);
  EXPECT_EQ(full.tail_level, 99.0);
  EXPECT_EQ(full.tail, 990.0);

  Summary small = Summarize(OneTo(500), 99.0);
  EXPECT_EQ(small.tail_level, 95.0);
  EXPECT_EQ(small.tail, 475.0);
  EXPECT_NE(Describe(small, "ms").find("p95"), std::string::npos);
  EXPECT_NE(Describe(small, "ms").find("n=500"), std::string::npos);

  Summary none = Summarize(OneTo(5), 99.0);
  EXPECT_EQ(none.tail_level, 0.0);
  EXPECT_EQ(none.p50, 3.0);
}

void ExpectPoisson(uint64_t seed, double rate, double duration) {
  const std::vector<double> t = PoissonSchedule(seed, rate, duration);
  ASSERT_FALSE(t.empty());
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  EXPECT_GE(t.front(), 0.0);
  EXPECT_LT(t.back(), duration);
  const double expected = rate * duration;
  // Count is Poisson(expected): allow five standard deviations.
  EXPECT_NEAR(static_cast<double>(t.size()), expected,
              5.0 * std::sqrt(expected));
  // Exponential gaps have a coefficient of variation of 1.
  double sum = 0.0, sum_sq = 0.0, prev = 0.0;
  for (double x : t) {
    sum += x - prev;
    sum_sq += (x - prev) * (x - prev);
    prev = x;
  }
  const double n = static_cast<double>(t.size());
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(42, 120.0, 10.0), PoissonSchedule(42, 120.0, 10.0));
  EXPECT_NE(PoissonSchedule(42, 120.0, 10.0), PoissonSchedule(43, 120.0, 10.0));
  EXPECT_TRUE(PoissonSchedule(42, 0.0, 10.0).empty());
  ExpectPoisson(42, 200.0, 100.0);
}

TEST(PoissonSchedule, HeldOutSeed) {
  // A seed never used while the benchmark was written or tuned.
  constexpr uint64_t kHeldOut = 0x9d2c5680a1b3e7f1ull;
  EXPECT_EQ(PoissonSchedule(kHeldOut, 60.0, 30.0),
            PoissonSchedule(kHeldOut, 60.0, 30.0));
  ExpectPoisson(kHeldOut, 60.0, 300.0);
  ExpectPoisson(kHeldOut, 360.0, 30.0);
}

LadderStep Step(double rate, double p99_ms, int64_t failures = 0,
                int64_t backlog = 0, int64_t sent = 1200) {
  LadderStep step;
  step.rate = rate;
  step.p99_ms = p99_ms;
  step.failures = failures;
  step.backlog_end = backlog;
  step.sent = sent;
  return step;
}

TEST(Ladder, StopsAtFirstFailure) {
  EXPECT_EQ(MaxPassingRate({Step(200, 10), Step(240, 20), Step(280, 90),
                            Step(320, 10)},
                           50.0),
            240.0);
  EXPECT_EQ(MaxPassingRate({Step(200, 60), Step(240, 10)}, 50.0), 0.0);
  EXPECT_EQ(MaxPassingRate({}, 50.0), 0.0);
}

TEST(Ladder, StepRule) {
  EXPECT_TRUE(StepPasses(Step(200, 50.0), 50.0));
  EXPECT_FALSE(StepPasses(Step(200, 50.1), 50.0));
  EXPECT_FALSE(StepPasses(Step(200, 10.0, /*failures=*/1), 50.0));
  // 200 req/s x 50 ms = 10 requests may still be in flight.
  EXPECT_TRUE(StepPasses(Step(200, 10.0, 0, /*backlog=*/10), 50.0));
  EXPECT_FALSE(StepPasses(Step(200, 10.0, 0, /*backlog=*/11), 50.0));
  // Too few samples for a p99 never passes.
  EXPECT_FALSE(StepPasses(Step(200, 10.0, 0, 0, /*sent=*/999), 50.0));
}

}  // namespace
}  // namespace perfbench
