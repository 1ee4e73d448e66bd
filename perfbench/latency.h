#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstdint>
#include <string>
#include <vector>

// Latency math of the benchmark, kept free of the program's own code so the
// self-tests pin it down in isolation:
//   - percentiles are nearest-rank over the raw samples (no buckets);
//   - a tail is reported only at a level with at least kMinBeyond samples
//     strictly above it, and always with its sample count;
//   - open-loop arrivals follow a seeded Poisson schedule, and latency is
//     taken from each request's scheduled send time, so a stall that delays
//     later sends is charged to them (no coordinated omission);
//   - the saturation ladder stops at its first failing step.

namespace perfbench {

inline constexpr int64_t kMinBeyond = 10;

// Nearest-rank percentile: the smallest sample with at least `level` percent
// of the samples at or below it. `sorted` is ascending and non-empty;
// `level` is in (0, 100].
double Percentile(const std::vector<double>& sorted, double level);

// Samples strictly above the nearest-rank `level` percentile of n samples.
int64_t SamplesBeyond(int64_t n, double level);

// The highest of 50, 90, 95, 99, 99.9, no higher than `max_level`, with at
// least kMinBeyond samples beyond it among n samples; 0 when not even the
// median qualifies.
double HighestSupportedLevel(int64_t n, double max_level = 99.9);

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail_level = 0.0;  // 0: too few samples for any tail
  double tail = 0.0;
};

// Median plus the tail of `samples` (any order) at `wanted_level`, or at the
// highest supported level below it when n is too small for `wanted_level`.
Summary Summarize(std::vector<double> samples, double wanted_level = 99.0);

// "p50 4.1 ms, p99 12.3 ms (n=1200)"-style text naming the levels reported.
std::string Describe(const Summary& summary, const std::string& unit);

// Arrival offsets (seconds from the phase start) of a Poisson process at
// `rate` per second over [0, duration_s). A pure function of its arguments.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s);

// Outcome of one step of the offered-rate ladder.
struct LadderStep {
  double rate = 0.0;        // offered requests per second
  int64_t sent = 0;
  int64_t failures = 0;     // failed, refused or mismatched requests
  double p99_ms = 0.0;      // from scheduled send, nearest rank
  int64_t backlog_end = 0;  // sent minus completed when sending stopped
};

// Samples a ladder step needs before its p99 counts.
int64_t LadderMinSamples();

// A step passes when its p99 is supported and within `p99_limit_ms`, no
// request failed, and the backlog left when sending stopped is no more than
// the arrivals of one latency limit (a queue that kept up cannot hold more).
bool StepPasses(const LadderStep& step, double p99_limit_ms);

// Highest rate of the passing prefix of `steps` (ascending rates); 0 when
// the first step fails. The ladder stops at the first failure.
double MaxPassingRate(const std::vector<LadderStep>& steps,
                      double p99_limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
