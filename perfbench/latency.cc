#include "latency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr double kLevels[] = {50.0, 90.0, 95.0, 99.0, 99.9};

// 0-based index of the nearest-rank `level` percentile among n samples.
int64_t RankIndex(int64_t n, double level) {
  const int64_t rank =
      static_cast<int64_t>(std::ceil(level / 100.0 * static_cast<double>(n) -
                                     1e-9));
  return std::clamp<int64_t>(rank, 1, n) - 1;
}

// SplitMix64: a tiny, fully specified generator, so a schedule is the same
// on every standard library.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double level) {
  return sorted[static_cast<size_t>(
      RankIndex(static_cast<int64_t>(sorted.size()), level))];
}

int64_t SamplesBeyond(int64_t n, double level) {
  return n - 1 - RankIndex(n, level);
}

double HighestSupportedLevel(int64_t n, double max_level) {
  double best = 0.0;
  if (n <= 0) return best;
  for (double level : kLevels) {
    if (level <= max_level && SamplesBeyond(n, level) >= kMinBeyond) {
      best = level;
    }
  }
  return best;
}

Summary Summarize(std::vector<double> samples, double wanted_level) {
  Summary summary;
  summary.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = Percentile(samples, 50.0);
  summary.tail_level = HighestSupportedLevel(summary.n, wanted_level);
  if (summary.tail_level > 0.0) {
    summary.tail = Percentile(samples, summary.tail_level);
  }
  return summary;
}

std::string Describe(const Summary& summary, const std::string& unit) {
  char text[160];
  if (summary.tail_level > 0.0) {
    std::snprintf(text, sizeof(text), "p50 %.4g %s, p%g %.4g %s (n=%lld)",
                  summary.p50, unit.c_str(), summary.tail_level, summary.tail,
                  unit.c_str(), static_cast<long long>(summary.n));
  } else {
    std::snprintf(text, sizeof(text), "p50 %.4g %s, no supported tail (n=%lld)",
                  summary.p50, unit.c_str(), static_cast<long long>(summary.n));
  }
  return text;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s) {
  std::vector<double> offsets;
  if (rate <= 0.0 || duration_s <= 0.0) return offsets;
  offsets.reserve(static_cast<size_t>(rate * duration_s * 1.2) + 16);
  uint64_t state = seed ^ 0x5851F42D4C957F2Dull;
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1] from the top 53 bits; exponential by inversion.
    const double u = (static_cast<double>(NextRandom(&state) >> 11) + 1.0) /
                     9007199254740992.0;
    t += -std::log(u) / rate;
    if (t >= duration_s) break;
    offsets.push_back(t);
  }
  return offsets;
}

int64_t LadderMinSamples() {
  // Nearest-rank p99 needs n - 1 - (ceil(0.99 n) - 1) >= kMinBeyond.
  int64_t n = 1;
  while (SamplesBeyond(n, 99.0) < kMinBeyond) ++n;
  return n;
}

bool StepPasses(const LadderStep& step, double p99_limit_ms) {
  if (step.sent < LadderMinSamples() || step.failures > 0) return false;
  if (step.p99_ms > p99_limit_ms) return false;
  const double allowed_backlog = step.rate * p99_limit_ms / 1000.0;
  return static_cast<double>(step.backlog_end) <= allowed_backlog;
}

double MaxPassingRate(const std::vector<LadderStep>& steps,
                      double p99_limit_ms) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (!StepPasses(step, p99_limit_ms)) break;
    best = step.rate;
  }
  return best;
}

}  // namespace perfbench
